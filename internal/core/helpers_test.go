package core

import "ivleague/internal/layout"

// Queries only the tests ask: the controller's own code reads the
// structures directly.

// mappedPages returns the number of pages currently mapped in a domain.
func mappedPages(c *Controller, domainID int) uint64 {
	if d := c.domains[domainID]; d != nil {
		return d.mapped
	}
	return 0
}

// isParentSlot reports whether the given slot has been converted.
func isParentSlot(c *Controller, domainID int, slot SlotID) bool {
	d := c.domains[domainID]
	if d == nil || !c.ownsTL(d, slot.TreeLing()) {
		return false
	}
	return c.parentOf(slot.TreeLing())[slot.Node()]&(1<<uint(slot.Slot())) != 0
}

// isOccupied reports whether the given slot currently verifies a page.
func isOccupied(c *Controller, domainID int, slot SlotID) bool {
	d := c.domains[domainID]
	if d == nil || !c.ownsTL(d, slot.TreeLing()) {
		return false
	}
	return c.occupiedOf(slot.TreeLing())[slot.Node()]&(1<<uint(slot.Slot())) != 0
}

// freeSlots returns the number of attachable slots tracked in the space.
func freeSlots(s *nflSpace) int {
	n := 0
	for _, r := range s.regions {
		for _, e := range r.entries {
			for a := e.avail; a != 0; a &= a - 1 {
				n++
			}
		}
	}
	return n
}

// treeLingPages returns the number of pages one TreeLing verifies in
// leaf-only (Basic) mapping: arity^height.
func treeLingPages(lay *layout.Layout) int {
	n := 1
	for i := 0; i < lay.TreeLingHeight; i++ {
		n *= lay.Arity
	}
	return n
}
