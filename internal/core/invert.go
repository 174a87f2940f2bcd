package core

// ensureParentConverted makes the parent slot covering node a parent slot
// (ρ=1), converting it if needed per Figure 12: the hash currently in the
// parent slot (a page's verification hash, if the slot was occupied) is
// relocated into slot 0 of node, and the parent slot is repurposed to hold
// node's hash. Ancestors are converted recursively, which only matters
// when the strict top-down fill was bypassed (the Pro hot region).
func (c *Controller) ensureParentConverted(d *Domain, tl, node int, ops *OpList) {
	p, pslot, ok := c.lay.Parent(node)
	if !ok {
		return // TreeLing root: verified against the on-chip locked level
	}
	parent := c.parentOf(tl)
	if parent[p]&(1<<uint(pslot)) != 0 {
		return // already a parent slot
	}
	c.ensureParentConverted(d, tl, p, ops)
	occupied := c.occupiedOf(tl)
	if occupied[p]&(1<<uint(pslot)) != 0 {
		// ❶ Relocate the occupying page's hash into the first slot of the
		// child node; the page's LMM stays stale and is fixed lazily on
		// its next access (Resolve). The parent's content is available
		// on-chip (the child's verification needs it anyway, per Section
		// VII-A), so only the child-node write is charged here; the child
		// node is empty, so the write allocates without a fetch.
		ops.WriteNoFetch(c.lay.TreeLingNodeAddr(tl, node))
		if c.forest != nil {
			h := c.forest.Slot(tl, p, pslot)
			c.forest.SetSlot(tl, node, 0, h)
		}
		occupied[node] |= 1
		occupied[p] &^= 1 << uint(pslot)
		// Slot 0 of node is consumed by the relocated page.
		c.consumeSlot(d, tl, node, 0)
	} else {
		// The parent slot was free: consuming it as a parent just removes
		// it from availability tracking.
		c.consumeSlot(d, tl, p, pslot)
	}
	// ❷ Mark the parent slot as ρ=1. Its hash content becomes the child
	// node's hash, which the functional forest maintains on the next
	// SetSlot along this path; the flag update itself is a node write.
	parent[p] |= 1 << uint(pslot)
	ops.Write(c.lay.TreeLingNodeAddr(tl, p))
	c.Conversions.Inc()
}

// consumeSlot removes (tl, node, slot) from whichever availability space
// tracks it. Under Pro the parents of the topmost regular nodes are τhot
// nodes, so a conversion can consume a slot tracked by the hot NFL; if it
// were left behind there, migrateToHot would later hand the same slot to
// a hotpage and overwrite a parent link (or a relocated page's hash).
func (c *Controller) consumeSlot(d *Domain, tl, node, slot int) {
	if !d.space.clearSlot(tl, node, slot) && d.hotSpace != nil {
		d.hotSpace.clearSlot(tl, node, slot)
	}
}

// Resolve follows a (possibly stale) LMM slot through converted parent
// slots down to the page's current verification slot, per Figure 12c: a
// slot whose ρ flag is set means the page's hash moved to slot 0 of the
// covered child node. It returns the effective slot and whether it
// changed (the caller then refreshes the LMM/PTE). The chain nodes are
// ancestors of the final slot, so their reads are charged by the
// verification walk itself, not here.
//
//ivlint:hotpath
func (c *Controller) Resolve(domainID int, slot SlotID) (SlotID, bool) {
	d := c.domains[domainID]
	if d == nil || slot == InvalidSlot {
		return slot, false
	}
	tl := slot.TreeLing()
	if !c.ownsTL(d, tl) {
		return slot, false
	}
	parent := c.parentOf(tl)
	node, sl := slot.Node(), slot.Slot()
	changed := false
	for parent[node]&(1<<uint(sl)) != 0 {
		child, ok := c.lay.Child(node, sl)
		if !ok {
			break // leaf slots cannot be parents; defensive
		}
		node, sl = child, 0
		changed = true
	}
	if !changed {
		return slot, false
	}
	return MakeSlot(tl, node, sl), true
}

// IsParentSlot reports whether the given slot has been converted (used by
// tests and invariant checks).
func (c *Controller) IsParentSlot(domainID int, slot SlotID) bool {
	d := c.domains[domainID]
	if d == nil {
		return false
	}
	tl := slot.TreeLing()
	if !c.ownsTL(d, tl) {
		return false
	}
	return c.parentOf(tl)[slot.Node()]&(1<<uint(slot.Slot())) != 0
}

// IsOccupied reports whether the given slot currently verifies a page.
func (c *Controller) IsOccupied(domainID int, slot SlotID) bool {
	d := c.domains[domainID]
	if d == nil {
		return false
	}
	tl := slot.TreeLing()
	if !c.ownsTL(d, tl) {
		return false
	}
	return c.occupiedOf(tl)[slot.Node()]&(1<<uint(slot.Slot())) != 0
}
