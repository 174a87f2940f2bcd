package secmem

import (
	"fmt"

	"ivleague/internal/config"
	"ivleague/internal/core"
	"ivleague/internal/layout"
	"ivleague/internal/telemetry"
)

// pathCursor yields a page's verification path bottom-up, one node at a
// time, so a walk that ends at its first cached node computes no more of
// the path than it reads. It is the only copy of the path: the walk and
// the leaf update step through it, and PathAddrs serves everything else.
type pathCursor struct {
	lay        *layout.Layout
	tl         int    // TreeLing, or telemetry.GlobalTreeLing for the global tree
	level, top int    // level of the current node and of the path's last (1 = leaves)
	node       uint64 // TreeLing top-down node index, or index within the global level
}

// path returns a cursor on the first node of pfn's verification path.
// Under IvLeague the path runs from the node holding slot, the page's
// effective slot, to its TreeLing root (the levels above are on-chip).
// Under the global tree it runs from level 1 to the root (Baseline) or to
// partLevel, where the partition's subtree roots sit (StaticPartition).
func (c *Controller) path(pfn layout.PFN, slot core.SlotID) pathCursor {
	if c.ivc != nil {
		node := slot.Node()
		return pathCursor{lay: c.lay, tl: slot.TreeLing(), level: c.lay.LevelOf(node),
			top: c.lay.TreeLingHeight, node: uint64(node)}
	}
	top := c.lay.GlobalLevels
	if c.scheme == config.SchemeStaticPartition {
		top = c.partLevel
	}
	return pathCursor{lay: c.lay, tl: telemetry.GlobalTreeLing, level: 1,
		top: top, node: uint64(pfn) / uint64(c.lay.Arity)}
}

// next moves the cursor to the current node's parent.
func (p *pathCursor) next() {
	if p.tl == telemetry.GlobalTreeLing {
		p.node /= uint64(p.lay.Arity)
	} else if parent, _, ok := p.lay.Parent(int(p.node)); ok {
		p.node = uint64(parent)
	}
	p.level++
}

// addr returns the physical address of the current node.
func (p *pathCursor) addr() (uint64, error) {
	if p.tl == telemetry.GlobalTreeLing {
		return p.lay.GlobalNodeAddr(p.level, p.node)
	}
	return p.lay.TreeLingNodeAddr(p.tl, int(p.node))
}

// PathAddrs returns the addresses of the node blocks on pfn's verification
// path, bottom-up: the blocks a walk reads when none is cached. Two pages
// share integrity metadata exactly when their paths share an address.
// Under IvLeague the frame must be mapped, and its path starts at the
// slot its next access resolves to; under the global tree the frame alone
// fixes the path.
func (c *Controller) PathAddrs(pfn layout.PFN) ([]uint64, error) {
	if uint64(pfn) >= c.lay.Pages {
		return nil, fmt.Errorf("secmem: pfn %d out of range", uint64(pfn))
	}
	var slot core.SlotID
	if c.ivc != nil {
		pm := c.pages.Get(pfn)
		if pm == nil || !pm.mapped() {
			return nil, fmt.Errorf("secmem: pfn %d is not mapped", uint64(pfn))
		}
		slot, _ = pm.slot()
		slot, _ = c.ivc.Resolve(pm.dom(), slot)
	}
	var addrs []uint64
	for p := c.path(pfn, slot); p.level <= p.top; p.next() {
		a, err := p.addr()
		if err != nil {
			return nil, err
		}
		addrs = append(addrs, a)
	}
	return addrs, nil
}
