package pagetable

import (
	"fmt"

	"ivleague/internal/layout"
)

// refTable is the page table as it stood before leaves held 8-byte
// entries: each leaf entry a 16-byte {PFN, Present} struct. It is kept
// only as the reference the differential tests compare Table against;
// apart from the ref prefix on its names, the code is unchanged.

// refPTE is a (possibly extended) page-table entry.
type refPTE struct {
	PFN     layout.PFN
	Present bool
}

type refNode struct {
	children []*refNode
	ptes     []refPTE
}

type refTable struct {
	levels []uint
	shifts []uint // shift of each level's index field within the VPN
	root   *refNode
	mapped uint64
}

func newRefTable(levels []uint) *refTable {
	total := uint(0)
	for _, w := range levels {
		total += w
	}
	if total != 36 {
		panic(fmt.Sprintf("pagetable: level widths sum to %d, want 36", total))
	}
	t := &refTable{levels: append([]uint(nil), levels...)}
	t.shifts = make([]uint, len(levels))
	shift := total
	for i, w := range levels {
		shift -= w
		t.shifts[i] = shift
	}
	t.root = &refNode{children: make([]*refNode, 1<<levels[0])}
	return t
}

// Mapped returns the number of present PTEs.
func (t *refTable) Mapped() uint64 { return t.mapped }

func (t *refTable) index(vpn layout.VPN, level int) uint64 {
	return (uint64(vpn) >> t.shifts[level]) & (1<<t.levels[level] - 1)
}

// walk returns the PTE slot for vpn, allocating intermediate nodes when
// create is set; returns nil otherwise when the path is absent.
func (t *refTable) walk(vpn layout.VPN, create bool) *refPTE {
	n := t.root
	last := len(t.levels) - 1
	for level := 0; level < last; level++ {
		i := t.index(vpn, level)
		child := n.children[i]
		if child == nil {
			if !create {
				return nil
			}
			child = &refNode{}
			if level == last-1 {
				child.ptes = make([]refPTE, 1<<t.levels[last])
			} else {
				child.children = make([]*refNode, 1<<t.levels[level+1])
			}
			n.children[i] = child
		}
		n = child
	}
	return &n.ptes[t.index(vpn, last)]
}

// Map installs a translation vpn→pfn. Mapping an already-present VPN is an
// error (callers must Unmap first).
func (t *refTable) Map(vpn layout.VPN, pfn layout.PFN) error {
	pte := t.walk(vpn, true)
	if pte.Present {
		return fmt.Errorf("pagetable: vpn %#x already mapped", uint64(vpn))
	}
	*pte = refPTE{PFN: pfn, Present: true}
	t.mapped++
	return nil
}

// Unmap removes a translation, returning the old PTE.
func (t *refTable) Unmap(vpn layout.VPN) (refPTE, bool) {
	pte := t.walk(vpn, false)
	if pte == nil || !pte.Present {
		return refPTE{}, false
	}
	old := *pte
	*pte = refPTE{}
	t.mapped--
	return old, true
}

// VPNs returns every mapped VPN in ascending order.
func (t *refTable) VPNs() []layout.VPN {
	out := make([]layout.VPN, 0, t.mapped)
	var walk func(n *refNode, prefix uint64, level int)
	walk = func(n *refNode, prefix uint64, level int) {
		if n.ptes != nil {
			for i := range n.ptes {
				if n.ptes[i].Present {
					out = append(out, layout.VPN(prefix|uint64(i)))
				}
			}
			return
		}
		for i, child := range n.children {
			if child != nil {
				walk(child, prefix|uint64(i)<<t.shifts[level], level+1)
			}
		}
	}
	walk(t.root, 0, 0)
	return out
}

// Lookup returns a pointer to the PTE for vpn, or nil if unmapped.
func (t *refTable) Lookup(vpn layout.VPN) *refPTE {
	pte := t.walk(vpn, false)
	if pte == nil || !pte.Present {
		return nil
	}
	return pte
}
