// Package pagetable implements the multi-level radix page table and TLB
// model. IvLeague extends the last-level PTE with a 64-bit Leaf ID field
// (the Leaf Mapping Metadata, LMM), which halves the entries per PTE page
// — both layouts from Figure 9 are supported. Only the geometry is modelled
// here: the leaf IDs themselves live in the secure memory controller's
// per-frame metadata (internal/secmem).
package pagetable

import (
	"fmt"

	"ivleague/internal/layout"
	"ivleague/internal/stats"
)

// VPNBits is the width of a virtual page number: 48-bit virtual
// addresses with 4 KiB pages.
const VPNBits = 36

// Levels describe a radix page-table geometry as index bit-widths from the
// top level down to the PTE level.
var (
	// ClassicLevels is the x86-64 4-level layout (512-entry pages).
	ClassicLevels = []uint{9, 9, 9, 9}
	// IvLeagueLevels is the extended layout of Figure 9b: the PTE page
	// holds 256 doubled entries, so the last level indexes 8 bits and the
	// level above absorbs the extra bit.
	IvLeagueLevels = []uint{9, 9, 10, 8}
)

// A leaf holds one 8-byte entry per VPN: pfn+1 for a present
// translation, 0 for none. Frame numbers are far below 2^64−1, so the
// encoding never wraps.
type ptNode struct {
	children []*ptNode
	ptes     []uint64
}

// Table is one process's page table.
type Table struct {
	levels []uint
	shifts []uint // shift of each level's index field within the VPN
	root   *ptNode
}

// New creates an empty page table with the given level widths (totalling
// VPNBits).
func New(levels []uint) *Table {
	total := uint(0)
	for _, w := range levels {
		total += w
	}
	if total != VPNBits {
		panic(fmt.Sprintf("pagetable: level widths sum to %d, want %d", total, VPNBits))
	}
	t := &Table{levels: append([]uint(nil), levels...)}
	t.shifts = make([]uint, len(levels))
	shift := total
	for i, w := range levels {
		shift -= w
		t.shifts[i] = shift
	}
	t.root = &ptNode{children: make([]*ptNode, 1<<levels[0])}
	return t
}

// Depth returns the number of page-table levels (walk length).
func (t *Table) Depth() int { return len(t.levels) }

func (t *Table) index(vpn layout.VPN, level int) uint64 {
	return (uint64(vpn) >> t.shifts[level]) & (1<<t.levels[level] - 1)
}

// walk returns the leaf entry for vpn, allocating intermediate nodes when
// create is set. It returns nil when the path is absent and create is
// not set, and for a VPN wider than VPNBits, whose high bits the radix
// index would otherwise drop.
func (t *Table) walk(vpn layout.VPN, create bool) *uint64 {
	if uint64(vpn)>>VPNBits != 0 {
		return nil
	}
	n := t.root
	last := len(t.levels) - 1
	for level := 0; level < last; level++ {
		i := t.index(vpn, level)
		child := n.children[i]
		if child == nil {
			if !create {
				return nil
			}
			child = &ptNode{}
			if level == last-1 {
				child.ptes = make([]uint64, 1<<t.levels[last])
			} else {
				child.children = make([]*ptNode, 1<<t.levels[level+1])
			}
			n.children[i] = child
		}
		n = child
	}
	return &n.ptes[t.index(vpn, last)]
}

// Map installs a translation vpn→pfn. Mapping an already-present VPN is an
// error (callers must Unmap first), and so is a VPN wider than VPNBits.
func (t *Table) Map(vpn layout.VPN, pfn layout.PFN) error {
	e := t.walk(vpn, true)
	if e == nil {
		return fmt.Errorf("pagetable: vpn %#x exceeds %d bits", uint64(vpn), VPNBits)
	}
	if *e != 0 {
		return fmt.Errorf("pagetable: vpn %#x already mapped", uint64(vpn))
	}
	*e = uint64(pfn) + 1
	return nil
}

// Unmap removes a translation, returning the frame it mapped.
func (t *Table) Unmap(vpn layout.VPN) (layout.PFN, bool) {
	e := t.walk(vpn, false)
	if e == nil || *e == 0 {
		return 0, false
	}
	pfn := layout.PFN(*e - 1)
	*e = 0
	return pfn, true
}

// VPNs returns every mapped VPN in ascending order — the canonical
// enumeration the model checker folds into its state fingerprint.
func (t *Table) VPNs() []layout.VPN {
	var out []layout.VPN
	var walk func(n *ptNode, prefix uint64, level int)
	walk = func(n *ptNode, prefix uint64, level int) {
		if n.ptes != nil {
			for i, e := range n.ptes {
				if e != 0 {
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

// Lookup returns the frame vpn maps to, and false if it is unmapped.
func (t *Table) Lookup(vpn layout.VPN) (layout.PFN, bool) {
	e := t.walk(vpn, false)
	if e == nil || *e == 0 {
		return 0, false
	}
	return layout.PFN(*e - 1), true
}

// invalidVPN marks an empty TLB way. VPNs are 36-bit, so the all-ones
// sentinel can never collide with a real translation.
const invalidVPN = ^uint64(0)

// TLB is a set-associative translation lookaside buffer over VPNs. On
// eviction it invokes the eviction hook so the LMM cache can stay
// consistent, per Section VI-C2.
//
// Storage is struct-of-arrays: the tag scan of one set touches a single
// contiguous run of VPN words instead of striding across wide entry
// structs — the TLB lookup sits on the per-instruction hot path.
type TLB struct {
	ways    int
	vpns    []uint64 // invalidVPN = empty way
	pfns    []layout.PFN
	lastUse []uint64
	setMask uint64
	tick    uint64
	// OnEvict, when non-nil, is called with the VPN of each evicted entry.
	OnEvict func(vpn layout.VPN)

	Hits   stats.Counter
	Misses stats.Counter
}

// NewTLB creates a TLB with the given total entries and associativity.
func NewTLB(entries, ways int) *TLB {
	if entries <= 0 || ways <= 0 || entries%ways != 0 {
		panic("pagetable: bad TLB geometry")
	}
	nsets := entries / ways
	if nsets&(nsets-1) != 0 {
		panic("pagetable: TLB set count must be a power of two")
	}
	t := &TLB{
		ways:    ways,
		vpns:    make([]uint64, entries),
		pfns:    make([]layout.PFN, entries),
		lastUse: make([]uint64, entries),
		setMask: uint64(nsets - 1),
	}
	for i := range t.vpns {
		t.vpns[i] = invalidVPN
	}
	return t
}

// Lookup translates vpn, returning (pfn, true) on a hit.
//
//ivlint:hotpath
func (t *TLB) Lookup(vpn layout.VPN) (layout.PFN, bool) {
	t.tick++
	base := int(uint64(vpn)&t.setMask) * t.ways
	for i := base; i < base+t.ways; i++ {
		if t.vpns[i] == uint64(vpn) {
			t.lastUse[i] = t.tick
			t.Hits.Inc()
			return t.pfns[i], true
		}
	}
	t.Misses.Inc()
	return 0, false
}

// Insert installs a translation after a miss, evicting LRU if needed.
//
//ivlint:hotpath
func (t *TLB) Insert(vpn layout.VPN, pfn layout.PFN) {
	t.tick++
	base := int(uint64(vpn)&t.setMask) * t.ways
	victim := base
	evict := true
	for i := base; i < base+t.ways; i++ {
		if t.vpns[i] == invalidVPN {
			victim = i
			evict = false
			break
		}
		if t.lastUse[i] < t.lastUse[victim] {
			victim = i
		}
	}
	if evict && t.OnEvict != nil {
		t.OnEvict(layout.VPN(t.vpns[victim]))
	}
	t.vpns[victim] = uint64(vpn)
	t.pfns[victim] = pfn
	t.lastUse[victim] = t.tick
}

// Invalidate drops a translation (used on unmap).
func (t *TLB) Invalidate(vpn layout.VPN) bool {
	base := int(uint64(vpn)&t.setMask) * t.ways
	for i := base; i < base+t.ways; i++ {
		if t.vpns[i] == uint64(vpn) {
			t.vpns[i] = invalidVPN
			t.pfns[i] = 0
			t.lastUse[i] = 0
			return true
		}
	}
	return false
}
