package core

import (
	"testing"

	"ivleague/internal/layout"
)

// Under Pro the τhot nodes bypass the strict top-down fill, so every slot
// on the verification path from a hot node up to the TreeLing root must
// be pre-converted (ρ=1) and withheld from page allocation the moment the
// TreeLing is assigned. Stopping the pre-conversion at the hot nodes'
// immediate parents — the bug the scheme-matrix differential test caught —
// let a page occupy the root slot over a hot subtree; the first hotpage
// migration's rehash then overwrote that page's hash with a node hash.
func TestProHotChainPreConvertedToRoot(t *testing.T) {
	c, lay := newCtrl(t, ModePro, false)
	if _, err := c.CreateDomain(1); err != nil {
		t.Fatal(err)
	}
	var ops OpList
	// Force the first TreeLing assignment.
	if _, err := c.AllocPage(1, 0, &ops); err != nil {
		t.Fatal(err)
	}
	d := c.domains[1]
	tl := d.treelings[0]
	onChain := map[SlotID]bool{}
	for _, hn := range c.hotNFL.tracked {
		for node := int(hn); ; {
			p, slot, ok := lay.Parent(node)
			if !ok {
				break
			}
			ps := MakeSlot(tl, p, slot)
			onChain[ps] = true
			if !isParentSlot(c, 1, ps) {
				t.Fatalf("slot %v on the τhot chain of hot node %d is not pre-converted", ps, hn)
			}
			node = p
		}
	}
	// Exhaust the TreeLing: no allocation may ever return a chain slot.
	for i := 1; ; i++ {
		slot, err := c.AllocPage(1, layout.PFN(uint64(i)), &ops)
		if err != nil {
			break // starvation after the space is exhausted is fine here
		}
		if onChain[slot] {
			t.Fatalf("AllocPage handed out τhot chain slot %v as a page slot", slot)
		}
		if len(d.treelings) > 1 {
			break // first TreeLing exhausted; later ones repeat the same layout
		}
	}
}
