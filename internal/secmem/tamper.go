package secmem

import (
	"errors"
	"fmt"

	"ivleague/internal/config"
	"ivleague/internal/core"
	"ivleague/internal/layout"
)

// This file collects the physical-attack primitives the fault-injection
// engine (internal/faults) drives: each one mutates the simulated off-chip
// backing store the way a bus-level or cold-boot attacker would, without
// going through the controller's maintenance paths. Detection happens on
// the next verified access (ReadBlock after FlushMetadata), never here.

// ErrNoTamperTarget is returned when the requested tamper target does not
// exist (never-written block, unmapped page, scheme without the structure).
var ErrNoTamperTarget = errors.New("secmem: no such tamper target")

// tamperBlock returns the live block state at (pfn, block), or nil.
func (c *Controller) tamperBlock(pfn layout.PFN, block int) *blockState {
	p := c.dataPage(pfn)
	if p == nil || !p.isPresent(block) {
		return nil
	}
	return &p.blocks[block]
}

// FlipDataBit flips one bit of a block's off-chip ciphertext. The next
// authenticated read fails its MAC check.
func (c *Controller) FlipDataBit(pfn layout.PFN, block, bit int) error {
	if bit < 0 || bit >= config.BlockBytes*8 {
		return fmt.Errorf("secmem: bit %d out of range", bit)
	}
	st := c.tamperBlock(pfn, block)
	if st == nil {
		addr := layout.DataBlockAddr(pfn, block)
		return fmt.Errorf("%w: no data at %#x", ErrNoTamperTarget, addr)
	}
	st.ct[bit/8] ^= 1 << uint(bit%8)
	return nil
}

// CorruptMAC flips one bit of a block's stored MAC (the authentication tag
// itself is attacked, the ciphertext left intact).
func (c *Controller) CorruptMAC(pfn layout.PFN, block, bit int) error {
	st := c.tamperBlock(pfn, block)
	if st == nil {
		addr := layout.DataBlockAddr(pfn, block)
		return fmt.Errorf("%w: no data at %#x", ErrNoTamperTarget, addr)
	}
	st.mac ^= 1 << uint(bit&63)
	return nil
}

// SpliceData copies the (ciphertext, MAC) pair of one block over another —
// the classic splicing attack. Both triples are individually valid, but
// the MAC binds the block's address, so the destination's next read fails
// authentication.
func (c *Controller) SpliceData(srcPfn layout.PFN, srcBlock int, dstPfn layout.PFN, dstBlock int) error {
	src := c.tamperBlock(srcPfn, srcBlock)
	if src == nil {
		srcAddr := layout.DataBlockAddr(srcPfn, srcBlock)
		return fmt.Errorf("%w: no data at %#x", ErrNoTamperTarget, srcAddr)
	}
	dst := c.tamperBlock(dstPfn, dstBlock)
	if dst == nil {
		dstAddr := layout.DataBlockAddr(dstPfn, dstBlock)
		return fmt.Errorf("%w: no data at %#x", ErrNoTamperTarget, dstAddr)
	}
	*dst = *src
	return nil
}

// TamperCounter bumps one minor counter in the off-chip counter block
// without the tree/MAC maintenance a legitimate increment performs. The
// minor wraps modulo 2^MinorBits, as its field holds no more bits. The
// next verification walk over the page finds the counter-block hash
// disagreeing with the tree.
func (c *Controller) TamperCounter(pfn layout.PFN, block int) error {
	if !c.counters.Has(pfn) {
		return fmt.Errorf("%w: no counter block for pfn %d", ErrNoTamperTarget, uint64(pfn))
	}
	blk := c.counters.Snapshot(pfn)
	blk.Minors[block&(config.BlocksPerPage-1)]++
	c.counters.Set(pfn, blk)
	return nil
}

// TamperLMM overwrites the Leaf-ID field of pfn's extended PTE with a
// forged slot — a software-level attack on the LMM. It returns the slot
// that was there, so tests can restore it. The forged slot misdirects the
// next verification walk, which fails against the (untampered) tree.
func (c *Controller) TamperLMM(pfn layout.PFN, forged core.SlotID) (core.SlotID, error) {
	if c.ivc == nil {
		return core.InvalidSlot, fmt.Errorf("%w: scheme has no LMM", ErrNoTamperTarget)
	}
	if forged == core.InvalidSlot {
		// The Leaf-ID field encodes InvalidSlot as "no entry": storing it
		// would delete the entry, not forge one.
		return core.InvalidSlot, fmt.Errorf("secmem: cannot forge %v", forged)
	}
	pm := c.pages.Get(pfn)
	if pm == nil || pm.lmm == 0 {
		return core.InvalidSlot, fmt.Errorf("%w: pfn %d has no LMM entry", ErrNoTamperTarget, uint64(pfn))
	}
	old, _ := pm.slot()
	pm.setSlot(forged)
	return old, nil
}
