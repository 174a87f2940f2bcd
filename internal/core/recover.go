package core

import (
	"errors"
	"fmt"
	"io"
	"sort"

	"ivleague/internal/layout"
	"ivleague/internal/stats"
)

// This file implements the crash model's view of the domain controller.
//
// Persisted (in-memory, survives a crash): the Assignment Table records
// (which TreeLings belong to which domain, per-TreeLing parent/occupied
// bitmaps, leak accounting), the NFL block contents of every region, the
// hot-page slot table (LMM truth for migrated pages) and the mapped-page
// counts. Volatile (on-chip, lost at a crash): the NFL head registers
// (frontier), the NFLB, the hot tracker and its FIFO, and the unassigned
// FIFO order. Restore rebuilds each volatile structure from the persisted
// image alone, Phoenix-style: the frontier by scanning for the first NFL
// block with availability, the NFLB and tracker cold, and the unassigned
// set as the complement of all assignments.

// ErrRecoveryUnsupported marks modes outside the paper's three schemes
// (the BV ablations keep allocation state the image does not cover).
var ErrRecoveryUnsupported = errors.New("core: crash recovery unsupported for this mode")

// Image is the persisted state of the domain controller at a crash point.
type Image struct {
	mode    Mode
	domains []domainImage
}

type domainImage struct {
	id        int
	treelings []int
	meta      map[int]*tlMeta
	space     *spaceImage
	hotSpace  *spaceImage
	hotPages  map[layout.PFN]SlotID
	mapped    uint64
}

type spaceImage struct {
	epb     int
	regions []*nflRegion
}

func cloneSpace(s *nflSpace) *spaceImage {
	if s == nil {
		return nil
	}
	img := &spaceImage{epb: s.epb}
	for _, r := range s.regions {
		cp := &nflRegion{
			tl:        r.tl,
			entries:   append([]nflEntry(nil), r.entries...),
			nBlocks:   r.nBlocks,
			blockBase: r.blockBase,
		}
		img.regions = append(img.regions, cp)
	}
	return img
}

// restore rebuilds a live space from the image. The lookup index is
// derived state the image does not carry: pushRegion re-indexes each
// region, and every entry whose tag differs from the canonical one
// addRegion wrote there is listed as repurposed.
func (img *spaceImage) restore(idx *nflIndex) *nflSpace {
	s := newNFLSpace(img.epb, idx)
	for _, ir := range img.regions {
		r := s.pushRegion(ir.tl, append([]nflEntry(nil), ir.entries...), ir.blockBase)
		for i, e := range r.entries {
			if e.tag != idx.canonicalTag(r.tl, i) {
				s.noteRepurposed(r, i)
			}
		}
	}
	s.scanFrontier()
	return s
}

// scanFrontier rebuilds the head register from the block contents: the
// first block (in region order) with any availability. The live register
// may lag one full block behind this (advance is lazy), which is
// behaviorally equivalent for allocation; StateDigest canonicalizes the
// frontier the same way so recovered and live state compare equal.
func (s *nflSpace) scanFrontier() {
	for ri, r := range s.regions {
		for b := 0; b < r.nBlocks; b++ {
			for _, e := range s.block(r, b) {
				if e.avail != 0 {
					s.fRegion, s.fBlock = ri, b
					return
				}
			}
		}
	}
	s.fRegion, s.fBlock = len(s.regions), 0
}

// canonicalFrontier returns the scan-derived frontier as a flat block
// ordinal (or the total block count when exhausted), the digest's
// canonical form of the head register.
func (s *nflSpace) canonicalFrontier() int {
	flat := 0
	for _, r := range s.regions {
		for b := 0; b < r.nBlocks; b++ {
			for _, e := range s.block(r, b) {
				if e.avail != 0 {
					return flat
				}
			}
			flat++
		}
	}
	return flat
}

// Persist captures the controller's persisted state. The BV ablation
// modes are out of scope (ErrRecoveryUnsupported).
func (c *Controller) Persist() (*Image, error) {
	if c.mode != ModeBasic && c.mode != ModeInvert && c.mode != ModePro {
		return nil, fmt.Errorf("%w: mode %d", ErrRecoveryUnsupported, c.mode)
	}
	img := &Image{mode: c.mode}
	for _, id := range stats.SortedKeys(c.domains) {
		d := c.domains[id]
		di := domainImage{
			id:        id,
			treelings: append([]int(nil), d.treelings...),
			meta:      make(map[int]*tlMeta, len(d.treelings)),
			space:     cloneSpace(d.space),
			hotSpace:  cloneSpace(d.hotSpace),
			mapped:    d.mapped,
		}
		for _, tl := range d.treelings {
			di.meta[tl] = &tlMeta{
				parent:   append([]uint8(nil), c.parentOf(tl)...),
				occupied: append([]uint8(nil), c.occupiedOf(tl)...),
				leaked:   int(c.leakCount[tl]),
			}
		}
		if d.hotPages != nil {
			di.hotPages = make(map[layout.PFN]SlotID, d.hotPages.n())
			d.hotPages.forEach(func(pfn layout.PFN, s SlotID) {
				di.hotPages[pfn] = s
			})
		}
		img.domains = append(img.domains, di)
	}
	return img, nil
}

// Restore rebuilds the controller's state from a persisted image: deep
// copies of the persisted structures, cold on-chip state (fresh NFLB and
// hot tracker, scan-derived frontier), and the unassigned FIFO recomputed
// as the sorted complement of every domain's assignments.
func (c *Controller) Restore(img *Image) error {
	if img.mode != c.mode {
		return fmt.Errorf("core: image mode %d does not match controller mode %d", img.mode, c.mode)
	}
	assigned := make([]bool, c.lay.TreeLingCount)
	c.domains = make(map[int]*Domain, len(img.domains))
	for i := range c.tlDom {
		c.tlDom[i] = -1
		c.leakCount[i] = 0
		c.bvStates[i] = nil
	}
	for i := range c.parentBits {
		c.parentBits[i] = 0
	}
	for i := range c.occBits {
		c.occBits[i] = 0
	}
	for _, di := range img.domains {
		d := &Domain{
			id:        di.id,
			treelings: append([]int(nil), di.treelings...),
			space:     di.space.restore(c.nfl),
			nflb:      newNFLB(c.cfg.NFLBEntries),
			mapped:    di.mapped,
		}
		for _, tl := range di.treelings {
			if tl < 0 || tl >= c.lay.TreeLingCount || assigned[tl] {
				return fmt.Errorf("core: image assigns TreeLing %d twice or out of range", tl)
			}
			assigned[tl] = true
			m := di.meta[tl]
			if m == nil {
				return fmt.Errorf("core: image misses metadata for TreeLing %d", tl)
			}
			c.tlDom[tl] = di.id
			copy(c.parentOf(tl), m.parent)
			copy(c.occupiedOf(tl), m.occupied)
			c.leakCount[tl] = int32(m.leaked)
		}
		if c.mode == ModePro {
			if di.hotSpace == nil {
				return fmt.Errorf("core: Pro image misses the hot NFL of domain %d", di.id)
			}
			d.hotSpace = di.hotSpace.restore(c.hotNFL)
			d.hot = newHotTracker(c.cfg.HotTrackerEntries, c.cfg.HotCounterBits, c.cfg.HotThreshold, c.cfg.HotClearInterval)
			d.hotPages = newHotPageTable()
			// The migration FIFO is on-chip and lost; rebuild it in a
			// canonical (ascending pfn) order from the persisted slots.
			for _, pfn := range stats.SortedKeys(di.hotPages) {
				d.hotPages.set(pfn, di.hotPages[pfn])
				d.hotOrder = append(d.hotOrder, pfn)
			}
		}
		c.domains[di.id] = d
	}
	c.unassigned = c.unassigned[:0]
	for tl := 0; tl < c.lay.TreeLingCount; tl++ {
		if !assigned[tl] {
			c.unassigned = append(c.unassigned, tl)
		}
	}
	c.fifoHead = 0
	return nil
}

// WriteStateDigest writes a canonical dump of the controller's persisted
// and architectural state — assignments, NFL entries with canonical
// frontier, parent/occupied metadata, hot-page slots — excluding
// everything volatile or statistical (NFLB, hot tracker, FIFO order,
// counters). Two controllers in equivalent states produce identical
// bytes, which is the crash-recovery equality check.
func (c *Controller) WriteStateDigest(w io.Writer) {
	fmt.Fprintf(w, "core mode=%d\n", c.mode)
	un := append([]int(nil), c.unassigned[c.fifoHead:]...)
	sort.Ints(un)
	fmt.Fprintf(w, "unassigned=%v\n", un)
	for _, id := range stats.SortedKeys(c.domains) {
		d := c.domains[id]
		fmt.Fprintf(w, "domain %d treelings=%v mapped=%d\n", id, d.treelings, d.mapped)
		for _, tl := range d.treelings {
			fmt.Fprintf(w, " tl %d leaked=%d parent=%x occupied=%x\n", tl, c.leakCount[tl], c.parentOf(tl), c.occupiedOf(tl))
		}
		writeSpaceDigest(w, "nfl", d.space)
		writeSpaceDigest(w, "hotnfl", d.hotSpace)
		if d.hotPages != nil {
			d.hotPages.forEach(func(pfn layout.PFN, s SlotID) {
				fmt.Fprintf(w, " hotpage %d slot=%x\n", uint64(pfn), uint64(s))
			})
		}
	}
}

func writeSpaceDigest(w io.Writer, name string, s *nflSpace) {
	if s == nil {
		return
	}
	fmt.Fprintf(w, " %s frontier=%d\n", name, s.canonicalFrontier())
	for _, r := range s.regions {
		fmt.Fprintf(w, "  region tl=%d base=%d blocks=%d entries=", r.tl, r.blockBase, r.nBlocks)
		for _, e := range r.entries {
			fmt.Fprintf(w, "%d:%x,", e.tag, e.avail)
		}
		fmt.Fprintln(w)
	}
}
