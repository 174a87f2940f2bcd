package core

import (
	"fmt"
	"io"
	"math/bits"

	"ivleague/internal/stats"
)

// WriteVolatileDigest writes a canonical dump of the controller state that
// WriteStateDigest deliberately excludes but that still steers future
// behaviour: the Unassigned-TreeLing FIFO in pop order (the next
// assignment's identity), the raw NFL frontier registers (which block the
// next allocation scans), the NFLB contents (which NFL reads are elided),
// and the Pro hotpage machinery (tracker entries, the migration rate
// limiter, τhot residency order). Two controllers with identical state
// digests AND identical volatile digests are behaviourally equivalent for
// every future operation sequence — the property the model checker's state
// fingerprinting relies on. Pure statistics and replacement ticks stay
// excluded.
func (c *Controller) WriteVolatileDigest(w io.Writer) {
	fmt.Fprintf(w, "vol mode=%d fifo=%v\n", c.mode, c.unassigned[c.fifoHead:])
	for _, id := range stats.SortedKeys(c.domains) {
		d := c.domains[id]
		fmt.Fprintf(w, "vol domain %d bvcur=%d sincemig=%d hotorder=%v\n",
			id, d.bvCur, d.sinceMig, d.hotOrder[d.hotHead:])
		writeSpaceFrontier(w, "nfl", d.space)
		writeSpaceFrontier(w, "hotnfl", d.hotSpace)
		for _, e := range d.nflb.entries {
			if e.valid {
				fmt.Fprintf(w, " nflb tl=%d block=%d dirty=%t\n", e.tl, e.block, e.dirty)
			}
		}
		if d.hot != nil {
			fmt.Fprintf(w, " tracker accesses=%d entries=", d.hot.accesses)
			for _, e := range d.hot.entries {
				fmt.Fprintf(w, "%d:%d:%t,", e.pfn, e.count, e.valid)
			}
			fmt.Fprintln(w)
		}
	}
}

func writeSpaceFrontier(w io.Writer, name string, s *nflSpace) {
	if s == nil {
		return
	}
	fmt.Fprintf(w, " %s head=%d,%d\n", name, s.fRegion, s.fBlock)
}

// CheckNFLUnique verifies that no (TreeLing, node, slot) is offered by
// more than one NFL entry of a domain, across its regular and τhot spaces.
// The NFL lookup index relies on it: a lookup returns the first entry it
// finds offering a slot, which is then the entry a scan of the whole
// space would pick. It returns an error naming the first duplicate.
func (c *Controller) CheckNFLUnique() error {
	type offer struct {
		tag  int64
		slot int
	}
	for _, id := range stats.SortedKeys(c.domains) {
		d := c.domains[id]
		seen := make(map[offer]bool)
		for _, s := range []*nflSpace{d.space, d.hotSpace} {
			if s == nil {
				continue
			}
			for _, r := range s.regions {
				for _, e := range r.entries {
					for a := e.avail; a != 0; a &= a - 1 {
						o := offer{e.tag, bits.TrailingZeros8(a)}
						if seen[o] {
							tl, node := unpackTag(e.tag)
							return fmt.Errorf("core: domain %d: slot %d of node %d in TreeLing %d is offered by two NFL entries",
								id, o.slot, node, tl)
						}
						seen[o] = true
					}
				}
			}
		}
	}
	return nil
}
