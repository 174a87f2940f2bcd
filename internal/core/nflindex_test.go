package core

import (
	"testing"

	"ivleague/internal/config"
	"ivleague/internal/layout"
	"ivleague/internal/rng"
)

// scanOffering is the whole-space first-match scan the NFL lookup index
// replaced: the first entry, in region then entry order, tagged (tl, node)
// that offers slot. It is the reference the index is checked against.
func scanOffering(s *nflSpace, tl, node, slot int) *nflEntry {
	tag := packTag(tl, node)
	for _, r := range s.regions {
		for i := range r.entries {
			if r.entries[i].tag == tag && r.entries[i].avail&(1<<uint(slot)) != 0 {
				return &r.entries[i]
			}
		}
	}
	return nil
}

type offerKey struct {
	tag  int64
	slot int
}

// firstOffers answers scanOffering for every (tag, slot) in one pass over
// the space in the same order, keeping the first entry per key.
func firstOffers(s *nflSpace, arity int) map[offerKey]*nflEntry {
	out := map[offerKey]*nflEntry{}
	for _, r := range s.regions {
		for i := range r.entries {
			e := &r.entries[i]
			for slot := 0; slot < arity; slot++ {
				k := offerKey{e.tag, slot}
				if e.avail&(1<<uint(slot)) != 0 && out[k] == nil {
					out[k] = e
				}
			}
		}
	}
	return out
}

// leafLog records the out-of-band LMM updates of hotpage migration.
type leafLog map[layout.PFN]SlotID

func (l leafLog) UpdateLeaf(_ int, pfn layout.PFN, slot SlotID) { l[pfn] = slot }

// lookupStats counts what the exactness check saw.
type lookupStats struct {
	queries, offered, viaRepurposed, unoffered int
}

// checkLookupExact asks every space of every live domain about every slot
// of every node of the domain's TreeLings, plus one TreeLing the domain
// does not own, and requires the index to pick exactly the entry the
// whole-space scan picks (nil included).
func checkLookupExact(t *testing.T, c *Controller, st *lookupStats) {
	t.Helper()
	for _, id := range c.DomainIDs() {
		d := c.domains[id]
		tls := append([]int(nil), d.treelings...)
		for tl := 0; tl < len(c.tlDom); tl++ {
			if !c.ownsTL(d, tl) {
				tls = append(tls, tl)
				break
			}
		}
		for _, s := range []*nflSpace{d.space, d.hotSpace} {
			if s == nil {
				continue
			}
			want := firstOffers(s, c.arity)
			for _, tl := range tls {
				for node := 0; node < c.nodesPerTL; node++ {
					for slot := 0; slot < c.arity; slot++ {
						w := want[offerKey{packTag(tl, node), slot}]
						got := s.offering(tl, node, slot)
						if got != w {
							t.Fatalf("domain %d: offering(τ%d,n%d,s%d) = %+v, whole-space scan = %+v",
								id, tl, node, slot, got, w)
						}
						st.queries++
						switch {
						case w == nil:
							st.unoffered++
						case s.idx.offset[node] < 0 || s.regionOf(tl) == nil || w != &s.regionOf(tl).entries[s.idx.offset[node]]:
							st.viaRepurposed++
						default:
							st.offered++
						}
					}
				}
			}
		}
	}
}

// The NFL lookup index must be exact: randomized map, unmap, hotpage
// migration, crash-recovery and domain-recycling sequences under Invert
// and Pro, with the lookup compared against the whole-space scan after
// every call. The churn makes release repurpose entries, so offers that
// only the repurposed list can find are exercised (the check counts them).
func TestNFLLookupMatchesScan(t *testing.T) {
	for _, tc := range []struct {
		name string
		mode Mode
	}{{"invert", ModeInvert}, {"pro", ModePro}} {
		mode := tc.mode
		t.Run(tc.name, func(t *testing.T) {
			cfg := config.Default()
			cfg.IvLeague.TreeLingHeight = 3 // 73 nodes, 512 pages per TreeLing
			cfg.IvLeague.TreeLingCount = 24
			cfg.DRAM.SizeBytes = 24 * cfg.TreeLingBytes()
			cfg.IvLeague.HotThreshold = 2
			cfg.IvLeague.HotRegionPagesLog2 = 0
			cfg.IvLeague.HotClearInterval = 64
			cfg.IvLeague.HotRegionLeaves = 1
			if err := cfg.Validate(); err != nil {
				t.Fatal(err)
			}
			lay := layout.New(&cfg)
			c := mustCtrl(t)(NewController(&cfg, lay, mode, nil))
			leaves := leafLog{}
			c.SetLeafUpdater(leaves)
			owner := map[layout.PFN]int{}
			var mapped []layout.PFN
			nextPFN := layout.PFN(0)
			var ops OpList
			r := rng.New(7)
			var st lookupStats
			var conversions, migrations, back uint64
			tally := func() {
				conversions += c.Conversions.Value()
				migrations += c.Migrations.Value()
				back += c.MigrationsBack.Value()
			}
			for _, id := range []int{1, 2} {
				if _, err := c.CreateDomain(id); err != nil {
					t.Fatal(err)
				}
			}
			// current resolves a page's effective slot the way secmem does:
			// the LMM value, chased through ρ-converted parent slots.
			current := func(pfn layout.PFN) SlotID {
				s, _ := c.Resolve(owner[pfn], leaves[pfn])
				leaves[pfn] = s
				return s
			}
			unmap := func(i int) {
				pfn := mapped[i]
				if err := c.FreePage(owner[pfn], pfn, current(pfn), &ops); err != nil {
					t.Fatal(err)
				}
				mapped[i] = mapped[len(mapped)-1]
				mapped = mapped[:len(mapped)-1]
				delete(owner, pfn)
				delete(leaves, pfn)
			}
			for step := 0; step < 4000; step++ {
				ops.Reset()
				switch op := r.Intn(100); {
				case op < 40 || len(mapped) < 16:
					dom := 1 + r.Intn(2)
					s, err := c.AllocPage(dom, nextPFN, &ops)
					if err != nil {
						t.Fatalf("step %d: alloc: %v", step, err)
					}
					owner[nextPFN], leaves[nextPFN] = dom, s
					mapped = append(mapped, nextPFN)
					nextPFN++
				case op < 60:
					unmap(r.Intn(len(mapped)))
				case op < 98:
					// Accesses concentrate on a few pages so they turn hot,
					// migrate into τhot and, once cold, back out.
					pfn := mapped[r.Intn(len(mapped))%32]
					if ns, migrated := c.OnAccess(owner[pfn], pfn, current(pfn), &ops); migrated {
						leaves[pfn] = ns
					}
				case op < 99:
					img, err := c.Persist()
					if err != nil {
						t.Fatal(err)
					}
					tally()
					c = mustCtrl(t)(NewController(&cfg, lay, mode, nil))
					if err := c.Restore(img); err != nil {
						t.Fatal(err)
					}
					c.SetLeafUpdater(leaves)
				default:
					// Recycle domain 2's TreeLings: the shared region table
					// keeps stale entries for them.
					for i := len(mapped) - 1; i >= 0; i-- {
						if owner[mapped[i]] == 2 {
							unmap(i)
						}
					}
					if err := c.DestroyDomain(2, &ops); err != nil {
						t.Fatal(err)
					}
					if _, err := c.CreateDomain(2); err != nil {
						t.Fatal(err)
					}
				}
				if err := c.CheckNFLUnique(); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				checkLookupExact(t, c, &st)
			}
			tally()
			t.Logf("%+v; %d conversions, %d migrations, %d back", st, conversions, migrations, back)
			if st.viaRepurposed == 0 || st.unoffered == 0 || st.offered == 0 || conversions == 0 {
				t.Fatalf("sequence did not cover conversions and canonical, repurposed and absent offers: %+v", st)
			}
			if mode == ModePro && back == 0 {
				t.Fatal("sequence never migrated a page back out of τhot")
			}
		})
	}
}

// CheckNFLUnique must flag a slot offered by two entries, including one in
// the regular and one in the τhot space.
func TestCheckNFLUniqueFlagsDuplicateOffer(t *testing.T) {
	c, _ := newCtrl(t, ModePro, false)
	if _, err := c.CreateDomain(1); err != nil {
		t.Fatal(err)
	}
	var ops OpList
	if _, err := c.AllocPage(1, 0, &ops); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckNFLUnique(); err != nil {
		t.Fatalf("fresh domain: %v", err)
	}
	d := c.domains[1]
	hot := d.hotSpace.regions[0]
	tl, node := unpackTag(hot.entries[0].tag)
	// Offer the hot node's free slot 0 a second time, from a regular entry.
	d.space.regions[0].entries[0] = nflEntry{tag: packTag(tl, node), avail: 1}
	if err := c.CheckNFLUnique(); err == nil {
		t.Fatalf("duplicate offer of τ%d n%d s0 not flagged", tl, node)
	}
}
