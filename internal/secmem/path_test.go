package secmem

import (
	"fmt"
	"reflect"
	"testing"

	"ivleague/internal/config"
	"ivleague/internal/core"
	"ivleague/internal/layout"
	"ivleague/internal/rng"
)

// referencePathNodes is the TreeLing path code the cursor replaced
// (core.(*Controller).PathNodes), kept verbatim: the slot's node, then its
// ancestors up to and including the TreeLing root, top-down indices.
func referencePathNodes(lay *layout.Layout, slot core.SlotID, buf []int) []int {
	node := slot.Node()
	buf = append(buf, node)
	for {
		p, _, ok := lay.Parent(node)
		if !ok {
			return buf
		}
		buf = append(buf, p)
		node = p
	}
}

// referencePathAddrs computes pfn's verification path the way the walk
// did before the cursor: PathNodes plus TreeLingNodeAddr under IvLeague,
// and the per-level GlobalNodeIndex/GlobalNodeAddr loop to GlobalLevels
// (or partLevel) under the global tree. The IvLeague slot is the one the
// next access resolves the page's LMM entry to.
func referencePathAddrs(c *Controller, pfn layout.PFN) ([]uint64, error) {
	var addrs []uint64
	switch {
	case c.ivc != nil:
		dom, _, ok := c.Owner(pfn)
		slot, hasSlot := c.SlotOf(pfn)
		if !ok || !hasSlot {
			return nil, fmt.Errorf("pfn %d not mapped", uint64(pfn))
		}
		if rs, changed := c.ivc.Resolve(dom, slot); changed {
			slot = rs
		}
		tl := slot.TreeLing()
		for _, node := range referencePathNodes(c.lay, slot, nil) {
			a, err := c.lay.TreeLingNodeAddr(tl, node)
			if err != nil {
				return nil, err
			}
			addrs = append(addrs, a)
		}
	default:
		top := c.lay.GlobalLevels
		if c.scheme == config.SchemeStaticPartition {
			top = c.partLevel // the partition's subtree root is on-chip
		}
		for level := 1; level <= top; level++ {
			idx := c.lay.GlobalNodeIndex(pfn, level)
			a, err := c.lay.GlobalNodeAddr(level, idx)
			if err != nil {
				return nil, err
			}
			addrs = append(addrs, a)
		}
	}
	return addrs, nil
}

// TestPathAddrsMatchReference drives every scheme through a random
// sequence of maps, unmaps, reads and writes, skewed so that Invert
// converts slots and Pro migrates hot pages, and compares PathAddrs with
// the reference for every mapped page at checkpoints along the way. Under
// every scheme but Pro it also checks that a read with cold metadata
// caches walks exactly the PathAddrs nodes.
func TestPathAddrsMatchReference(t *testing.T) {
	schemes := append(append([]config.Scheme(nil), allSchemes...), config.SchemeBVv1, config.SchemeBVv2)
	for _, scheme := range schemes {
		t.Run(scheme.String(), func(t *testing.T) {
			cfg := testCfg()
			cfg.IvLeague.HotThreshold = 4 // migrate within a short sequence
			c, err := New(&cfg, scheme, 8)
			if err != nil {
				t.Fatal(err)
			}
			const (
				domains = 3
				pool    = 384 // frames per domain
				steps   = 6000
			)
			var frames []layout.PFN
			for d := 1; d <= domains; d++ {
				if err := c.CreateDomain(d); err != nil {
					t.Fatal(err)
				}
				lo, _ := c.PartitionRange(d)
				for i := 0; i < pool; i++ {
					frames = append(frames, lo+layout.PFN((d-1)*pool+i))
				}
			}
			mapped := make([]bool, len(frames))
			check := func(step int) {
				t.Helper()
				for i, pfn := range frames {
					if !mapped[i] {
						continue
					}
					got, err := c.PathAddrs(pfn)
					if err != nil {
						t.Fatalf("step %d: PathAddrs(%d): %v", step, pfn, err)
					}
					want, err := referencePathAddrs(c, pfn)
					if err != nil {
						t.Fatalf("step %d: reference(%d): %v", step, pfn, err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("step %d: pfn %d path %#x, reference %#x", step, pfn, got, want)
					}
				}
			}
			r := rng.New(uint64(scheme) + 1)
			now := uint64(0)
			for step := 1; step <= steps; step++ {
				d := 1 + r.Intn(domains)
				i := r.Intn(pool)
				if r.Bool(0.5) {
					i = r.Intn(8) // the hot pages
				}
				vpn := layout.VPN(i)
				k := (d-1)*pool + i
				pfn := frames[k]
				switch {
				case !mapped[k]:
					if _, err := c.OnPageMap(now, d, vpn, pfn); err != nil {
						continue // a scheme out of TreeLings rejects the map
					}
					mapped[k] = true
				case r.Bool(0.02):
					if _, err := c.OnPageUnmap(now, d, vpn, pfn); err != nil {
						t.Fatalf("step %d: unmap: %v", step, err)
					}
					mapped[k] = false
				default:
					res, err := c.Do(AccessRequest{Now: now, Domain: d, VPN: vpn, PFN: pfn,
						Block: r.Intn(config.BlocksPerPage), Write: r.Bool(0.5)})
					if err != nil {
						t.Fatalf("step %d: access: %v", step, err)
					}
					now += uint64(res.Latency)
				}
				if step%500 == 0 {
					check(step)
				}
			}
			if ivc := c.IvLeague(); ivc != nil {
				if scheme == config.SchemeIvLeagueInvert && ivc.Conversions.Value() == 0 {
					t.Fatal("the sequence converted no Invert slot")
				}
				if scheme == config.SchemeIvLeaguePro && ivc.Migrations.Value() == 0 {
					t.Fatal("the sequence migrated no Pro page")
				}
			}
			if scheme == config.SchemeIvLeaguePro {
				return // an access may migrate the page before its walk
			}
			for k, pfn := range frames {
				if !mapped[k] || k%17 != 0 {
					continue
				}
				path, err := c.PathAddrs(pfn)
				if err != nil {
					t.Fatal(err)
				}
				c.FlushMetadata()
				misses := c.TreeCache().Misses.Value()
				d := 1 + k/pool
				if _, err := c.Do(AccessRequest{Now: now, Domain: d, VPN: layout.VPN(k % pool), PFN: pfn}); err != nil {
					t.Fatal(err)
				}
				if n := c.TreeCache().Misses.Value() - misses; n != uint64(len(path)) {
					t.Fatalf("cold walk of pfn %d read %d nodes, PathAddrs has %d", pfn, n, len(path))
				}
				for _, a := range path {
					if !c.TreeCache().Probe(a) {
						t.Fatalf("cold walk of pfn %d skipped path node %#x", pfn, a)
					}
				}
			}
		})
	}
}

// TestPathCursorEndsAtRoot: a leaf slot's path climbs one level per node,
// each node the previous one's parent, and ends at the TreeLing root.
func TestPathCursorEndsAtRoot(t *testing.T) {
	c := newCtl(t, config.SchemeIvLeagueBasic, false)
	lay := c.Layout()
	s := core.MakeSlot(3, lay.NodeIndex(1, 100), 2)
	var path []int
	for p := c.path(0, s); p.level <= p.top; p.next() {
		if p.level != len(path)+1 || p.tl != 3 {
			t.Fatalf("node %d at level %d of TreeLing %d", len(path), p.level, p.tl)
		}
		path = append(path, int(p.node))
	}
	if len(path) != lay.TreeLingHeight {
		t.Fatalf("path length %d, want %d", len(path), lay.TreeLingHeight)
	}
	if path[len(path)-1] != 0 {
		t.Fatal("path does not end at the TreeLing root")
	}
	for i := 0; i+1 < len(path); i++ {
		p, _, ok := lay.Parent(path[i])
		if !ok || p != path[i+1] {
			t.Fatal("path nodes not parent-linked")
		}
	}
}
