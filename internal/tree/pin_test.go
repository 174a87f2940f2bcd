package tree

// Pinned integrity verdicts: the exact error text every tamper class
// produces on Global and Forest, plus the recovered roots and image
// digests after the edits. The expectations were recorded before the two
// trees moved onto one storage type and must not change with it.

import (
	"fmt"
	"testing"

	"ivleague/internal/ctr"
	"ivleague/internal/layout"
)

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// pinGlobal builds a global tree over 24 pages spread across several
// leaf chunks and returns it with the counter store behind it.
func pinGlobal(lay *layout.Layout) (*Global, *ctr.Store) {
	g := NewGlobal(lay)
	s := ctr.NewStore(7)
	for i := 0; i < 24; i++ {
		p := layout.PFN(i * 97)
		s.Increment(p, i%4)
		g.Update(p, s.Snapshot(p))
	}
	return g, s
}

// pinForest fills leaf slots of TreeLings 0..3.
func pinForest(lay *layout.Layout) *Forest {
	f := NewForest(lay)
	for i := 0; i < 40; i++ {
		tl := i % 4
		leaf := lay.NodeIndex(1, (i*37)%lay.LevelNodeCount(1))
		f.SetSlot(tl, leaf, i%lay.Arity, uint64(0x1000+i))
	}
	return f
}

func TestIntegrityErrorsPinned(t *testing.T) {
	lay := testLayout()
	top := lay.GlobalLevels
	const pfn = layout.PFN(7 * 97)
	pathSlot := func(level int) int { return int(lay.GlobalNodeIndex(pfn, level-1) % uint64(lay.Arity)) }
	leaf := lay.NodeIndex(1, (5*37)%lay.LevelNodeCount(1)) // TreeLing 1, slot 5 holds 0x1005
	parent, pslot, _ := lay.Parent(leaf)

	cases := []struct {
		name string
		run  func() string
		want string
	}{
		{"global/stale-leaf", func() string {
			g, s := pinGlobal(lay)
			old := s.Snapshot(pfn)
			s.Increment(pfn, 0)
			g.Update(pfn, s.Snapshot(pfn))
			return fmt.Sprintf("%s | digest=%#x", errText(g.Verify(pfn, old)), g.DigestImage())
		}, "integrity: tree-node violation, level 1, node 84 slot 7, addr 0x10401500: stored slot disagrees with recomputed path hash | digest=0x61f1a813bd6df655"},
		{"global/interior", func() string {
			g, s := pinGlobal(lay)
			g.Corrupt(2, lay.GlobalNodeIndex(pfn, 2), pathSlot(2), 0x1234)
			_, rerr := g.RecoverRoot()
			return fmt.Sprintf("%s | %s | digest=%#x", errText(g.Verify(pfn, s.Snapshot(pfn))), errText(rerr), g.DigestImage())
		}, "integrity: tree-node violation, level 2, node 10 slot 4, addr 0x10480280: stored slot disagrees with recomputed path hash | integrity: torn-state violation, level 2, node 10 slot 4, addr 0x10480280: persisted parent link disagrees with child hash (torn image) | digest=0x4bc2b569c590dccd"},
		{"global/root", func() string {
			g, s := pinGlobal(lay)
			g.Corrupt(top, 0, (pathSlot(top)+1)%lay.Arity, 0x5678)
			verr := g.Verify(pfn, s.Snapshot(pfn))
			root, rerr := g.RecoverRoot()
			return fmt.Sprintf("%s | recovered=%#x %s | after=%s | digest=%#x", errText(verr), root, errText(rerr),
				errText(g.Verify(pfn, s.Snapshot(pfn))), g.DigestImage())
		}, "integrity: root violation, level 6, node 0, addr 0x10492480: top node disagrees with on-chip root | recovered=0x33f564291cc32721 <nil> | after=<nil> | digest=0x8a59c971692ef701"},
		{"global/torn", func() string {
			g, s := pinGlobal(lay)
			img := g.Clone()
			img.Corrupt(1, lay.GlobalNodeIndex(pfn, 1), pathSlot(1), 0x9abc)
			g2 := NewGlobal(lay)
			g2.RestoreFrom(img)
			root, rerr := g2.RecoverRoot()
			return fmt.Sprintf("%s | recovered=%#x %s | digest=%#x", errText(g2.Verify(pfn, s.Snapshot(pfn))), root, errText(rerr), g2.DigestImage())
		}, "integrity: tree-node violation, level 1, node 84 slot 7, addr 0x10401500: stored slot disagrees with recomputed path hash | recovered=0x0 integrity: torn-state violation, level 2, node 10 slot 4, addr 0x10480280: persisted parent link disagrees with child hash (torn image) | digest=0x33bb3cb5834b22b5"},
		{"global/torn-order", func() string {
			// Two torn links: the scan goes in (level, idx) order, so the
			// level-2 link of a high page is reported before the level-4
			// link of a low one.
			g, _ := pinGlobal(lay)
			hi := layout.PFN(23 * 97)
			g.Corrupt(4, lay.GlobalNodeIndex(0, 4), 0, 0x1111)
			g.Corrupt(2, lay.GlobalNodeIndex(hi, 2), int(lay.GlobalNodeIndex(hi, 1)%uint64(lay.Arity)), 0x2222)
			return fmt.Sprintf("%s | digest=%#x", errText(g.VerifyImage()), g.DigestImage())
		}, "integrity: torn-state violation, level 2, node 34 slot 6, addr 0x10480880: persisted parent link disagrees with child hash (torn image) | digest=0x25a91f743599d9ad"},
		{"global/clean-recover", func() string {
			g, s := pinGlobal(lay)
			g2 := NewGlobal(lay)
			g2.RestoreFrom(g.Clone())
			before := errText(g2.Verify(pfn, s.Snapshot(pfn)))
			root, rerr := g2.RecoverRoot()
			return fmt.Sprintf("%s | recovered=%#x same=%v %s | digest=%#x", before, root, root == g.Root(), errText(rerr), g2.DigestImage())
		}, "integrity: root violation, level 6, node 0, addr 0x10492480: top node disagrees with on-chip root | recovered=0x6c821358c8305b69 same=true <nil> | digest=0xc1b23bdf082e1c40"},
		{"forest/stale-leaf", func() string {
			f := pinForest(lay)
			return fmt.Sprintf("%s | digest=%#x", errText(f.Verify(1, leaf, 5, 0x1004)), f.DigestTreeLing(1))
		}, "integrity: tree-node violation, TreeLing 1, level 1, node 258 slot 5, addr 0x1049f780: stored slot disagrees with leaf hash | digest=0xbd9f061d0df25be8"},
		{"forest/interior", func() string {
			f := pinForest(lay)
			f.Corrupt(1, parent, pslot, 0xbad)
			verr := f.Verify(1, leaf, 5, 0x1005)
			return fmt.Sprintf("%s | %s | %s | digest=%#x", errText(verr), errText(f.VerifyTreeLing(1)),
				errText(f.RecoverRoot(1)), f.DigestTreeLing(1))
		}, "integrity: tree-node violation, TreeLing 1, level 2, node 32 slot 1, addr 0x1049bf00: stored slot disagrees with recomputed path hash | integrity: torn-state violation, TreeLing 1, level 3, node 3 slot 7, addr 0x1049b7c0: persisted parent link disagrees with child hash (torn image) | integrity: torn-state violation, TreeLing 1, level 3, node 3 slot 7, addr 0x1049b7c0: persisted parent link disagrees with child hash (torn image) | digest=0xca15c9d729574648"},
		{"forest/root", func() string {
			f := pinForest(lay)
			// Scribble on a top-node slot off the leaf's path, so every
			// link below the top still matches.
			p, onPath := leaf, 0
			for p != 0 {
				p, onPath, _ = lay.Parent(p)
			}
			f.Corrupt(1, 0, (onPath+1)%lay.Arity, 0x5678)
			verr := f.Verify(1, leaf, 5, 0x1005)
			rerr := f.RecoverRoot(1)
			return fmt.Sprintf("%s | %s has=%v root=%#x | after=%s | digest=%#x", errText(verr), errText(rerr),
				hasRoot(f, 1), f.Root(1), errText(f.Verify(1, leaf, 5, 0x1005)), f.DigestTreeLing(1))
		}, "integrity: root violation, TreeLing 1, level 4, node 0, addr 0x1049b700: top node disagrees with on-chip root | integrity: torn-state violation, TreeLing 1, level 4, node 0 slot 3, addr 0x1049b700: persisted parent link disagrees with child hash (torn image) has=true root=0x67389153a1b3e666 | after=integrity: root violation, TreeLing 1, level 4, node 0, addr 0x1049b700: top node disagrees with on-chip root | digest=0x33f9c0f794b07763"},
		{"forest/torn", func() string {
			f := pinForest(lay)
			img := f.Clone()
			img.Corrupt(2, lay.NodeIndex(2, 0), 3, 0x9abc)
			f2 := NewForest(lay)
			f2.RestoreFrom(img)
			var out string
			for tl := 0; tl < 4; tl++ {
				out += fmt.Sprintf("tl%d: %s has=%v root=%#x digest=%#x; ", tl, errText(f2.RecoverRoot(tl)),
					hasRoot(f2, tl), f2.Root(tl), f2.DigestTreeLing(tl))
			}
			return out
		}, "tl0: <nil> has=true root=0x2a9588060fa8f7c2 digest=0xfb182f4226b28a8d; tl1: <nil> has=true root=0x67389153a1b3e666 digest=0xbd9f061d0df25be8; tl2: integrity: torn-state violation, TreeLing 2, level 3, node 1 slot 0, addr 0x104a4980: persisted parent link disagrees with child hash (torn image) has=false root=0x0 digest=0x7a00236191359cc7; tl3: <nil> has=true root=0x2a557c907151f7c9 digest=0x33d3629365c3ad28; "},
		{"forest/untouched", func() string {
			f := pinForest(lay)
			return fmt.Sprintf("%s | %s | %s | has=%v digest=%#x", errText(f.Verify(9, leaf, 0, 0x5)),
				errText(f.Verify(9, leaf, 0, 0)), errText(f.RecoverRoot(9)), hasRoot(f, 9), f.DigestTreeLing(9))
		}, "integrity: tree-node violation, TreeLing 9, level 1, node 258 slot 0, addr 0x104e8980: stored slot disagrees with leaf hash | integrity: tree-node violation, TreeLing 9, level 2, node 32 slot 1, addr 0x104e5100: stored slot disagrees with recomputed path hash | <nil> | has=false digest=0xcbf29ce44fd0bfc1"},
	}
	for _, tc := range cases {
		if got := tc.run(); got != tc.want {
			t.Errorf("%s:\n got %s\nwant %s", tc.name, got, tc.want)
		}
	}
}
