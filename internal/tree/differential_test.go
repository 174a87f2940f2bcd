package tree

// Differential tests for the arena conversion: the seed revision backed
// Global and Forest with map-based SlotStores; this file resurrects that
// representation as a test-only shadow and drives shadow and arena with
// identical operation sequences, requiring equal roots, verify verdicts,
// and state digests at every step. Any divergence in materialization
// semantics (map presence vs has-flags), path arithmetic, or digest
// enumeration order shows up here before it can corrupt a persisted image.

import (
	"sort"
	"testing"

	"ivleague/internal/config"
	"ivleague/internal/crypto"
	"ivleague/internal/ctr"
	"ivleague/internal/layout"
	"ivleague/internal/rng"
)

// hasRoot reports whether the on-chip root table has an entry for tl.
func hasRoot(f *Forest, tl int) bool { return tl < len(f.rootSet) && f.rootSet[tl] }

// SlotStore is a sparse map from node key to the node's hash slots. Keys
// are caller-defined (the global tree and the TreeLing forest use different
// encodings). Absent nodes read as all-zero slots.
//
// It is the map-backed reference store the arena-backed Forest/Global
// replaced on the access path; the tests below replay the same operations
// through both and compare digests.
type SlotStore struct {
	arity int
	nodes map[uint64][]uint64
	zero  []uint64 // shared all-zero node, read-only
}

// NewSlotStore creates a store for nodes with the given arity.
func NewSlotStore(arity int) *SlotStore {
	return &SlotStore{arity: arity, nodes: make(map[uint64][]uint64), zero: make([]uint64, arity)}
}

// Arity returns the number of slots per node.
func (s *SlotStore) Arity() int { return s.arity }

// Slot returns the hash in (key, slot); zero if never set.
func (s *SlotStore) Slot(key uint64, slot int) uint64 {
	n := s.nodes[key]
	if n == nil {
		return 0
	}
	return n[slot]
}

// SetSlot stores a hash into (key, slot).
func (s *SlotStore) SetSlot(key uint64, slot int, h uint64) {
	n := s.nodes[key]
	if n == nil {
		n = make([]uint64, s.arity)
		s.nodes[key] = n
	}
	n[slot] = h
}

// NodeHash returns the hash of the whole node (over all its slots).
func (s *SlotStore) NodeHash(key uint64) uint64 {
	n := s.nodes[key]
	if n == nil {
		n = s.zero
	}
	return crypto.NodeHash(n...)
}

// Drop removes a node entirely.
func (s *SlotStore) Drop(key uint64) { delete(s.nodes, key) }

// Has reports whether a node is materialized.
func (s *SlotStore) Has(key uint64) bool { return s.nodes[key] != nil }

// Keys returns the materialized node keys in ascending order.
func (s *SlotStore) Keys() []uint64 {
	keys := make([]uint64, 0, len(s.nodes))
	for k := range s.nodes {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// Key encodes a forest node key (the map-backed shadow store's encoding).
func Key(tl, nodeIdx int) uint64 { return uint64(tl)<<24 | uint64(nodeIdx) }

// shadowGlobal is the seed's map-backed global BMT (functional parts only).
type shadowGlobal struct {
	lay   *layout.Layout
	store *SlotStore
	root  uint64
}

func newShadowGlobal(lay *layout.Layout) *shadowGlobal {
	g := &shadowGlobal{lay: lay, store: NewSlotStore(lay.Arity)}
	g.root = g.store.NodeHash(globalKey(lay.GlobalLevels, 0))
	return g
}

func (g *shadowGlobal) update(pfn layout.PFN, blk ctr.Block) {
	h := CounterBlockHash(pfn, blk)
	idx := uint64(pfn)
	for level := 1; level <= g.lay.GlobalLevels; level++ {
		slot := int(idx % uint64(g.lay.Arity))
		idx /= uint64(g.lay.Arity)
		key := globalKey(level, idx)
		g.store.SetSlot(key, slot, h)
		h = g.store.NodeHash(key)
	}
	g.root = h
}

func (g *shadowGlobal) verify(pfn layout.PFN, blk ctr.Block) bool {
	h := CounterBlockHash(pfn, blk)
	idx := uint64(pfn)
	for level := 1; level <= g.lay.GlobalLevels; level++ {
		slot := int(idx % uint64(g.lay.Arity))
		idx /= uint64(g.lay.Arity)
		key := globalKey(level, idx)
		if g.store.Slot(key, slot) != h {
			return false
		}
		h = g.store.NodeHash(key)
	}
	return h == g.root
}

func (g *shadowGlobal) digestImage() uint64 {
	var parts []uint64
	for _, key := range g.store.Keys() {
		parts = append(parts, key)
		for s := 0; s < g.store.Arity(); s++ {
			parts = append(parts, g.store.Slot(key, s))
		}
	}
	return crypto.NodeHash(parts...)
}

// shadowForest is the seed's map-backed TreeLing forest.
type shadowForest struct {
	lay   *layout.Layout
	store *SlotStore
	roots map[int]uint64
}

func newShadowForest(lay *layout.Layout) *shadowForest {
	return &shadowForest{lay: lay, store: NewSlotStore(lay.Arity), roots: map[int]uint64{}}
}

func (f *shadowForest) setSlot(tl, nodeIdx, slot int, h uint64) {
	f.store.SetSlot(Key(tl, nodeIdx), slot, h)
	cur := nodeIdx
	for {
		nh := f.store.NodeHash(Key(tl, cur))
		parent, pslot, ok := f.lay.Parent(cur)
		if !ok {
			f.roots[tl] = nh
			return
		}
		f.store.SetSlot(Key(tl, parent), pslot, nh)
		cur = parent
	}
}

func (f *shadowForest) verify(tl, nodeIdx, slot int, h uint64) bool {
	if f.store.Slot(Key(tl, nodeIdx), slot) != h {
		return false
	}
	cur := nodeIdx
	for {
		nh := f.store.NodeHash(Key(tl, cur))
		parent, pslot, ok := f.lay.Parent(cur)
		if !ok {
			return f.roots[tl] == nh
		}
		if f.store.Slot(Key(tl, parent), pslot) != nh {
			return false
		}
		cur = parent
	}
}

func (f *shadowForest) resetTreeLing(tl int) {
	for i := 0; i < f.lay.NodesPerTreeLing; i++ {
		f.store.Drop(Key(tl, i))
	}
	delete(f.roots, tl)
}

func (f *shadowForest) digestTreeLing(tl int) uint64 {
	var parts []uint64
	for i := 0; i < f.lay.NodesPerTreeLing; i++ {
		key := Key(tl, i)
		if !f.store.Has(key) {
			continue
		}
		parts = append(parts, uint64(i))
		for s := 0; s < f.store.Arity(); s++ {
			parts = append(parts, f.store.Slot(key, s))
		}
	}
	return crypto.NodeHash(parts...)
}

func diffCfg() *config.Config {
	cfg := config.Default()
	cfg.DRAM.SizeBytes = 256 << 20
	cfg.IvLeague.TreeLingCount = 32
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &cfg
}

func randBlock(r *rng.Source) ctr.Block {
	var b ctr.Block
	b.Major = r.Uint64n(1 << 20)
	for i := range b.Minors {
		b.Minors[i] = uint8(r.Uint64n(64))
	}
	return b
}

func TestGlobalArenaMatchesMapShadow(t *testing.T) {
	lay := layout.New(diffCfg())
	g := NewGlobal(lay)
	sh := newShadowGlobal(lay)
	r := rng.New(7).ForkString("tree-differential-global")

	if g.Root() != sh.root {
		t.Fatalf("empty roots differ: arena %#x shadow %#x", g.Root(), sh.root)
	}
	last := map[uint64]ctr.Block{}
	const pfnSpace = 4096
	for i := 0; i < 3000; i++ {
		pfn := layout.PFN(r.Uint64n(pfnSpace))
		blk := randBlock(r)
		g.Update(pfn, blk)
		sh.update(pfn, blk)
		last[uint64(pfn)] = blk
		if g.Root() != sh.root {
			t.Fatalf("op %d: roots diverged: arena %#x shadow %#x", i, g.Root(), sh.root)
		}
		if i%7 == 0 {
			p := layout.PFN(r.Uint64n(pfnSpace))
			blk, ok := last[uint64(p)]
			if !ok {
				continue
			}
			aerr := g.Verify(p, blk)
			if sok := sh.verify(p, blk); (aerr == nil) != sok {
				t.Fatalf("op %d: verify verdicts diverged for pfn %d: arena err %v, shadow ok %v", i, p, aerr, sok)
			}
			if aerr != nil {
				t.Fatalf("op %d: verify of freshly written pfn %d failed: %v", i, p, aerr)
			}
		}
	}
	if d, sd := g.DigestImage(), sh.digestImage(); d != sd {
		t.Fatalf("image digests diverged: arena %#x shadow %#x", d, sd)
	}

	// A stale block must fail verification identically on both sides.
	var pfn layout.PFN
	var blk ctr.Block
	for k, b := range last {
		pfn, blk = layout.PFN(k), b
		break
	}
	blk.Major++
	if err := g.Verify(pfn, blk); err == nil {
		t.Fatal("arena accepted a stale counter block")
	}
	if sh.verify(pfn, blk) {
		t.Fatal("shadow accepted a stale counter block")
	}

	// Crash-recovery: restore the image into a fresh tree and recover the
	// root; it must equal the shadow's root rebuilt the old way.
	img := g.Clone()
	g2 := NewGlobal(lay)
	g2.RestoreFrom(img)
	root, err := g2.RecoverRoot()
	if err != nil {
		t.Fatal(err)
	}
	if root != sh.root {
		t.Fatalf("recovered root %#x != shadow root %#x", root, sh.root)
	}
}

func TestForestArenaMatchesMapShadow(t *testing.T) {
	lay := layout.New(diffCfg())
	f := NewForest(lay)
	sh := newShadowForest(lay)
	r := rng.New(11).ForkString("tree-differential-forest")

	const tls = 8
	type site struct{ tl, node, slot int }
	last := map[site]uint64{}
	// Write into leaf-level nodes only: interior slots double as parent
	// links that rehash maintains, so scribbling on them directly would
	// build a torn image (which both representations reject identically —
	// but that is RecoverRoot's test, not this one's).
	leafOff, leafCnt := lay.LevelOffset(1), lay.LevelNodeCount(1)
	for i := 0; i < 4000; i++ {
		s := site{r.Intn(tls), leafOff + r.Intn(leafCnt), r.Intn(lay.Arity)}
		h := r.Uint64() | 1
		f.SetSlot(s.tl, s.node, s.slot, h)
		sh.setSlot(s.tl, s.node, s.slot, h)
		last[s] = h
		if f.Root(s.tl) != sh.roots[s.tl] {
			t.Fatalf("op %d: TreeLing %d roots diverged: arena %#x shadow %#x",
				i, s.tl, f.Root(s.tl), sh.roots[s.tl])
		}
		if i%5 == 0 {
			for s, h := range last {
				aerr := f.Verify(s.tl, s.node, s.slot, h)
				if sok := sh.verify(s.tl, s.node, s.slot, h); (aerr == nil) != sok {
					t.Fatalf("op %d: verify verdicts diverged at %+v: arena err %v, shadow ok %v", i, s, aerr, sok)
				}
				break // one spot check per round is enough
			}
		}
		if i%601 == 600 {
			tl := r.Intn(tls)
			f.ResetTreeLing(tl)
			sh.resetTreeLing(tl)
			for s := range last {
				if s.tl == tl {
					delete(last, s)
				}
			}
			if hasRoot(f, tl) {
				t.Fatalf("op %d: arena kept a root for reset TreeLing %d", i, tl)
			}
		}
	}
	for tl := 0; tl < tls; tl++ {
		if d, sd := f.DigestTreeLing(tl), sh.digestTreeLing(tl); d != sd {
			t.Fatalf("TreeLing %d digests diverged: arena %#x shadow %#x", tl, d, sd)
		}
		if f.Root(tl) != sh.roots[tl] {
			t.Fatalf("TreeLing %d final roots diverged", tl)
		}
	}

	// Crash-recovery parity: recovered roots must match the shadow's.
	img := f.Clone()
	f2 := NewForest(lay)
	f2.RestoreFrom(img)
	for tl := 0; tl < tls; tl++ {
		if err := f2.RecoverRoot(tl); err != nil {
			t.Fatal(err)
		}
		want, has := sh.roots[tl]
		if hasRoot(f2, tl) != has {
			t.Fatalf("TreeLing %d: recovered root presence %v, shadow %v", tl, hasRoot(f2, tl), has)
		}
		if has && f2.Root(tl) != want {
			t.Fatalf("TreeLing %d: recovered root %#x != shadow %#x", tl, f2.Root(tl), want)
		}
	}
}
