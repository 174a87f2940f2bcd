// Package tree implements the functional integrity-tree substrate: the
// global Bonsai Merkle Tree used by the Baseline scheme and the hash
// forest the IvLeague TreeLings live in, both backed by dense slot arenas
// addressed with (TreeLing, node, slot) / (level, index, slot) arithmetic.
// The differential tests shadow the arenas against a map-backed reference
// store.
//
// The functional layer maintains real (non-cryptographic but strongly
// mixing) hashes so that tamper-detection semantics can be tested
// end-to-end; the performance simulator charges tree-walk *timing* through
// the cache/DRAM models and only touches this layer when functional mode
// is enabled.
package tree

import (
	"ivleague/internal/crypto"
	"ivleague/internal/ctr"
	"ivleague/internal/layout"
	"ivleague/internal/stats"
	"ivleague/internal/telemetry"
)

// CounterBlockHash hashes a counter block's contents together with its
// page frame number (binding position, preventing splicing).
func CounterBlockHash(pfn layout.PFN, b ctr.Block) uint64 {
	parts := make([]uint64, 0, 2+len(b.Minors)/8)
	parts = append(parts, uint64(pfn), b.Major)
	var acc uint64
	for i, m := range b.Minors {
		acc = acc<<8 | uint64(m)
		if i%8 == 7 {
			parts = append(parts, acc)
			acc = 0
		}
	}
	return crypto.NodeHash(parts...)
}

// gchunkShift sizes the global tree's node chunks: 64 nodes per chunk keeps
// lazy materialization (only touched verification paths cost memory) while
// a chunk's slots stay one dense array.
const (
	gchunkShift = 6
	gchunkNodes = 1 << gchunkShift
	gchunkMask  = gchunkNodes - 1
)

// gchunk is one run of gchunkNodes consecutive nodes of one global-tree
// level: a dense slot array plus per-node materialization flags. Absent
// and dropped nodes keep all-zero slots, so reads never need the flag.
type gchunk struct {
	slots []uint64 // gchunkNodes * arity
	has   []bool
}

// Global is the functional global Bonsai Merkle Tree of the Baseline
// scheme: statically addressed, built over every page's counter block,
// with the single root held on-chip. Node storage is a per-level chunked
// arena indexed by (level, index, slot) arithmetic.
type Global struct {
	lay    *layout.Layout
	arity  int
	levels [][]*gchunk // [level][chunk]; level 0 unused
	zero   []uint64    // shared all-zero node, read-only
	root   uint64      // on-chip root hash

	// Functional-layer statistics (leaf updates and verifications).
	Updates  stats.Counter
	Verifies stats.Counter
}

// RegisterMetrics registers the tree's functional counters.
func (g *Global) RegisterMetrics(r *telemetry.Registry, prefix string) {
	r.RegisterCounter(prefix+".updates", &g.Updates)
	r.RegisterCounter(prefix+".verifies", &g.Verifies)
}

// NewGlobal creates the functional global tree for a layout.
func NewGlobal(lay *layout.Layout) *Global {
	g := &Global{
		lay:    lay,
		arity:  lay.Arity,
		levels: make([][]*gchunk, lay.GlobalLevels+1),
		zero:   make([]uint64, lay.Arity),
	}
	g.root = g.levelNodeHash(g.lay.GlobalLevels, 0)
	return g
}

func globalKey(level int, idx uint64) uint64 {
	return uint64(level)<<56 | idx
}

// peek returns the chunk holding (level, idx), or nil if untouched.
func (g *Global) peek(level int, idx uint64) *gchunk {
	ci := int(idx >> gchunkShift)
	lv := g.levels[level]
	if ci >= len(lv) {
		return nil
	}
	return lv[ci]
}

// ensure returns the chunk holding (level, idx), materializing it.
func (g *Global) ensure(level int, idx uint64) *gchunk {
	ci := int(idx >> gchunkShift)
	for len(g.levels[level]) <= ci {
		//ivlint:allow hotalloc — lazy chunk-directory growth: bounded by the tree geometry, quiesces after warmup
		g.levels[level] = append(g.levels[level], nil)
	}
	if g.levels[level][ci] == nil {
		g.levels[level][ci] = &gchunk{
			slots: make([]uint64, gchunkNodes*g.arity),
			has:   make([]bool, gchunkNodes),
		}
	}
	return g.levels[level][ci]
}

func (g *Global) slot(level int, idx uint64, slot int) uint64 {
	c := g.peek(level, idx)
	if c == nil {
		return 0
	}
	return c.slots[int(idx&gchunkMask)*g.arity+slot]
}

func (g *Global) setSlot(level int, idx uint64, slot int, h uint64) {
	c := g.ensure(level, idx)
	c.has[idx&gchunkMask] = true
	c.slots[int(idx&gchunkMask)*g.arity+slot] = h
}

func (g *Global) levelNodeHash(level int, idx uint64) uint64 {
	c := g.peek(level, idx)
	if c == nil {
		return crypto.NodeHash(g.zero...)
	}
	off := int(idx&gchunkMask) * g.arity
	return crypto.NodeHash(c.slots[off : off+g.arity]...)
}

// Update recomputes the verification path of page pfn after its counter
// block changed, ending with a new on-chip root.
//
//ivlint:hotpath
func (g *Global) Update(pfn layout.PFN, blk ctr.Block) {
	g.Updates.Inc()
	h := CounterBlockHash(pfn, blk)
	idx := uint64(pfn)
	for level := 1; level <= g.lay.GlobalLevels; level++ {
		slot := int(idx % uint64(g.lay.Arity))
		idx /= uint64(g.lay.Arity)
		g.setSlot(level, idx, slot, h)
		h = g.levelNodeHash(level, idx)
	}
	g.root = h
}

// Verify walks page pfn's path from leaf to root and reports whether every
// link matches, i.e. whether the counter block (and hence the data it
// authenticates) is fresh and untampered.
//
//ivlint:hotpath
func (g *Global) Verify(pfn layout.PFN, blk ctr.Block) error {
	g.Verifies.Inc()
	h := CounterBlockHash(pfn, blk)
	idx := uint64(pfn)
	for level := 1; level <= g.lay.GlobalLevels; level++ {
		slot := int(idx % uint64(g.lay.Arity))
		idx /= uint64(g.lay.Arity)
		if got := g.slot(level, idx, slot); got != h {
			return newIntegrityError(ViolationTreeNode, -1, level, int(idx), slot,
				g.nodeAddr(level, idx), "stored slot disagrees with recomputed path hash")
		}
		h = g.levelNodeHash(level, idx)
	}
	if h != g.root {
		return newIntegrityError(ViolationRoot, -1, g.lay.GlobalLevels, 0, -1,
			g.nodeAddr(g.lay.GlobalLevels, 0), "top node disagrees with on-chip root")
	}
	return nil
}

func (g *Global) nodeAddr(level int, idx uint64) uint64 {
	a, err := g.lay.GlobalNodeAddr(level, idx)
	if err != nil {
		return 0
	}
	return a
}

// Root returns the on-chip root hash.
func (g *Global) Root() uint64 { return g.root }

// Clone deep-copies the global tree: the persisted node image plus the
// on-chip root register (which RecoverRoot rebuilds from the image alone).
func (g *Global) Clone() *Global {
	c := &Global{
		lay:    g.lay,
		arity:  g.arity,
		levels: make([][]*gchunk, len(g.levels)),
		zero:   g.zero,
		root:   g.root,
	}
	for level, lv := range g.levels {
		if lv == nil {
			continue
		}
		c.levels[level] = make([]*gchunk, len(lv))
		for ci, ch := range lv {
			if ch == nil {
				continue
			}
			cp := &gchunk{
				slots: make([]uint64, len(ch.slots)),
				has:   make([]bool, len(ch.has)),
			}
			copy(cp.slots, ch.slots)
			copy(cp.has, ch.has)
			c.levels[level][ci] = cp
		}
	}
	return c
}

// forEachNode visits every materialized node in ascending (level, idx)
// order — the same order the map-backed store's sorted keys produced.
func (g *Global) forEachNode(fn func(level int, idx uint64)) {
	for level := 1; level < len(g.levels); level++ {
		for ci, ch := range g.levels[level] {
			if ch == nil {
				continue
			}
			for n := 0; n < gchunkNodes; n++ {
				if ch.has[n] {
					fn(level, uint64(ci)<<gchunkShift|uint64(n))
				}
			}
		}
	}
}

// VerifyImage checks the internal hash-chain consistency of the persisted
// node image: every materialized non-top node's hash must equal the slot
// its parent holds. An inconsistency means the image was torn mid-update.
func (g *Global) VerifyImage() error {
	var verr error
	g.forEachNode(func(level int, idx uint64) {
		if verr != nil || level >= g.lay.GlobalLevels {
			return
		}
		pidx := idx / uint64(g.lay.Arity)
		slot := int(idx % uint64(g.lay.Arity))
		if g.slot(level+1, pidx, slot) != g.levelNodeHash(level, idx) {
			verr = newIntegrityError(ViolationTorn, -1, level+1, int(pidx), slot,
				g.nodeAddr(level+1, pidx),
				"persisted parent link disagrees with child hash (torn image)")
		}
	})
	return verr
}

// RecoverRoot rebuilds the on-chip root register from the persisted top
// node after a crash, first checking the image for torn writes.
func (g *Global) RecoverRoot() (uint64, error) {
	if err := g.VerifyImage(); err != nil {
		return 0, err
	}
	g.root = g.levelNodeHash(g.lay.GlobalLevels, 0)
	return g.root, nil
}

// Corrupt overwrites the stored hash at (level, idx, slot) — a physical
// tamper/replay used by tests and the tamper-detection example.
func (g *Global) Corrupt(level int, idx uint64, slot int, v uint64) {
	g.setSlot(level, idx, slot, v)
}

// tlArena is one TreeLing's dense node storage: NodesPerTreeLing nodes of
// arity slots each, top-down node indexing, plus per-node materialization
// flags. Absent nodes keep all-zero slots, so reads never need the flag.
type tlArena struct {
	slots []uint64 // NodesPerTreeLing * arity
	has   []bool
}

// Forest is the functional hash storage for the TreeLing forest: a dense
// per-TreeLing arena indexed by (TreeLing, node, slot) arithmetic, with
// per-TreeLing roots kept "on-chip" (a root table indexed by TreeLing),
// which is what isolates the TreeLings from each other.
type Forest struct {
	lay     *layout.Layout
	arity   int
	tls     []*tlArena // indexed by TreeLing; nil = untouched
	zero    []uint64   // shared all-zero node, read-only
	roots   []uint64   // on-chip TreeLing root hashes
	rootSet []bool

	// Functional-layer statistics (leaf updates and verifications).
	Updates  stats.Counter
	Verifies stats.Counter
}

// NewForest creates the functional forest for a layout.
func NewForest(lay *layout.Layout) *Forest {
	return &Forest{lay: lay, arity: lay.Arity, zero: make([]uint64, lay.Arity)}
}

// RegisterMetrics registers the forest's functional counters.
func (f *Forest) RegisterMetrics(r *telemetry.Registry, prefix string) {
	r.RegisterCounter(prefix+".updates", &f.Updates)
	r.RegisterCounter(prefix+".verifies", &f.Verifies)
}

// peek returns tl's arena, or nil if untouched.
func (f *Forest) peek(tl int) *tlArena {
	if tl >= len(f.tls) {
		return nil
	}
	return f.tls[tl]
}

// arena returns tl's arena, materializing it.
func (f *Forest) arena(tl int) *tlArena {
	for len(f.tls) <= tl {
		//ivlint:allow hotalloc — lazy arena-directory growth: bounded by the TreeLing count, quiesces after warmup
		f.tls = append(f.tls, nil)
	}
	if f.tls[tl] == nil {
		f.tls[tl] = &tlArena{
			slots: make([]uint64, f.lay.NodesPerTreeLing*f.arity),
			has:   make([]bool, f.lay.NodesPerTreeLing),
		}
	}
	return f.tls[tl]
}

// Slot returns the hash stored in a TreeLing node slot.
func (f *Forest) Slot(tl, nodeIdx, slot int) uint64 {
	a := f.peek(tl)
	if a == nil {
		return 0
	}
	return a.slots[nodeIdx*f.arity+slot]
}

func (f *Forest) nodeHash(a *tlArena, nodeIdx int) uint64 {
	if a == nil {
		return crypto.NodeHash(f.zero...)
	}
	off := nodeIdx * f.arity
	return crypto.NodeHash(a.slots[off : off+f.arity]...)
}

// SetSlot stores a hash into a TreeLing node slot and recomputes the path
// from that node to the TreeLing root, refreshing the on-chip root.
//
//ivlint:hotpath
func (f *Forest) SetSlot(tl, nodeIdx, slot int, h uint64) {
	f.Updates.Inc()
	a := f.arena(tl)
	a.has[nodeIdx] = true
	a.slots[nodeIdx*f.arity+slot] = h
	f.rehash(tl, a, nodeIdx)
}

func (f *Forest) setRoot(tl int, h uint64) {
	for len(f.roots) <= tl {
		//ivlint:allow hotalloc — on-chip root registers grow to the TreeLing count once, then stay put
		f.roots = append(f.roots, 0)
		//ivlint:allow hotalloc — grows in lockstep with roots above
		f.rootSet = append(f.rootSet, false)
	}
	f.roots[tl] = h
	f.rootSet[tl] = true
}

func (f *Forest) dropRoot(tl int) {
	if tl < len(f.roots) {
		f.roots[tl] = 0
		f.rootSet[tl] = false
	}
}

func (f *Forest) rehash(tl int, a *tlArena, nodeIdx int) {
	cur := nodeIdx
	for {
		h := f.nodeHash(a, cur)
		parent, slot, ok := f.lay.Parent(cur)
		if !ok {
			f.setRoot(tl, h)
			return
		}
		a.has[parent] = true
		a.slots[parent*f.arity+slot] = h
		cur = parent
	}
}

// Verify checks the chain from (nodeIdx, slot) holding hash h up to the
// on-chip TreeLing root.
//
//ivlint:hotpath
func (f *Forest) Verify(tl, nodeIdx, slot int, h uint64) error {
	f.Verifies.Inc()
	a := f.peek(tl)
	if got := f.Slot(tl, nodeIdx, slot); got != h {
		return newIntegrityError(ViolationTreeNode, tl, f.lay.LevelOf(nodeIdx), nodeIdx, slot,
			f.nodeAddr(tl, nodeIdx), "stored slot disagrees with leaf hash")
	}
	cur := nodeIdx
	for {
		nh := f.nodeHash(a, cur)
		parent, slot, ok := f.lay.Parent(cur)
		if !ok {
			if f.Root(tl) != nh {
				return newIntegrityError(ViolationRoot, tl, f.lay.TreeLingHeight, cur, -1,
					f.nodeAddr(tl, cur), "top node disagrees with on-chip root")
			}
			return nil
		}
		var got uint64
		if a != nil {
			got = a.slots[parent*f.arity+slot]
		}
		if got != nh {
			return newIntegrityError(ViolationTreeNode, tl, f.lay.LevelOf(parent), parent, slot,
				f.nodeAddr(tl, parent), "stored slot disagrees with recomputed path hash")
		}
		cur = parent
	}
}

func (f *Forest) nodeAddr(tl, nodeIdx int) uint64 {
	a, err := f.lay.TreeLingNodeAddr(tl, nodeIdx)
	if err != nil {
		return 0
	}
	return a
}

// Root returns the on-chip root hash of a TreeLing.
func (f *Forest) Root(tl int) uint64 {
	if tl < len(f.roots) && f.rootSet[tl] {
		return f.roots[tl]
	}
	return 0
}

// HasRoot reports whether the on-chip root table has an entry for tl.
func (f *Forest) HasRoot(tl int) bool { return tl < len(f.rootSet) && f.rootSet[tl] }

// Clone deep-copies the forest: the persisted node image plus the on-chip
// root table (which RecoverRoot rebuilds from the image alone).
func (f *Forest) Clone() *Forest {
	c := &Forest{
		lay:     f.lay,
		arity:   f.arity,
		tls:     make([]*tlArena, len(f.tls)),
		zero:    f.zero,
		roots:   append([]uint64(nil), f.roots...),
		rootSet: append([]bool(nil), f.rootSet...),
	}
	for tl, a := range f.tls {
		if a == nil {
			continue
		}
		cp := &tlArena{
			slots: make([]uint64, len(a.slots)),
			has:   make([]bool, len(a.has)),
		}
		copy(cp.slots, a.slots)
		copy(cp.has, a.has)
		c.tls[tl] = cp
	}
	return c
}

// RestoreFrom replaces the forest's node image with a deep copy of img's.
// The on-chip root table is deliberately NOT restored — it is lost at a
// crash; the recovery path must rebuild it per TreeLing via RecoverRoot.
func (f *Forest) RestoreFrom(img *Forest) {
	c := img.Clone()
	f.tls = c.tls
	f.roots = nil
	f.rootSet = nil
}

// RestoreFrom replaces the global tree's node image with a deep copy of
// img's. The on-chip root register is NOT restored; call RecoverRoot.
func (g *Global) RestoreFrom(img *Global) {
	g.levels = img.Clone().levels
	g.root = 0
}

// VerifyTreeLing checks the internal hash-chain consistency of one
// TreeLing's persisted nodes: every materialized non-root node's hash must
// equal the slot its parent holds. Because every SetSlot rehashes up to
// the root, this invariant holds for any cleanly written image; a
// violation means the image was torn mid-update.
func (f *Forest) VerifyTreeLing(tl int) error {
	a := f.peek(tl)
	if a == nil {
		return nil
	}
	for i := 1; i < f.lay.NodesPerTreeLing; i++ {
		if !a.has[i] {
			continue
		}
		parent, slot, ok := f.lay.Parent(i)
		if !ok {
			continue
		}
		if a.slots[parent*f.arity+slot] != f.nodeHash(a, i) {
			return newIntegrityError(ViolationTorn, tl, f.lay.LevelOf(parent), parent, slot,
				f.nodeAddr(tl, parent), "persisted parent link disagrees with child hash (torn image)")
		}
	}
	return nil
}

// RecoverRoot rebuilds the on-chip root-table entry of TreeLing tl from
// the persisted node image after a crash, first checking the image for
// torn writes. A TreeLing with no materialized nodes recovers to no root
// entry, matching a freshly assigned TreeLing.
func (f *Forest) RecoverRoot(tl int) error {
	if err := f.VerifyTreeLing(tl); err != nil {
		return err
	}
	a := f.peek(tl)
	if a == nil || !a.has[0] {
		f.dropRoot(tl)
		return nil
	}
	f.setRoot(tl, f.nodeHash(a, 0))
	return nil
}

// ResetTreeLing clears every node of a TreeLing (used when a TreeLing is
// reclaimed from a destroyed domain).
func (f *Forest) ResetTreeLing(tl int) {
	if tl < len(f.tls) {
		f.tls[tl] = nil
	}
	f.dropRoot(tl)
}

// Corrupt overwrites a stored slot hash — a physical tamper used in tests.
func (f *Forest) Corrupt(tl, nodeIdx, slot int, v uint64) {
	a := f.arena(tl)
	a.has[nodeIdx] = true
	a.slots[nodeIdx*f.arity+slot] = v
}

// DigestTreeLing folds one TreeLing's materialized node contents (index
// order) into a single hash, for state-equality checks after recovery.
func (f *Forest) DigestTreeLing(tl int) uint64 {
	a := f.peek(tl)
	var parts []uint64
	if a != nil {
		for i := 0; i < f.lay.NodesPerTreeLing; i++ {
			if !a.has[i] {
				continue
			}
			parts = append(parts, uint64(i))
			parts = append(parts, a.slots[i*f.arity:(i+1)*f.arity]...)
		}
	}
	return crypto.NodeHash(parts...)
}

// DigestImage folds the global tree's materialized node contents (key
// order) into a single hash, for state-equality checks after recovery.
func (g *Global) DigestImage() uint64 {
	var parts []uint64
	g.forEachNode(func(level int, idx uint64) {
		parts = append(parts, globalKey(level, idx))
		c := g.peek(level, idx)
		off := int(idx&gchunkMask) * g.arity
		parts = append(parts, c.slots[off:off+g.arity]...)
	})
	return crypto.NodeHash(parts...)
}
