// Package tree implements the functional integrity-tree substrate: the
// global Bonsai Merkle Tree used by the Baseline scheme and the hash
// forest the IvLeague TreeLings live in. Both are one heap-ordered Merkle
// tree type over lazily materialized node chunks; they differ only in how
// a node is addressed and which node's hash the chip holds. The
// differential tests shadow both against a map-backed reference store.
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

// chunkShift sizes the hash tree's node chunks: 64 nodes per chunk keeps
// lazy materialization (only touched verification paths cost memory)
// while a chunk's slots stay one dense array.
const (
	chunkShift = 6
	chunkNodes = 1 << chunkShift
	chunkMask  = chunkNodes - 1
)

// chunk is one run of chunkNodes consecutive nodes: a dense slot array
// plus per-node materialization flags. Absent and dropped nodes keep
// all-zero slots, so reads never need the flag.
type chunk struct {
	slots []uint64 // chunkNodes * arity
	has   [chunkNodes]bool
}

// hashTree stores and walks heap-ordered Merkle trees of arity-slot
// nodes. In the heap whose top node is node base, node base+i (i > 0)
// fills slot (i-1)%arity of node base+(i-1)/arity. Untouched nodes read
// as all-zero slots.
type hashTree struct {
	arity    int
	chunks   []*chunk // nil = untouched
	zeroHash uint64   // hash of an all-zero node
}

func newHashTree(arity int) hashTree {
	return hashTree{arity: arity, zeroHash: crypto.NodeHash(make([]uint64, arity)...)}
}

// parent returns the node and slot holding node i's hash in the heap
// topped by node base (i != base).
func (t *hashTree) parent(base, i int) (node, slot int) {
	r := i - base - 1
	return base + r/t.arity, r % t.arity
}

// chunk returns the chunk holding node i, nil while it is untouched.
func (t *hashTree) chunk(i int) *chunk {
	if ci := i >> chunkShift; ci < len(t.chunks) {
		return t.chunks[ci]
	}
	return nil
}

func (t *hashTree) has(i int) bool {
	c := t.chunk(i)
	return c != nil && c.has[i&chunkMask]
}

func (t *hashTree) slot(i, s int) uint64 {
	c := t.chunk(i)
	if c == nil {
		return 0
	}
	return c.slots[(i&chunkMask)*t.arity+s]
}

// setSlot stores h in slot s of node i, materializing the node.
func (t *hashTree) setSlot(i, s int, h uint64) {
	ci := i >> chunkShift
	if ci >= len(t.chunks) {
		//ivlint:allow hotalloc — lazy chunk-directory growth: bounded by the tree geometry, quiesces after warmup
		t.chunks = append(t.chunks, make([]*chunk, ci+1-len(t.chunks))...)
	}
	c := t.chunks[ci]
	if c == nil {
		c = &chunk{slots: make([]uint64, chunkNodes*t.arity)}
		t.chunks[ci] = c
	}
	c.has[i&chunkMask] = true
	c.slots[(i&chunkMask)*t.arity+s] = h
}

func (t *hashTree) nodeHash(i int) uint64 {
	c := t.chunk(i)
	if c == nil {
		return t.zeroHash
	}
	off := (i & chunkMask) * t.arity
	return crypto.NodeHash(c.slots[off : off+t.arity]...)
}

// update stores h in slot s of node i and rehashes every ancestor up to
// base, the heap's top node, whose new hash it returns.
func (t *hashTree) update(base, i, s int, h uint64) uint64 {
	t.setSlot(i, s, h)
	for i != base {
		p, ps := t.parent(base, i)
		t.setSlot(p, ps, t.nodeHash(i))
		i = p
	}
	return t.nodeHash(base)
}

// verify checks the chain from slot s of node i, which must hold h, up to
// the top node base, whose hash must equal root. It returns the node and
// slot of the first link that disagrees (slot -1: the root), or ok.
func (t *hashTree) verify(base, i, s int, h, root uint64) (node, slot int, ok bool) {
	if t.slot(i, s) != h {
		return i, s, false
	}
	for i != base {
		p, ps := t.parent(base, i)
		if t.slot(p, ps) != t.nodeHash(i) {
			return p, ps, false
		}
		i = p
	}
	if t.nodeHash(base) != root {
		return base, -1, false
	}
	return 0, 0, true
}

// each calls fn for every materialized node in [lo, hi), in index order,
// until fn returns false.
func (t *hashTree) each(lo, hi int, fn func(i int) bool) {
	hi = min(hi, len(t.chunks)<<chunkShift)
	for i := lo; i < hi; i++ {
		c := t.chunks[i>>chunkShift]
		if c == nil {
			i |= chunkMask
			continue
		}
		if c.has[i&chunkMask] && !fn(i) {
			return
		}
	}
}

// torn checks every materialized node in [lo, hi) of the heap topped by
// base (lo > base) against the slot its parent holds, in index order. It
// returns the first parent link that disagrees: a torn image, since every
// clean update rehashes to the top.
func (t *hashTree) torn(base, lo, hi int) (node, slot int, ok bool) {
	ok = true
	t.each(lo, hi, func(i int) bool {
		p, ps := t.parent(base, i)
		if t.slot(p, ps) != t.nodeHash(i) {
			node, slot, ok = p, ps, false
		}
		return ok
	})
	return node, slot, ok
}

// appendImage appends key0+(i-lo) and the slots of every materialized
// node i in [lo, hi), in index order: the image an image digest folds.
func (t *hashTree) appendImage(parts []uint64, lo, hi int, key0 uint64) []uint64 {
	t.each(lo, hi, func(i int) bool {
		off := (i & chunkMask) * t.arity
		parts = append(parts, key0+uint64(i-lo))
		parts = append(parts, t.chunk(i).slots[off:off+t.arity]...)
		return true
	})
	return parts
}

// drop clears every node in [lo, hi) back to untouched.
func (t *hashTree) drop(lo, hi int) {
	t.each(lo, hi, func(i int) bool {
		c := t.chunk(i)
		c.has[i&chunkMask] = false
		off := (i & chunkMask) * t.arity
		clear(c.slots[off : off+t.arity])
		return true
	})
}

// clone deep-copies the node image.
func (t *hashTree) clone() hashTree {
	c := *t
	c.chunks = make([]*chunk, len(t.chunks))
	for ci, ch := range t.chunks {
		if ch != nil {
			c.chunks[ci] = &chunk{slots: append([]uint64(nil), ch.slots...), has: ch.has}
		}
	}
	return c
}

// counters are a tree's functional-layer statistics (leaf updates and
// verifications).
type counters struct {
	Updates  stats.Counter
	Verifies stats.Counter
}

// RegisterMetrics registers the tree's functional counters.
func (c *counters) RegisterMetrics(r *telemetry.Registry, prefix string) {
	r.RegisterCounter(prefix+".updates", &c.Updates)
	r.RegisterCounter(prefix+".verifies", &c.Verifies)
}

// Global is the functional global Bonsai Merkle Tree of the Baseline
// scheme: statically addressed, built over every page's counter block,
// with the single root held on-chip. Node (level, idx) is heap node
// off[level]+idx; the top node is heap node 0.
type Global struct {
	counters
	lay  *layout.Layout
	t    hashTree
	off  []int  // off[GlobalLevels] = 0, off[l] = off[l+1]*arity + 1
	root uint64 // on-chip root hash
}

// NewGlobal creates the functional global tree for a layout.
func NewGlobal(lay *layout.Layout) *Global {
	off := make([]int, lay.GlobalLevels+1)
	for l := lay.GlobalLevels - 1; l >= 0; l-- {
		off[l] = off[l+1]*lay.Arity + 1
	}
	g := &Global{lay: lay, t: newHashTree(lay.Arity), off: off}
	g.root = g.t.nodeHash(0)
	return g
}

func globalKey(level int, idx uint64) uint64 {
	return uint64(level)<<56 | idx
}

// node returns the heap index of global node (level, idx).
func (g *Global) node(level int, idx uint64) int { return g.off[level] + int(idx) }

// levelIdx inverts node.
func (g *Global) levelIdx(i int) (level int, idx uint64) {
	level = 1
	for i < g.off[level] {
		level++
	}
	return level, uint64(i - g.off[level])
}

// leaf returns the level-1 node and slot holding page pfn's counter hash.
func (g *Global) leaf(pfn layout.PFN) (node, slot int) {
	a := uint64(g.lay.Arity)
	return g.node(1, uint64(pfn)/a), int(uint64(pfn) % a)
}

// Update recomputes the verification path of page pfn after its counter
// block changed, ending with a new on-chip root.
//
//ivlint:hotpath
func (g *Global) Update(pfn layout.PFN, blk ctr.Block) {
	g.Updates.Inc()
	node, slot := g.leaf(pfn)
	g.root = g.t.update(0, node, slot, CounterBlockHash(pfn, blk))
}

// Verify walks page pfn's path from leaf to root and reports whether every
// link matches, i.e. whether the counter block (and hence the data it
// authenticates) is fresh and untampered.
//
//ivlint:hotpath
func (g *Global) Verify(pfn layout.PFN, blk ctr.Block) error {
	g.Verifies.Inc()
	leaf, leafSlot := g.leaf(pfn)
	node, slot, ok := g.t.verify(0, leaf, leafSlot, CounterBlockHash(pfn, blk), g.root)
	if ok {
		return nil
	}
	level, idx := g.levelIdx(node)
	if slot < 0 {
		return newIntegrityError(ViolationRoot, -1, level, int(idx), -1,
			g.nodeAddr(level, idx), "top node disagrees with on-chip root")
	}
	return newIntegrityError(ViolationTreeNode, -1, level, int(idx), slot,
		g.nodeAddr(level, idx), "stored slot disagrees with recomputed path hash")
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
	return &Global{lay: g.lay, t: g.t.clone(), off: g.off, root: g.root}
}

// RestoreFrom replaces the global tree's node image with a deep copy of
// img's. The on-chip root register is NOT restored; call RecoverRoot.
func (g *Global) RestoreFrom(img *Global) {
	g.t = img.t.clone()
	g.root = 0
}

// VerifyImage checks the internal hash-chain consistency of the persisted
// node image: every materialized non-top node's hash must equal the slot
// its parent holds, checked in (level, idx) order. An inconsistency means
// the image was torn mid-update.
func (g *Global) VerifyImage() error {
	for level := 1; level < g.lay.GlobalLevels; level++ {
		if p, slot, ok := g.t.torn(0, g.off[level], g.off[level-1]); !ok {
			idx := uint64(p - g.off[level+1])
			return newIntegrityError(ViolationTorn, -1, level+1, int(idx), slot,
				g.nodeAddr(level+1, idx), "persisted parent link disagrees with child hash (torn image)")
		}
	}
	return nil
}

// RecoverRoot rebuilds the on-chip root register from the persisted top
// node after a crash, first checking the image for torn writes.
func (g *Global) RecoverRoot() (uint64, error) {
	if err := g.VerifyImage(); err != nil {
		return 0, err
	}
	g.root = g.t.nodeHash(0)
	return g.root, nil
}

// Corrupt overwrites the stored hash at (level, idx, slot) — a physical
// tamper/replay used by tests and the tamper-detection example.
func (g *Global) Corrupt(level int, idx uint64, slot int, v uint64) {
	g.t.setSlot(g.node(level, idx), slot, v)
}

// DigestImage folds the global tree's materialized node contents, in
// (level, idx) order keyed by globalKey, into a single hash, for
// state-equality checks after recovery.
func (g *Global) DigestImage() uint64 {
	var parts []uint64
	for level := 1; level <= g.lay.GlobalLevels; level++ {
		parts = g.t.appendImage(parts, g.off[level], g.off[level-1], globalKey(level, 0))
	}
	return crypto.NodeHash(parts...)
}

// Forest is the functional hash storage for the TreeLing forest: one
// hash tree holding each TreeLing as its own heap (TreeLing tl's node i
// at tl*NodesPerTreeLing+i, the TreeLing region's order), with
// per-TreeLing roots kept "on-chip" (a root table indexed by TreeLing),
// which is what isolates the TreeLings from each other.
type Forest struct {
	counters
	lay     *layout.Layout
	t       hashTree
	roots   []uint64 // on-chip TreeLing root hashes
	rootSet []bool
}

// NewForest creates the functional forest for a layout.
func NewForest(lay *layout.Layout) *Forest {
	return &Forest{lay: lay, t: newHashTree(lay.Arity)}
}

// base returns the hash-tree index of TreeLing tl's top node.
func (f *Forest) base(tl int) int { return tl * f.lay.NodesPerTreeLing }

// Slot returns the hash stored in a TreeLing node slot.
func (f *Forest) Slot(tl, nodeIdx, slot int) uint64 {
	return f.t.slot(f.base(tl)+nodeIdx, slot)
}

// SetSlot stores a hash into a TreeLing node slot and recomputes the path
// from that node to the TreeLing root, refreshing the on-chip root.
//
//ivlint:hotpath
func (f *Forest) SetSlot(tl, nodeIdx, slot int, h uint64) {
	f.Updates.Inc()
	base := f.base(tl)
	f.setRoot(tl, f.t.update(base, base+nodeIdx, slot, h))
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

// Verify checks the chain from (nodeIdx, slot) holding hash h up to the
// on-chip TreeLing root.
//
//ivlint:hotpath
func (f *Forest) Verify(tl, nodeIdx, slot int, h uint64) error {
	f.Verifies.Inc()
	base := f.base(tl)
	node, s, ok := f.t.verify(base, base+nodeIdx, slot, h, f.Root(tl))
	node -= base
	switch {
	case ok:
		return nil
	case s < 0:
		return newIntegrityError(ViolationRoot, tl, f.lay.TreeLingHeight, node, -1,
			f.nodeAddr(tl, node), "top node disagrees with on-chip root")
	case node == nodeIdx:
		return newIntegrityError(ViolationTreeNode, tl, f.lay.LevelOf(node), node, s,
			f.nodeAddr(tl, node), "stored slot disagrees with leaf hash")
	}
	return newIntegrityError(ViolationTreeNode, tl, f.lay.LevelOf(node), node, s,
		f.nodeAddr(tl, node), "stored slot disagrees with recomputed path hash")
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

// Clone deep-copies the forest: the persisted node image plus the on-chip
// root table (which RecoverRoot rebuilds from the image alone).
func (f *Forest) Clone() *Forest {
	return &Forest{
		lay:     f.lay,
		t:       f.t.clone(),
		roots:   append([]uint64(nil), f.roots...),
		rootSet: append([]bool(nil), f.rootSet...),
	}
}

// RestoreFrom replaces the forest's node image with a deep copy of img's.
// The on-chip root table is deliberately NOT restored — it is lost at a
// crash; the recovery path must rebuild it per TreeLing via RecoverRoot.
func (f *Forest) RestoreFrom(img *Forest) {
	f.t = img.t.clone()
	f.roots = nil
	f.rootSet = nil
}

// VerifyTreeLing checks the internal hash-chain consistency of one
// TreeLing's persisted nodes: every materialized non-root node's hash must
// equal the slot its parent holds, checked in node order. Because every
// SetSlot rehashes up to the root, this invariant holds for any cleanly
// written image; a violation means the image was torn mid-update.
func (f *Forest) VerifyTreeLing(tl int) error {
	base := f.base(tl)
	if p, slot, ok := f.t.torn(base, base+1, base+f.lay.NodesPerTreeLing); !ok {
		p -= base
		return newIntegrityError(ViolationTorn, tl, f.lay.LevelOf(p), p, slot,
			f.nodeAddr(tl, p), "persisted parent link disagrees with child hash (torn image)")
	}
	return nil
}

// RecoverRoot rebuilds the on-chip root-table entry of TreeLing tl from
// the persisted node image after a crash, first checking the image for
// torn writes. A TreeLing with no materialized top node recovers to no
// root entry, matching a freshly assigned TreeLing.
func (f *Forest) RecoverRoot(tl int) error {
	if err := f.VerifyTreeLing(tl); err != nil {
		return err
	}
	if base := f.base(tl); f.t.has(base) {
		f.setRoot(tl, f.t.nodeHash(base))
	} else {
		f.dropRoot(tl)
	}
	return nil
}

// ResetTreeLing clears every node of a TreeLing (used when a TreeLing is
// reclaimed from a destroyed domain).
func (f *Forest) ResetTreeLing(tl int) {
	base := f.base(tl)
	f.t.drop(base, base+f.lay.NodesPerTreeLing)
	f.dropRoot(tl)
}

// Corrupt overwrites a stored slot hash — a physical tamper used in tests.
func (f *Forest) Corrupt(tl, nodeIdx, slot int, v uint64) {
	f.t.setSlot(f.base(tl)+nodeIdx, slot, v)
}

// DigestTreeLing folds one TreeLing's materialized node contents (node
// order) into a single hash, for state-equality checks after recovery.
func (f *Forest) DigestTreeLing(tl int) uint64 {
	base := f.base(tl)
	return crypto.NodeHash(f.t.appendImage(nil, base, base+f.lay.NodesPerTreeLing, 0)...)
}
