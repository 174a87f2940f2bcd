package core

import (
	"ivleague/internal/layout"
	"ivleague/internal/stats"
)

// nflEntry is one in-memory NFL entry: the tracked TreeLing node (a full
// node-block address tag, here packed as tl<<24|node) and its availability
// vector (bit i set = slot i attachable). tag < 0 marks an unused entry
// position (padding in a region's last block).
type nflEntry struct {
	tag   int64
	avail uint8
}

func packTag(tl, node int) int64 { return int64(tl)<<24 | int64(node) }

func unpackTag(tag int64) (tl, node int) {
	return int(tag >> 24), int(tag & (1<<24 - 1))
}

// nflRegion is the in-memory NFL storage of one assigned TreeLing: one
// entry per tracked node, grouped into 64-byte blocks.
type nflRegion struct {
	tl        int
	entries   []nflEntry
	nBlocks   int
	blockBase int      // offset within the TreeLing's NFL address range
	moved     []uint64 // lookup index: bit i set = entry i is in the space's repurposed list
}

// nflIndex is the controller-wide part of the NFL lookup index for one
// kind of space (the regular NFL, or the τhot NFL under Pro). An entry
// offering a slot of node n in TreeLing tl sits either at n's canonical
// position — entry offset[n] of tl's region, where addRegion wrote it —
// or at a position release has re-tagged (the space's repurposed list),
// so a lookup checks those two places instead of scanning the space.
type nflIndex struct {
	tracked []int32 // canonical entry order: offset → node (what addRegion writes)
	offset  []int32 // its inverse: node → offset, -1 for untracked nodes
	// region maps TreeLing → index of its region in the owning domain's
	// space. It is a view into a controller arena shared by every domain
	// and is not cleared when a TreeLing is recycled; regionOf confirms
	// the region's TreeLing before trusting an entry.
	region []int32
}

// newNFLIndex builds the index for one tracking order over TreeLings of
// nodes nodes; region is the TreeLing → region table it fills.
func newNFLIndex(tracked []int32, nodes int, region []int32) *nflIndex {
	idx := &nflIndex{tracked: tracked, offset: make([]int32, nodes), region: region}
	for n := range idx.offset {
		idx.offset[n] = -1
	}
	for off, n := range tracked {
		idx.offset[n] = int32(off)
	}
	return idx
}

// canonicalTag returns the tag addRegion writes at entry offset off of
// TreeLing tl's region (-1 for padding).
func (idx *nflIndex) canonicalTag(tl, off int) int64 {
	if off < len(idx.tracked) {
		return packTag(tl, int(idx.tracked[off]))
	}
	return -1
}

// nflSpace is a domain's Node Free-List: the concatenation of the NFL
// regions of its assigned TreeLings, with a single allocation frontier
// (the head register). The paper's invariant — every block before the
// frontier is fully mapped — makes allocation O(1); deallocations re-track
// freed slots at the frontier (tag match, entry repurposing, or a one-step
// head rewind), so freed capacity is reused immediately. Consuming a
// designated slot (a ρ-conversion) is O(1) too, through the lookup index
// (idx plus repurposed), which is derived state: restore rebuilds it and
// neither the persist image nor the state digest carries it.
type nflSpace struct {
	epb     int
	regions []*nflRegion
	fRegion int // frontier region index
	fBlock  int // frontier block within that region

	idx        *nflIndex
	repurposed []*nflEntry // entries release has re-tagged, each listed once
}

func newNFLSpace(epb int, idx *nflIndex) *nflSpace { return &nflSpace{epb: epb, idx: idx} }

// addRegion appends the NFL region of a newly assigned TreeLing tracking
// the index's nodes, each with the initial availability initAvail.
func (s *nflSpace) addRegion(tl int, initAvail uint8, blockBase int) *nflRegion {
	n := len(s.idx.tracked)
	entries := make([]nflEntry, (n+s.epb-1)/s.epb*s.epb)
	for i := range entries {
		entries[i].tag = s.idx.canonicalTag(tl, i)
		if i < n {
			entries[i].avail = initAvail
		}
	}
	return s.pushRegion(tl, entries, blockBase)
}

// pushRegion appends a region holding entries and indexes it.
func (s *nflSpace) pushRegion(tl int, entries []nflEntry, blockBase int) *nflRegion {
	r := &nflRegion{
		tl:        tl,
		entries:   entries,
		nBlocks:   len(entries) / s.epb,
		blockBase: blockBase,
		moved:     make([]uint64, (len(entries)+63)/64),
	}
	s.idx.region[tl] = int32(len(s.regions))
	//ivlint:allow hotalloc — NFL region materialization: one per frontier advance, bounded by tracked nodes
	s.regions = append(s.regions, r)
	return r
}

// regionOf returns TreeLing tl's region, or nil when the space has none.
func (s *nflSpace) regionOf(tl int) *nflRegion {
	if tl < 0 || tl >= len(s.idx.region) {
		return nil
	}
	if ri := int(s.idx.region[tl]); ri < len(s.regions) && s.regions[ri].tl == tl {
		return s.regions[ri]
	}
	return nil
}

// exhausted reports whether the frontier has run past the last block.
func (s *nflSpace) exhausted() bool {
	return s.fRegion >= len(s.regions)
}

// frontier returns the region and block the head register points at.
func (s *nflSpace) frontier() (*nflRegion, int) {
	return s.regions[s.fRegion], s.fBlock
}

// advance moves the frontier to the next block (crossing into the next
// region when the current one ends).
func (s *nflSpace) advance() {
	s.fBlock++
	if s.fBlock >= s.regions[s.fRegion].nBlocks {
		s.fRegion++
		s.fBlock = 0
	}
}

// rewind moves the frontier one block back (crossing into the previous
// TreeLing's NFL when at a region's first block, per Section VI-C1). It
// reports whether a previous block exists.
func (s *nflSpace) rewind() bool {
	if s.fBlock > 0 {
		s.fBlock--
		return true
	}
	if s.fRegion > 0 {
		// After the decrement fRegion is at most len(regions)-1 (it never
		// exceeds len(regions), even when exhausted), so the target region
		// always exists.
		s.fRegion--
		s.fBlock = s.regions[s.fRegion].nBlocks - 1
		return true
	}
	return false
}

// clampedFrontier returns the frontier clamped to the last existing block
// (for deallocations arriving after exhaustion).
func (s *nflSpace) clampedFrontier() (region, block int) {
	if s.fRegion < len(s.regions) {
		return s.fRegion, s.fBlock
	}
	last := len(s.regions) - 1
	return last, s.regions[last].nBlocks - 1
}

// block returns the entry slice of block b of region r.
func (s *nflSpace) block(r *nflRegion, b int) []nflEntry {
	return r.entries[b*s.epb : (b+1)*s.epb]
}

// peek returns the tag of the first entry with an attachable slot in the
// given block, without claiming it.
func (s *nflSpace) peek(r *nflRegion, b int) (tag int64, ok bool) {
	for _, e := range s.block(r, b) {
		if e.avail != 0 {
			return e.tag, true
		}
	}
	return 0, false
}

// take claims the lowest available slot of the entry tagged tag in the
// given block, returning ok=false if none is left.
func (s *nflSpace) take(r *nflRegion, b int, tag int64) (slot int, ok bool) {
	es := s.block(r, b)
	for i := range es {
		if es[i].tag == tag && es[i].avail != 0 {
			bit := 0
			for es[i].avail&(1<<uint(bit)) == 0 {
				bit++
			}
			es[i].avail &^= 1 << uint(bit)
			return bit, true
		}
	}
	return 0, false
}

// release records slot of tag as attachable in the given block using the
// in-place update rules of Figure 8d–e: tag match first, then repurposing
// a fully-assigned (or padding) entry. Reports whether it succeeded.
func (s *nflSpace) release(r *nflRegion, b int, tag int64, slot int) bool {
	es := s.block(r, b)
	for i := range es {
		if es[i].tag == tag {
			es[i].avail |= 1 << uint(slot)
			return true
		}
	}
	for i := range es {
		if es[i].avail == 0 {
			es[i] = nflEntry{tag: tag, avail: 1 << uint(slot)}
			s.noteRepurposed(r, b*s.epb+i)
			return true
		}
	}
	return false
}

// noteRepurposed lists entry i of r as re-tagged, once.
func (s *nflSpace) noteRepurposed(r *nflRegion, i int) {
	if w, bit := i/64, uint64(1)<<uint(i%64); r.moved[w]&bit == 0 {
		r.moved[w] |= bit
		//ivlint:allow hotalloc — each NFL entry position is listed at most once, so growth is bounded by the space's entries
		s.repurposed = append(s.repurposed, &r.entries[i])
	}
}

// offering returns the entry offering slot of (tl, node), or nil. It looks
// only where such an entry can sit: the node's canonical position in tl's
// region and the repurposed entries. No two entries of a domain offer the
// same slot (the invariant ivcheck asserts), so this is the entry a scan
// of the whole space would find.
func (s *nflSpace) offering(tl, node, slot int) *nflEntry {
	tag, bit := packTag(tl, node), uint8(1)<<uint(slot)
	if r := s.regionOf(tl); r != nil && node >= 0 && node < len(s.idx.offset) {
		if off := s.idx.offset[node]; off >= 0 {
			if e := &r.entries[off]; e.tag == tag && e.avail&bit != 0 {
				return e
			}
		}
	}
	for _, e := range s.repurposed {
		if e.tag == tag && e.avail&bit != 0 {
			return e
		}
	}
	return nil
}

// clearSlot removes slot of (tl, node) from availability (used by Invert
// conversion and Pro reservation, which consume designated slots).
// Reports whether an entry offered it.
func (s *nflSpace) clearSlot(tl, node, slot int) bool {
	e := s.offering(tl, node, slot)
	if e == nil {
		return false
	}
	e.avail &^= 1 << uint(slot)
	return true
}

// trackedSlotCapacity returns arity × the number of real (non-padding)
// entries, the denominator of the utilization metric.
func (s *nflSpace) trackedSlotCapacity(arity int) int {
	n := 0
	for _, r := range s.regions {
		for _, e := range r.entries {
			if e.tag >= 0 {
				n += arity
			}
		}
	}
	return n
}

// NFLB is the per-domain on-chip NFL buffer: a tiny CAM caching the most
// recently used NFL blocks. Misses cost an NFL memory read; dirty
// evictions cost a write-back.
type NFLB struct {
	entries []nflbEntry
	tick    uint64

	Hits   stats.Counter
	Misses stats.Counter
}

type nflbEntry struct {
	tl      int
	block   int
	lastUse uint64
	valid   bool
	dirty   bool
}

// newNFLB creates a buffer with n entries.
func newNFLB(n int) *NFLB {
	return &NFLB{entries: make([]nflbEntry, n)}
}

// Access looks up NFL block (tl, block), filling on a miss; the miss read
// and any dirty-eviction write-back are appended to ops using the layout's
// NFL block addresses. write marks the block dirty.
func (b *NFLB) Access(lay *layout.Layout, tl, block int, write bool, ops *OpList) (hit bool) {
	b.tick++
	victim := 0
	for i := range b.entries {
		e := &b.entries[i]
		if e.valid && e.tl == tl && e.block == block {
			e.lastUse = b.tick
			if write {
				e.dirty = true
			}
			b.Hits.Inc()
			return true
		}
		if !b.entries[victim].valid {
			continue
		}
		if !e.valid || e.lastUse < b.entries[victim].lastUse {
			victim = i
		}
	}
	b.Misses.Inc()
	v := &b.entries[victim]
	if v.valid && v.dirty {
		ops.Write(lay.NFLBlockAddr(v.tl, v.block))
	}
	ops.Read(lay.NFLBlockAddr(tl, block))
	*v = nflbEntry{tl: tl, block: block, lastUse: b.tick, valid: true, dirty: write}
	return false
}

// FlushDomain writes back and drops every entry (domain teardown).
func (b *NFLB) FlushDomain(lay *layout.Layout, ops *OpList) {
	for i := range b.entries {
		if b.entries[i].valid && b.entries[i].dirty {
			ops.Write(lay.NFLBlockAddr(b.entries[i].tl, b.entries[i].block))
		}
		b.entries[i] = nflbEntry{}
	}
}
