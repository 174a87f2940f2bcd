package ctr

import (
	"fmt"

	"ivleague/internal/layout"
	"ivleague/internal/stats"
)

// refStore is the counter store as it stood before blocks were packed:
// each block a Block value (72 bytes) in a chunk with its live bitmap
// inline. It is kept only as the reference the differential tests compare
// Store against; apart from the ref prefix on its names, and Block's
// Counter method becoming refCounter, the code is unchanged.

// refCounter returns the effective encryption counter for block bi.
func refCounter(b *Block, bi int, minorBits int) uint64 {
	return b.Major<<uint(minorBits) | uint64(b.Minors[bi])
}

type refChunk struct {
	live   [ctrChunkPages / 64]uint64
	blocks [ctrChunkPages]Block
}

type refStore struct {
	minorBits int
	minorMax  uint8
	chunks    []*refChunk
	count     int

	Increments stats.Counter
	Overflows  stats.Counter
}

func newRefStore(minorBits int) *refStore {
	if minorBits <= 0 || minorBits > 8 {
		panic(fmt.Sprintf("ctr: unsupported minor width %d", minorBits))
	}
	return &refStore{
		minorBits: minorBits,
		minorMax:  uint8(1<<uint(minorBits) - 1),
	}
}

// peek returns the live block for pfn, or nil.
func (s *refStore) peek(pfn layout.PFN) *Block {
	ci := int(pfn >> ctrChunkShift)
	if ci >= len(s.chunks) {
		return nil
	}
	ch := s.chunks[ci]
	if ch == nil {
		return nil
	}
	idx := int(pfn & ctrChunkMask)
	if ch.live[idx>>6]&(1<<uint(idx&63)) == 0 {
		return nil
	}
	return &ch.blocks[idx]
}

// Get returns the counter block for page pfn, creating it if absent.
func (s *refStore) Get(pfn layout.PFN) *Block {
	ci := int(pfn >> ctrChunkShift)
	for len(s.chunks) <= ci {
		s.chunks = append(s.chunks, nil)
	}
	ch := s.chunks[ci]
	if ch == nil {
		ch = &refChunk{}
		s.chunks[ci] = ch
	}
	idx := int(pfn & ctrChunkMask)
	if ch.live[idx>>6]&(1<<uint(idx&63)) == 0 {
		ch.live[idx>>6] |= 1 << uint(idx&63)
		ch.blocks[idx] = Block{}
		s.count++
	}
	return &ch.blocks[idx]
}

// Peek returns the counter block for pfn or nil if the page has never been
// written.
func (s *refStore) Peek(pfn layout.PFN) *Block { return s.peek(pfn) }

// Counter returns the effective encryption counter for block bi of page
// pfn (zero for untouched pages).
func (s *refStore) Counter(pfn layout.PFN, bi int) uint64 {
	b := s.peek(pfn)
	if b == nil {
		return 0
	}
	return refCounter(b, bi, s.minorBits)
}

// Increment bumps the minor counter of block bi in page pfn, returning
// true when the minor overflowed (major incremented, all minors reset —
// the caller must re-encrypt the page).
func (s *refStore) Increment(pfn layout.PFN, bi int) (overflow bool) {
	b := s.Get(pfn)
	s.Increments.Inc()
	if b.Minors[bi] == s.minorMax {
		b.Major++
		for i := range b.Minors {
			b.Minors[i] = 0
		}
		s.Overflows.Inc()
		return true
	}
	b.Minors[bi]++
	return false
}

// Drop removes the counter block of a freed page.
func (s *refStore) Drop(pfn layout.PFN) {
	ci := int(pfn >> ctrChunkShift)
	if ci >= len(s.chunks) || s.chunks[ci] == nil {
		return
	}
	ch := s.chunks[ci]
	idx := int(pfn & ctrChunkMask)
	if ch.live[idx>>6]&(1<<uint(idx&63)) != 0 {
		ch.live[idx>>6] &^= 1 << uint(idx&63)
		s.count--
	}
}

// Len returns the number of materialized counter blocks.
func (s *refStore) Len() int { return s.count }

// Snapshot returns the counter block value (copy) for hashing into the
// integrity tree; untouched pages hash as the zero block.
func (s *refStore) Snapshot(pfn layout.PFN) Block {
	if b := s.peek(pfn); b != nil {
		return *b
	}
	return Block{}
}

// PFNs returns the page frame numbers with materialized counter blocks in
// ascending order.
func (s *refStore) PFNs() []layout.PFN {
	pfns := make([]layout.PFN, 0, s.count)
	for ci, ch := range s.chunks {
		if ch == nil {
			continue
		}
		base := layout.PFN(ci << ctrChunkShift)
		for idx := 0; idx < ctrChunkPages; idx++ {
			if ch.live[idx>>6]&(1<<uint(idx&63)) != 0 {
				pfns = append(pfns, base+layout.PFN(idx))
			}
		}
	}
	return pfns
}

// Clone deep-copies the store. Statistics counters are carried over.
func (s *refStore) Clone() *refStore {
	c := &refStore{
		minorBits:  s.minorBits,
		minorMax:   s.minorMax,
		chunks:     make([]*refChunk, len(s.chunks)),
		count:      s.count,
		Increments: s.Increments,
		Overflows:  s.Overflows,
	}
	for ci, ch := range s.chunks {
		if ch == nil {
			continue
		}
		cp := *ch
		c.chunks[ci] = &cp
	}
	return c
}
