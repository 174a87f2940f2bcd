// Package ctr implements the split encryption counters of counter-mode
// secure memory: one 64-bit major counter per page plus a small per-block
// minor counter (7-bit by default). A data block's effective encryption
// counter is major<<minorBits | minor; incrementing a minor past its width
// overflows into the major counter and forces a page re-encryption, as in
// VAULT-style designs the paper builds on.
package ctr

import (
	"fmt"

	"ivleague/internal/config"
	"ivleague/internal/layout"
	"ivleague/internal/stats"
	"ivleague/internal/telemetry"
)

// Block is the counter block covering one 4 KiB page: a shared major
// counter and one minor counter per 64-byte data block.
type Block struct {
	Major  uint64
	Minors [config.BlocksPerPage]uint8
}

// Counter returns the effective encryption counter for block index bi.
func (b *Block) Counter(bi int, minorBits int) uint64 {
	return b.Major<<uint(minorBits) | uint64(b.Minors[bi])
}

// Counter blocks live in a two-level chunked arena indexed by PFN: a
// directory of fixed-size chunks, each holding the blocks of chunkPages
// consecutive frames plus a live bitmap. Chunks materialize on first touch,
// so sparse frame ranges (static partitioning hands each domain a frame
// window starting at partition*size) cost one directory slot, while the
// steady-state Increment/Counter path is pure indexing with no map hashing
// and no allocation.
const (
	ctrChunkShift = 9
	ctrChunkPages = 1 << ctrChunkShift
	ctrChunkMask  = ctrChunkPages - 1
)

type ctrChunk struct {
	live   [ctrChunkPages / 64]uint64
	blocks [ctrChunkPages]Block
}

// Store holds the counter blocks of all allocated pages, keyed by physical
// frame number. Blocks are created on demand (zero counters).
type Store struct {
	minorBits int
	minorMax  uint8
	chunks    []*ctrChunk
	count     int

	Increments stats.Counter
	Overflows  stats.Counter
}

// NewStore creates a counter store with the given minor-counter width.
func NewStore(minorBits int) *Store {
	if minorBits <= 0 || minorBits > 8 {
		panic(fmt.Sprintf("ctr: unsupported minor width %d", minorBits))
	}
	return &Store{
		minorBits: minorBits,
		minorMax:  uint8(1<<uint(minorBits) - 1),
	}
}

// peek returns the live block for pfn, or nil.
func (s *Store) peek(pfn layout.PFN) *Block {
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
//
//ivlint:hotpath
func (s *Store) Get(pfn layout.PFN) *Block {
	ci := int(pfn >> ctrChunkShift)
	for len(s.chunks) <= ci {
		//ivlint:allow hotalloc — lazy chunk-directory growth: bounded by the PFN range, quiesces after warmup
		s.chunks = append(s.chunks, nil)
	}
	ch := s.chunks[ci]
	if ch == nil {
		ch = &ctrChunk{}
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
func (s *Store) Peek(pfn layout.PFN) *Block { return s.peek(pfn) }

// Counter returns the effective encryption counter for block bi of page
// pfn (zero for untouched pages).
//
//ivlint:hotpath
func (s *Store) Counter(pfn layout.PFN, bi int) uint64 {
	b := s.peek(pfn)
	if b == nil {
		return 0
	}
	return b.Counter(bi, s.minorBits)
}

// Increment bumps the minor counter of block bi in page pfn, returning
// true when the minor overflowed (major incremented, all minors reset —
// the caller must re-encrypt the page).
//
//ivlint:hotpath
func (s *Store) Increment(pfn layout.PFN, bi int) (overflow bool) {
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

// Drop removes the counter block of a freed page. A reallocated page gets
// fresh zero counters; the integrity tree update on re-mapping preserves
// security in the model (the paper's hardware would instead continue the
// counter, which is equivalent for the structures under study).
func (s *Store) Drop(pfn layout.PFN) {
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
func (s *Store) Len() int { return s.count }

// Snapshot returns the counter block value (copy) for hashing into the
// integrity tree; untouched pages hash as the zero block.
func (s *Store) Snapshot(pfn layout.PFN) Block {
	if b := s.peek(pfn); b != nil {
		return *b
	}
	return Block{}
}

// PFNs returns the page frame numbers with materialized counter blocks in
// ascending order.
func (s *Store) PFNs() []layout.PFN {
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

// Clone deep-copies the store — the persisted counter image of a crash
// snapshot. Statistics counters are carried over.
func (s *Store) Clone() *Store {
	c := &Store{
		minorBits:  s.minorBits,
		minorMax:   s.minorMax,
		chunks:     make([]*ctrChunk, len(s.chunks)),
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

// RegisterMetrics registers the store's counters with a telemetry registry.
func (s *Store) RegisterMetrics(r *telemetry.Registry, prefix string) {
	r.RegisterCounter(prefix+".increments", &s.Increments)
	r.RegisterCounter(prefix+".overflows", &s.Overflows)
}
