// Package ctr implements the split encryption counters of counter-mode
// secure memory: one 64-bit major counter per page plus a small per-block
// minor counter (7-bit by default). A data block's effective encryption
// counter is major<<minorBits | minor; incrementing a minor past its width
// overflows into the major counter and forces a page re-encryption, as in
// VAULT-style designs the paper builds on.
package ctr

import (
	"fmt"
	"math/bits"

	"ivleague/internal/config"
	"ivleague/internal/layout"
	"ivleague/internal/stats"
	"ivleague/internal/telemetry"
)

// Block is the counter block covering one 4 KiB page: a shared major
// counter and one minor counter per 64-byte data block. It is the value
// the store exchanges with hashing, persistence, rollback and tamper; the
// store itself keeps each block packed in a 64-byte record.
type Block struct {
	Major  uint64
	Minors [config.BlocksPerPage]uint8
}

// record is one page's counter block as the store keeps it, one 64-byte
// line like layout.CounterBlockAddr's: word 0 is the major counter and
// words 1–7 hold the minors, minor i at bits [i·w, (i+1)·w) of that
// 448-bit run for minor width w. A minor may straddle two words.
type record [8]uint64

// minor returns minor i of a record with w-bit minors (mask = 2^w − 1).
func (r *record) minor(i int, w uint, mask uint64) uint64 {
	off := uint(i) * w
	k, sh := 1+off>>6, off&63
	v := r[k] >> sh
	if sh+w > 64 {
		v |= r[k+1] << (64 - sh)
	}
	return v & mask
}

// setMinor stores v (at most mask) as minor i.
func (r *record) setMinor(i int, w uint, mask, v uint64) {
	off := uint(i) * w
	k, sh := 1+off>>6, off&63
	r[k] = r[k]&^(mask<<sh) | v<<sh
	if sh+w > 64 {
		r[k+1] = r[k+1]&^(mask>>(64-sh)) | v>>(64-sh)
	}
}

// Records live in a two-level chunked arena indexed by PFN: a directory of
// chunks, each holding the records of ctrChunkPages consecutive frames,
// and a live bitmap per chunk kept outside it. A chunk is then exactly
// 32 KiB, the largest Go size class; with the bitmap inline it would be
// rounded up to 40 KiB (DESIGN.md §17). Chunks materialize on first
// touch, so sparse frame ranges (static partitioning hands each domain a
// frame window starting at partition*size) cost one directory slot. A
// dead record is all zeros, so reads skip the bitmap, and the
// steady-state Increment/Counter path is pure indexing with no map
// hashing and no allocation.
const (
	ctrChunkShift = 9
	ctrChunkPages = 1 << ctrChunkShift
	ctrChunkMask  = ctrChunkPages - 1
)

type ctrChunk [ctrChunkPages]record

// Store holds the counter blocks of all allocated pages, keyed by physical
// frame number. Blocks are created on demand (zero counters).
type Store struct {
	minorBits uint
	minorMask uint64
	chunks    []*ctrChunk
	live      [][ctrChunkPages / 64]uint64 // live[ci] marks chunks[ci]'s records
	count     int

	Increments stats.Counter
	Overflows  stats.Counter
}

// NewStore creates a counter store with the given minor-counter width, in
// [1, config.MaxMinorBits]; config.Validate rejects any other width first.
func NewStore(minorBits int) *Store {
	if minorBits <= 0 || minorBits > config.MaxMinorBits {
		panic(fmt.Sprintf("ctr: unsupported minor width %d", minorBits))
	}
	return &Store{
		minorBits: uint(minorBits),
		minorMask: 1<<uint(minorBits) - 1,
	}
}

// peek returns pfn's record, or nil if its chunk was never touched. A
// record that is not live reads as all zeros.
func (s *Store) peek(pfn layout.PFN) *record {
	ci := int(pfn >> ctrChunkShift)
	if ci >= len(s.chunks) || s.chunks[ci] == nil {
		return nil
	}
	return &s.chunks[ci][pfn&ctrChunkMask]
}

// get returns pfn's record, marking it live (zero counters) if it is not.
//
//ivlint:hotpath
func (s *Store) get(pfn layout.PFN) *record {
	ci := int(pfn >> ctrChunkShift)
	for len(s.chunks) <= ci {
		//ivlint:allow hotalloc — lazy chunk-directory growth: bounded by the PFN range, quiesces after warmup
		s.chunks = append(s.chunks, nil)
		//ivlint:allow hotalloc — the live bitmaps grow with the directory
		s.live = append(s.live, [ctrChunkPages / 64]uint64{})
	}
	ch := s.chunks[ci]
	if ch == nil {
		ch = &ctrChunk{}
		s.chunks[ci] = ch
	}
	idx := int(pfn & ctrChunkMask)
	if w := &s.live[ci][idx>>6]; *w&(1<<uint(idx&63)) == 0 {
		*w |= 1 << uint(idx&63)
		s.count++
	}
	return &ch[idx]
}

// Has reports whether pfn has a live counter block.
func (s *Store) Has(pfn layout.PFN) bool {
	ci := int(pfn >> ctrChunkShift)
	if ci >= len(s.live) {
		return false
	}
	idx := int(pfn & ctrChunkMask)
	return s.live[ci][idx>>6]&(1<<uint(idx&63)) != 0
}

// Counter returns the effective encryption counter for block bi of page
// pfn (zero for untouched pages).
//
//ivlint:hotpath
func (s *Store) Counter(pfn layout.PFN, bi int) uint64 {
	r := s.peek(pfn)
	if r == nil {
		return 0
	}
	return r[0]<<s.minorBits | r.minor(bi, s.minorBits, s.minorMask)
}

// Increment bumps the minor counter of block bi in page pfn, returning
// true when the minor overflowed (major incremented, all minors reset —
// the caller must re-encrypt the page).
//
//ivlint:hotpath
func (s *Store) Increment(pfn layout.PFN, bi int) (overflow bool) {
	r := s.get(pfn)
	s.Increments.Inc()
	m := r.minor(bi, s.minorBits, s.minorMask)
	if m == s.minorMask {
		r[0]++
		clear(r[1:])
		s.Overflows.Inc()
		return true
	}
	r.setMinor(bi, s.minorBits, s.minorMask, m+1)
	return false
}

// Drop removes the counter block of a freed page. A reallocated page gets
// fresh zero counters; the integrity tree update on re-mapping preserves
// security in the model (the paper's hardware would instead continue the
// counter, which is equivalent for the structures under study).
func (s *Store) Drop(pfn layout.PFN) {
	if !s.Has(pfn) {
		return
	}
	ci, idx := int(pfn>>ctrChunkShift), int(pfn&ctrChunkMask)
	s.live[ci][idx>>6] &^= 1 << uint(idx&63)
	s.chunks[ci][idx] = record{}
	s.count--
}

// Len returns the number of materialized counter blocks.
func (s *Store) Len() int { return s.count }

// Snapshot returns the counter block value (copy) for hashing into the
// integrity tree; untouched pages hash as the zero block.
func (s *Store) Snapshot(pfn layout.PFN) Block {
	var b Block
	if r := s.peek(pfn); r != nil {
		b.Major = r[0]
		for i := range b.Minors {
			b.Minors[i] = uint8(r.minor(i, s.minorBits, s.minorMask))
		}
	}
	return b
}

// Set overwrites pfn's counter block with b, creating it if absent — the
// write half of a rollback or a tamper. Each minor keeps only its low
// minor-width bits, as the packed record holds no more.
func (s *Store) Set(pfn layout.PFN, b Block) {
	r := s.get(pfn)
	*r = record{b.Major}
	for i, m := range b.Minors {
		r.setMinor(i, s.minorBits, s.minorMask, uint64(m)&s.minorMask)
	}
}

// PFNs returns the page frame numbers with materialized counter blocks in
// ascending order.
func (s *Store) PFNs() []layout.PFN {
	pfns := make([]layout.PFN, 0, s.count)
	for ci := range s.live {
		for wi, w := range s.live[ci] {
			base := layout.PFN(ci<<ctrChunkShift + wi<<6)
			for ; w != 0; w &= w - 1 {
				pfns = append(pfns, base+layout.PFN(bits.TrailingZeros64(w)))
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
		minorMask:  s.minorMask,
		chunks:     make([]*ctrChunk, len(s.chunks)),
		live:       append([][ctrChunkPages / 64]uint64(nil), s.live...),
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
