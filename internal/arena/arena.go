// Package arena holds the simulator's one frame-indexed sparse array. The
// counter store, the secure-memory controller's page metadata and its
// functional data plane each keep one entry per physical frame; all three
// keep it in a Chunked.
package arena

import "ivleague/internal/layout"

// ChunkShift sets the chunk length: a chunk holds the entries of
// ChunkLen = 2^ChunkShift consecutive frames.
const (
	ChunkShift = 9
	ChunkLen   = 1 << ChunkShift
	chunkMask  = ChunkLen - 1
)

// Chunked is a sparse array of T indexed by frame number: a directory of
// ChunkLen-entry chunks, each made on first touch. Sparse frame ranges
// (static partitioning starts each domain's frames at its partition's
// base) cost one directory slot per untouched chunk, and a lookup on the
// access path is two indexings, with no hashing and no allocation once
// the chunk exists. The zero value is an empty array. A pointer into a
// chunk stays valid for the array's lifetime: the directory grows, the
// chunks never move.
type Chunked[T any] struct {
	chunks []*[ChunkLen]T
}

// Get returns pfn's entry, or nil while its chunk is untouched. An entry
// in a touched chunk that was never written is T's zero value.
func (a *Chunked[T]) Get(pfn layout.PFN) *T {
	ci := uint64(pfn >> ChunkShift)
	if ci >= uint64(len(a.chunks)) || a.chunks[ci] == nil {
		return nil
	}
	return &a.chunks[ci][pfn&chunkMask]
}

// Ensure returns pfn's entry, making its chunk (zeroed) if it is untouched.
//
//ivlint:hotpath
func (a *Chunked[T]) Ensure(pfn layout.PFN) *T {
	ci := uint64(pfn >> ChunkShift)
	for uint64(len(a.chunks)) <= ci {
		//ivlint:allow hotalloc — lazy directory growth: bounded by the frame range, quiesces after warmup
		a.chunks = append(a.chunks, nil)
	}
	ch := a.chunks[ci]
	if ch == nil {
		ch = new([ChunkLen]T)
		a.chunks[ci] = ch
	}
	return &ch[pfn&chunkMask]
}

// Each calls fn on every entry of every touched chunk, in ascending frame
// order.
func (a *Chunked[T]) Each(fn func(pfn layout.PFN, v *T)) {
	for ci, ch := range a.chunks {
		if ch == nil {
			continue
		}
		base := layout.PFN(ci) << ChunkShift
		for i := range ch {
			fn(base+layout.PFN(i), &ch[i])
		}
	}
}

// Clone returns a copy that shares no chunk with a: each entry is copied
// by value, so entries that are pointers still share what they point to.
func (a *Chunked[T]) Clone() Chunked[T] {
	c := Chunked[T]{chunks: make([]*[ChunkLen]T, len(a.chunks))}
	for ci, ch := range a.chunks {
		if ch != nil {
			cp := *ch
			c.chunks[ci] = &cp
		}
	}
	return c
}
