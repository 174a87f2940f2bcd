package ctr

import (
	"math/bits"
	"slices"
	"testing"

	"ivleague/internal/config"
	"ivleague/internal/layout"
	"ivleague/internal/rng"
)

// liveBlocks returns the number of live counter blocks in s.
func liveBlocks(s *Store) int {
	n := 0
	for _, w := range s.live {
		n += bits.OnesCount64(w)
	}
	return n
}

// hotBlocks are the blocks the hammer ops bump. At 7-bit width, minors 9
// to 54 of them straddle a word boundary.
var hotBlocks = [...]int{0, 9, 18, 27, 36, 45, 54, 63}

// hammerPFN is the first of two pages that only the hammer ops touch, so
// no Drop or Set resets their minors before they overflow.
const hammerPFN = 3 * ctrChunkPages

// drawPFN picks a page for the other ops: a quarter of draws fall in
// chunk 16, behind a run of never-touched directory slots, the rest in
// the first three chunks.
func drawPFN(draw func(uint64) uint64) layout.PFN {
	if draw(4) == 0 {
		return layout.PFN(16*ctrChunkPages + draw(ctrChunkPages))
	}
	return layout.PFN(draw(3 * ctrChunkPages))
}

// checkAgainstReference drives a Store and the reference store with the
// same decoded op stream (Increment, Counter, Snapshot, Has, Drop, Set,
// Clone) while more reports true, and fails on the first return value,
// length or counter they disagree on. It ends by comparing PFNs and every
// live block, and returns the store.
func checkAgainstReference(tb testing.TB, w int, more func() bool, draw func(uint64) uint64) *Store {
	tb.Helper()
	s, ref := NewStore(w), newRefStore(w)
	for i := 0; more(); i++ {
		pfn, bi := drawPFN(draw), int(draw(64))
		switch op := draw(1000); {
		case op < 300:
			// Hammer: 30% of ops land on 16 (page, block) pairs, so the
			// two pages overflow many times at every width.
			pfn, bi = hammerPFN+layout.PFN(draw(2)), hotBlocks[draw(uint64(len(hotBlocks)))]
			if got, want := s.Increment(pfn, bi), ref.Increment(pfn, bi); got != want {
				tb.Fatalf("w=%d op %d: Increment(%d, %d) overflow = %v; reference %v", w, i, pfn, bi, got, want)
			}
			if got, want := s.Counter(pfn, bi), ref.Counter(pfn, bi); got != want {
				tb.Fatalf("w=%d op %d: Counter(%d, %d) = %d; reference %d", w, i, pfn, bi, got, want)
			}
		case op < 600:
			if got, want := s.Increment(pfn, bi), ref.Increment(pfn, bi); got != want {
				tb.Fatalf("w=%d op %d: Increment(%d, %d) overflow = %v; reference %v", w, i, pfn, bi, got, want)
			}
		case op < 700:
			if got, want := s.Counter(pfn, bi), ref.Counter(pfn, bi); got != want {
				tb.Fatalf("w=%d op %d: Counter(%d, %d) = %d; reference %d", w, i, pfn, bi, got, want)
			}
		case op < 800:
			if got, want := s.Snapshot(pfn), ref.Snapshot(pfn); got != want {
				tb.Fatalf("w=%d op %d: Snapshot(%d) = %+v; reference %+v", w, i, pfn, got, want)
			}
		case op < 860:
			if got, want := s.Has(pfn), ref.Peek(pfn) != nil; got != want {
				tb.Fatalf("w=%d op %d: Has(%d) = %v; reference %v", w, i, pfn, got, want)
			}
		case op < 930:
			s.Drop(pfn)
			ref.Drop(pfn)
		case op < 998:
			b := Block{Major: draw(1 << 32)}
			for j := range b.Minors {
				b.Minors[j] = uint8(draw(1 << uint(w)))
			}
			s.Set(pfn, b)
			*ref.Get(pfn) = b
		default:
			// Clone both, then bump the clones: the originals must not move.
			old, oldRef := s, ref
			s, ref = s.Clone(), ref.Clone()
			s.Increment(pfn, bi)
			ref.Increment(pfn, bi)
			if got, want := old.Snapshot(pfn), oldRef.Snapshot(pfn); got != want {
				tb.Fatalf("w=%d op %d: original Snapshot(%d) after a clone's Increment = %+v; reference %+v", w, i, pfn, got, want)
			}
		}
		if n := liveBlocks(s); n != ref.Len() || s.Increments.Value() != ref.Increments.Value() ||
			s.Overflows.Value() != ref.Overflows.Value() {
			tb.Fatalf("w=%d op %d: len/increments/overflows %d/%d/%d; reference %d/%d/%d", w, i,
				n, s.Increments.Value(), s.Overflows.Value(),
				ref.Len(), ref.Increments.Value(), ref.Overflows.Value())
		}
	}
	pfns := s.PFNs()
	if want := ref.PFNs(); !slices.Equal(pfns, want) {
		tb.Fatalf("w=%d: PFNs = %v; reference %v", w, pfns, want)
	}
	for _, pfn := range pfns {
		if got, want := s.Snapshot(pfn), ref.Snapshot(pfn); got != want {
			tb.Fatalf("w=%d: final Snapshot(%d) = %+v; reference %+v", w, pfn, got, want)
		}
	}
	return s
}

// TestMatchesReferenceStore checks the packed store against the unpacked
// reference at every minor width, overflowing the hammered pages dozens
// of times even at 7 bits.
func TestMatchesReferenceStore(t *testing.T) {
	const ops = 200_000
	for w := 1; w <= config.MaxMinorBits; w++ {
		r := rng.New(uint64(w) + 31)
		n := 0
		more := func() bool { n++; return n <= ops }
		if s := checkAgainstReference(t, w, more, r.Uint64n); s.Overflows.Value() < 40 {
			t.Fatalf("w=%d: %d overflows; the two hammered pages alone should overflow dozens of times", w, s.Overflows.Value())
		}
	}
}

// TestRecordLayout pins the packed layout DESIGN.md §17 describes: the
// major counter in word 0, 7-bit minor i at bits [7i, 7i+7) of words 1–7,
// and minor 9 split across words 1 and 2.
func TestRecordLayout(t *testing.T) {
	s := NewStore(7)
	b := Block{Major: 5}
	b.Minors[0] = 0x7f
	b.Minors[9] = 0b1010101
	b.Minors[63] = 1
	s.Set(0, b)
	r := s.recs.Get(0)
	if r[0] != 5 {
		t.Fatalf("word 0 = %#x, want the major 5", r[0])
	}
	if r[1] != 0x7f|1<<63 || r[2] != 0b101010 {
		t.Fatalf("words 1, 2 = %#x, %#x; want minor 0 in bits 0-6 and minor 9 split at bit 63", r[1], r[2])
	}
	if r[7] != 1<<57 {
		t.Fatalf("word 7 = %#x, want minor 63 at bit 57", r[7])
	}
}
