package ctr

import (
	"testing"
	"testing/quick"
)

func TestIncrementAndCounter(t *testing.T) {
	s := NewStore(7)
	if s.Counter(5, 0) != 0 {
		t.Fatal("untouched counter not zero")
	}
	if over := s.Increment(5, 0); over {
		t.Fatal("first increment overflowed")
	}
	if got := s.Counter(5, 0); got != 1 {
		t.Fatalf("counter = %d, want 1", got)
	}
	// Counters of other blocks unaffected.
	if s.Counter(5, 1) != 0 {
		t.Fatal("neighbour block counter changed")
	}
}

func TestMinorOverflow(t *testing.T) {
	s := NewStore(7)
	s.Increment(1, 3)
	for i := 0; i < 126; i++ {
		if over := s.Increment(1, 3); over {
			t.Fatalf("premature overflow at %d", i)
		}
	}
	// Minor now at 127 (max for 7 bits); next increment overflows.
	if over := s.Increment(1, 3); !over {
		t.Fatal("expected overflow")
	}
	b := s.Snapshot(1)
	if b.Major != 1 {
		t.Fatalf("major = %d, want 1", b.Major)
	}
	for i, m := range b.Minors {
		if m != 0 {
			t.Fatalf("minor %d not reset: %d", i, m)
		}
	}
	if s.Overflows.Value() != 1 {
		t.Fatalf("overflows = %d", s.Overflows.Value())
	}
}

func TestEffectiveCounterMonotoneAcrossOverflow(t *testing.T) {
	s := NewStore(2) // tiny minors: overflow every 4 writes
	prev := uint64(0)
	for i := 0; i < 40; i++ {
		s.Increment(9, 0)
		cur := s.Counter(9, 0)
		if cur <= prev && i > 0 {
			// After an overflow the effective counter of the same block
			// must still strictly grow (major<<bits dominates).
			t.Fatalf("counter not monotone at %d: %d -> %d", i, prev, cur)
		}
		prev = cur
	}
}

func TestDrop(t *testing.T) {
	s := NewStore(7)
	s.Increment(2, 0)
	if s.Len() != 1 {
		t.Fatalf("len %d", s.Len())
	}
	s.Drop(2)
	if s.Len() != 0 || s.Counter(2, 0) != 0 {
		t.Fatal("drop failed")
	}
}

func TestSnapshotIsCopy(t *testing.T) {
	s := NewStore(7)
	s.Increment(3, 1)
	snap := s.Snapshot(3)
	s.Increment(3, 1)
	if snap.Minors[1] != 1 {
		t.Fatal("snapshot mutated by later increment")
	}
	zero := s.Snapshot(99)
	if zero.Major != 0 {
		t.Fatal("missing page snapshot not zero")
	}
}

func TestNewStoreRejectsBadWidth(t *testing.T) {
	for _, w := range []int{0, 8, 9, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("width %d did not panic", w)
				}
			}()
			NewStore(w)
		}()
	}
}

// Property: the effective counter equals major<<bits | minor for any
// sequence of increments.
func TestCounterComposition(t *testing.T) {
	f := func(incs uint8) bool {
		s := NewStore(3)
		for i := 0; i < int(incs); i++ {
			s.Increment(0, 2)
		}
		b := s.Snapshot(0)
		return s.Counter(0, 2) == b.Major<<3|uint64(b.Minors[2])
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
