package arena

import (
	"testing"

	"ivleague/internal/layout"
)

type entry struct{ a, b uint64 }

func TestGetBeforeTouchIsNil(t *testing.T) {
	var a Chunked[entry]
	if a.Get(0) != nil || a.Get(5*ChunkLen+3) != nil {
		t.Fatal("Get on an empty array returned an entry")
	}
	a.Ensure(5*ChunkLen + 3)
	if a.Get(9*ChunkLen) != nil {
		t.Fatal("Get past the directory returned an entry")
	}
	if a.Get(2*ChunkLen+1) != nil {
		t.Fatal("Get on an untouched chunk inside the directory returned an entry")
	}
	if p := a.Get(5*ChunkLen + 4); p == nil || *p != (entry{}) {
		t.Fatalf("Get on a touched chunk's unwritten entry = %v, want a zero entry", p)
	}
}

func TestEnsureIsZeroedAndStable(t *testing.T) {
	var a Chunked[entry]
	p := a.Ensure(ChunkLen + 7)
	if *p != (entry{}) {
		t.Fatalf("fresh entry = %+v, want zero", *p)
	}
	p.a, p.b = 1, 2
	// Growing the directory must not move the chunk p points into.
	for pfn := layout.PFN(0); pfn < 64*ChunkLen; pfn += ChunkLen {
		a.Ensure(pfn)
	}
	if q := a.Ensure(ChunkLen + 7); q != p || *q != (entry{1, 2}) {
		t.Fatalf("Ensure after growth = %p %+v, want %p {1 2}", q, *q, p)
	}
	if q := a.Get(ChunkLen + 7); q != p {
		t.Fatalf("Get = %p, want %p", q, p)
	}
}

func TestEachVisitsSparseChunksInOrder(t *testing.T) {
	var a Chunked[uint64]
	written := []layout.PFN{40*ChunkLen + 1, 3, 40*ChunkLen + ChunkLen - 1, 7*ChunkLen + 5}
	for _, pfn := range written {
		*a.Ensure(pfn) = uint64(pfn) + 1
	}
	var visited, nonzero []layout.PFN
	a.Each(func(pfn layout.PFN, v *uint64) {
		visited = append(visited, pfn)
		if *v != 0 {
			if *v != uint64(pfn)+1 {
				t.Fatalf("entry %d = %d, want %d", pfn, *v, pfn+1)
			}
			nonzero = append(nonzero, pfn)
		}
	})
	if len(visited) != 3*ChunkLen {
		t.Fatalf("Each visited %d entries, want the %d of three touched chunks", len(visited), 3*ChunkLen)
	}
	for i := 1; i < len(visited); i++ {
		if visited[i] <= visited[i-1] {
			t.Fatalf("Each out of order: %d after %d", visited[i], visited[i-1])
		}
	}
	want := []layout.PFN{3, 7*ChunkLen + 5, 40*ChunkLen + 1, 40*ChunkLen + ChunkLen - 1}
	if len(nonzero) != len(want) {
		t.Fatalf("written entries visited %v, want %v", nonzero, want)
	}
	for i := range want {
		if nonzero[i] != want[i] {
			t.Fatalf("written entries visited %v, want %v", nonzero, want)
		}
	}
}

func TestCloneIsIndependent(t *testing.T) {
	var a Chunked[uint64]
	*a.Ensure(10) = 1
	c := a.Clone()
	*c.Ensure(10) = 2
	*c.Ensure(3 * ChunkLen) = 3
	if got := *a.Get(10); got != 1 {
		t.Fatalf("original entry = %d after a write to the clone, want 1", got)
	}
	if a.Get(3*ChunkLen) != nil {
		t.Fatal("a chunk made in the clone appeared in the original")
	}
	*a.Ensure(11) = 4
	if got := *c.Get(11); got != 0 {
		t.Fatalf("clone entry = %d after a write to the original, want 0", got)
	}
}

func TestLookupOnTouchedChunkAllocatesNothing(t *testing.T) {
	var a Chunked[entry]
	a.Ensure(3*ChunkLen + 9)
	if n := testing.AllocsPerRun(100, func() {
		a.Ensure(3*ChunkLen+9).a++
		a.Get(3*ChunkLen+10).b++
	}); n != 0 {
		t.Fatalf("Get and Ensure on an existing chunk: %v allocations per run, want 0", n)
	}
}
