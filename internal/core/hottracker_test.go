package core

import (
	"slices"
	"testing"

	"ivleague/internal/rng"
)

// scanTracker is the hot tracker as it was before the index and the
// replacement heap: find scans a dense key array, a miss scans the entries
// for the first invalid one, else the lowest-index smallest counter. It
// is the reference the indexed tracker must reproduce decision for
// decision.
type scanTracker struct {
	entries  []hotEntry
	keys     []uint64 // entries[i].pfn when valid, noKey otherwise
	max      uint32
	thresh   uint32
	interval uint64
	accesses uint64
}

func newScanTracker(n, counterBits int, thresh uint32, interval uint64) *scanTracker {
	t := &scanTracker{
		entries:  make([]hotEntry, n),
		keys:     make([]uint64, n),
		max:      1<<uint(counterBits) - 1,
		thresh:   thresh,
		interval: interval,
	}
	for i := range t.keys {
		t.keys[i] = noKey
	}
	return t
}

func (t *scanTracker) find(key uint64) int {
	for i, k := range t.keys {
		if k == key {
			return i
		}
	}
	return -1
}

// observe returns whether key's counter just reached the threshold, as
// the seed's observe did (its victim result had no caller).
func (t *scanTracker) observe(key uint64) bool {
	t.accesses++
	if t.interval > 0 && t.accesses%t.interval == 0 {
		for i := range t.entries {
			t.entries[i].count = 0
		}
	}
	if i := t.find(key); i >= 0 {
		e := &t.entries[i]
		if e.count < t.max {
			e.count++
		}
		return e.count == t.thresh
	}
	slot := -1
	for i := range t.entries {
		if !t.entries[i].valid {
			slot = i
			break
		}
		if slot < 0 || t.entries[i].count < t.entries[slot].count {
			slot = i
		}
	}
	if t.entries[slot].valid && t.entries[slot].count > 1 {
		t.entries[slot].count--
		return false
	}
	t.entries[slot] = hotEntry{pfn: key, count: 1, valid: true}
	t.keys[slot] = key
	return t.thresh == 1
}

func (t *scanTracker) atThreshold(key uint64) bool {
	if i := t.find(key); i >= 0 {
		return t.entries[i].count >= t.thresh
	}
	return false
}

// TestHotTrackerMatchesScan drives the indexed tracker and the scanning
// reference with the same Zipf key streams and requires the same answer
// to OnAccess's question after every access (the reference's
// hot || atThreshold) and the same entries, in the same index order.
func TestHotTrackerMatchesScan(t *testing.T) {
	const observations = 1 << 20
	cases := []struct {
		name         string
		entries      int
		bits         int
		thresh       uint32
		interval     uint64
		wantSaturate bool // some counter reaches its saturation value
	}{
		{"default", 128, 8, 32, 1 << 17, true},
		{"clear-1000", 128, 8, 32, 1000, false},
		{"1-entry", 1, 8, 4, 1 << 17, false},
		{"2-entries", 2, 8, 4, 1 << 17, true},
		{"4-entries", 4, 8, 4, 1 << 17, true},
		{"70-entries-3-bit", 70, 3, 6, 1 << 17, true},
		{"threshold-0", 128, 8, 0, 1 << 17, true},
		{"threshold-1", 128, 8, 1, 1 << 17, true},
		{"32-bit", 128, 32, 32, 0, false},
		{"512-entries", 512, 8, 32, 1 << 17, true},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			got := newHotTracker(tc.entries, tc.bits, tc.thresh, tc.interval)
			ref := newScanTracker(tc.entries, tc.bits, tc.thresh, tc.interval)
			r := rng.New(uint64(tc.entries)<<8 ^ uint64(tc.bits))
			// Eight keys per entry, so replacement runs all the time,
			// offset so keys are not small integers.
			keys := uint64(8 * tc.entries)
			if keys < 16 {
				keys = 16
			}
			z := rng.NewZipf(keys, 0.9)
			hot, saturated := 0, false
			for n := 1; n <= observations; n++ {
				key := z.Next(r)*0x10001 + 1<<32
				h := got.observe(key)
				want := ref.observe(key) || ref.atThreshold(key)
				if h != want {
					t.Fatalf("observation %d (key %#x): observe = %t, reference %t", n, key, h, want)
				}
				if h {
					hot++
				}
				if n%4096 == 0 || n == observations {
					compareTrackers(t, n, got, ref)
					for _, e := range ref.entries {
						saturated = saturated || (e.valid && e.count == ref.max)
					}
				}
			}
			if hot == 0 || hot == observations {
				t.Fatalf("%d of %d observations reported hot: the stream does not exercise the threshold", hot, observations)
			}
			if saturated != tc.wantSaturate {
				t.Fatalf("saturated = %t, want %t", saturated, tc.wantSaturate)
			}
		})
	}
}

func compareTrackers(t *testing.T, n int, got *hotTracker, ref *scanTracker) {
	t.Helper()
	if got.accesses != ref.accesses {
		t.Fatalf("after %d observations: accesses %d, reference %d", n, got.accesses, ref.accesses)
	}
	for i := range ref.entries {
		if got.entries[i] != ref.entries[i] {
			t.Fatalf("after %d observations: entry %d = %+v, reference %+v", n, i, got.entries[i], ref.entries[i])
		}
	}
	if want := validEntries(ref.entries); got.index.n != want {
		t.Fatalf("after %d observations: index holds %d keys, %d entries are valid", n, got.index.n, want)
	}
}

func validEntries(es []hotEntry) int {
	n := 0
	for _, e := range es {
		if e.valid {
			n++
		}
	}
	return n
}

// TestU64TableMatchesMap drives the table and a Go map with the same
// random set, get and del sequence. A third of the keys share the last
// home cell at every table size up to 1024 cells, so they collide with
// each other and their probe runs wrap around the end of the array; the
// population climbs through several doublings, falls back and climbs
// again.
func TestU64TableMatchesMap(t *testing.T) {
	probe := newU64Table(512)
	if len(probe.cells) != 1024 {
		t.Fatalf("newU64Table(512) has %d cells, want 1024", len(probe.cells))
	}
	var pool []uint64
	for k := uint64(0); len(pool) < 400; k++ {
		if probe.home(k) == 1023 {
			pool = append(pool, k)
		}
	}
	r := rng.New(7)
	for i := 0; i < 400; i++ {
		pool = append(pool, uint64(i)+1<<20, r.Uint64()>>1)
	}

	tab := newU64Table(0)
	ref := make(map[uint64]uint64)
	check := func(step int) {
		t.Helper()
		if tab.n != len(ref) {
			t.Fatalf("step %d: len %d, map %d", step, tab.n, len(ref))
		}
		for _, k := range pool {
			v, ok := tab.get(k)
			rv, rok := ref[k]
			if ok != rok || v != rv {
				t.Fatalf("step %d: get(%#x) = %d, %t; map %d, %t", step, k, v, ok, rv, rok)
			}
		}
	}
	maxCells := len(tab.cells)
	for step := 0; step < 60_000; step++ {
		// Mostly grow for the first and third phases, mostly shrink in
		// the second.
		setP := 0.7
		if phase := step / 20_000; phase == 1 {
			setP = 0.3
		}
		k := pool[r.Intn(len(pool))]
		switch {
		case r.Bool(setP):
			v := r.Uint64()
			tab.set(k, v)
			ref[k] = v
		default:
			tab.del(k)
			delete(ref, k)
		}
		if step%97 == 0 {
			check(step)
		}
		if len(tab.cells) > maxCells {
			maxCells = len(tab.cells)
		}
		if 2*tab.n > len(tab.cells) {
			t.Fatalf("step %d: %d keys in %d cells, past half load", step, tab.n, len(tab.cells))
		}
	}
	check(60_000)
	if maxCells < 8*minTableCells {
		t.Fatalf("table grew only to %d cells: too few doublings", maxCells)
	}
	want := make([]uint64, 0, len(ref))
	for _, k := range pool {
		if _, ok := ref[k]; ok {
			want = append(want, k)
		}
	}
	slices.Sort(want)
	if got := tab.sortedKeys(); !slices.Equal(got, want) {
		t.Fatalf("sortedKeys = %v, want %v", got, want)
	}
}

// TestU64TableChurnAllocsZero checks that set/del churn at a population
// the table has already held allocates nothing.
func TestU64TableChurnAllocsZero(t *testing.T) {
	tab := newU64Table(0)
	const pop = 100
	for k := uint64(0); k < pop; k++ {
		tab.set(k, k)
	}
	next := uint64(pop)
	allocs := testing.AllocsPerRun(1000, func() {
		tab.del(next - pop)
		tab.set(next, next)
		next++
	})
	if allocs != 0 {
		t.Fatalf("churn at a fixed population allocated %.1f times per op", allocs)
	}
}
