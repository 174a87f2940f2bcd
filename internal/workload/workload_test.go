package workload

import (
	"reflect"
	"testing"

	"ivleague/internal/config"
)

func TestAll26BenchmarksPresent(t *testing.T) {
	b := Benchmarks()
	if len(b) != 26 {
		t.Fatalf("got %d benchmarks, want 26", len(b))
	}
	for name, p := range b {
		if p.FootprintMB <= 0 || p.MemOpFrac <= 0 || p.MemOpFrac >= 1 {
			t.Fatalf("%s has bad parameters: %+v", name, p)
		}
		if p.Threads != 1 && p.Threads != 2 {
			t.Fatalf("%s has %d threads", name, p.Threads)
		}
	}
}

func TestMixesMatchTableII(t *testing.T) {
	mixes := Mixes()
	if len(mixes) != 16 {
		t.Fatalf("got %d mixes, want 16", len(mixes))
	}
	counts := map[Class]int{}
	for _, m := range mixes {
		counts[m.Class]++
		if len(m.Procs) != 4 {
			t.Fatalf("%s has %d processes", m.Name, len(m.Procs))
		}
	}
	if counts[Small] != 6 || counts[Medium] != 6 || counts[Large] != 4 {
		t.Fatalf("class counts %v", counts)
	}
}

func TestFootprintClassBands(t *testing.T) {
	for _, m := range Mixes() {
		mb := m.FootprintMB()
		switch m.Class {
		case Small:
			if mb >= 5<<10 {
				t.Fatalf("%s: %d MB not < 5 GB", m.Name, mb)
			}
		case Medium:
			if mb < 5<<10 || mb > 10<<10 {
				t.Fatalf("%s: %d MB not in 5–10 GB", m.Name, mb)
			}
		case Large:
			if mb <= 10<<10 {
				t.Fatalf("%s: %d MB not > 10 GB", m.Name, mb)
			}
		}
	}
}

func TestS1MatchesPaper(t *testing.T) {
	m, err := MixByName("S-1")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"gcc", "cactuBSSN", "perlbench", "deepsjeng"}
	for i, p := range m.Procs {
		if p.Name != want[i] {
			t.Fatalf("S-1[%d] = %s, want %s", i, p.Name, want[i])
		}
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	p, _ := ByName("mcf")
	a := NewGenerator(p, 7, 0, GenOpts{Scale: 0.1})
	b := NewGenerator(p, 7, 0, GenOpts{Scale: 0.1})
	for i := 0; i < 5000; i++ {
		ea, eb := a.Next(), b.Next()
		if ea != eb {
			t.Fatalf("streams diverge at %d: %+v vs %+v", i, ea, eb)
		}
	}
}

func TestGeneratorEventsInBounds(t *testing.T) {
	p, _ := ByName("canneal")
	g := NewGenerator(p, 3, 1, GenOpts{Scale: 0.05})
	for i := 0; i < 50000; i++ {
		ev := g.Next()
		if !ev.Mem {
			continue
		}
		if ev.VPN >= g.pages {
			t.Fatalf("VPN %d out of %d pages", ev.VPN, g.pages)
		}
		if ev.Block < 0 || ev.Block >= config.BlocksPerPage {
			t.Fatalf("block %d out of range", ev.Block)
		}
	}
}

func TestInitSweepCoversRange(t *testing.T) {
	p, _ := ByName("x264")
	g := NewGenerator(p, 5, 0, GenOpts{Scale: 0.1, InitFrac: 0.5})
	want := g.pages / 2
	seen := map[uint64]bool{}
	// Drain the init sweep: all init events are writes in VA order.
	for uint64(len(seen)) < want {
		ev := g.Next()
		if !ev.Mem {
			continue
		}
		if uint64(len(seen)) < want && !ev.Write {
			t.Fatal("init sweep must write")
		}
		seen[ev.VPN] = true
	}
	for v := uint64(0); v < want; v++ {
		if !seen[v] {
			t.Fatalf("init sweep skipped page %d", v)
		}
	}
}

func TestInitInstrEstimate(t *testing.T) {
	p, _ := ByName("gcc")
	g := NewGenerator(p, 5, 0, GenOpts{Scale: 0.1, InitFrac: 0.5})
	est := g.InitInstr()
	if est == 0 {
		t.Fatal("zero init estimate with InitFrac 0.5")
	}
	// Run est instructions; the sweep must be finished.
	for i := uint64(0); i < est; i++ {
		g.Next()
	}
	if g.initNext < g.initEnd {
		t.Fatalf("init sweep not finished after %d instructions (%d/%d)", est, g.initNext, g.initEnd)
	}
}

func TestChurnCallback(t *testing.T) {
	p, _ := ByName("dedup") // ChurnPeriod 25000
	g := NewGenerator(p, 9, 0, GenOpts{Scale: 0.1, InitFrac: 0})
	freed := 0
	g.OnFreeRange = func(start uint64, n int) {
		if start+uint64(n) > g.pages {
			t.Fatalf("churn range [%d,+%d) out of bounds", start, n)
		}
		freed += n
	}
	for i := 0; i < 200000; i++ {
		g.Next()
	}
	if freed == 0 {
		t.Fatal("churn never fired")
	}
}

func TestUnknownNamesError(t *testing.T) {
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
	if _, err := MixByName("Z-9"); err == nil {
		t.Fatal("unknown mix accepted")
	}
}

func TestThreadsShareHotSetButSplitStreams(t *testing.T) {
	p, _ := ByName("bfs") // 2 threads
	g0 := NewGenerator(p, 11, 0, GenOpts{Scale: 0.05})
	g1 := NewGenerator(p, 11, 1, GenOpts{Scale: 0.05})
	if g0.scanBase == g1.scanBase {
		t.Fatal("threads stream through the same region")
	}
	// Identical permutation (process-level).
	for i := 0; i < 100; i++ {
		if g0.perm[i] != g1.perm[i] {
			t.Fatal("threads disagree on the VA permutation")
		}
	}
}

// TestNewGeneratorsMatchesNewGenerator checks that generators sharing one
// permutation produce each thread's NewGenerator stream, churn callbacks
// included, and that they really share it.
func TestNewGeneratorsMatchesNewGenerator(t *testing.T) {
	p, _ := ByName("dedup") // 2 threads, ChurnPeriod 25000
	opts := GenOpts{Scale: 0.1, InitFrac: 0.2}
	gens := NewGenerators(p, 13, opts)
	if len(gens) != p.Threads {
		t.Fatalf("%d generators for %d threads", len(gens), p.Threads)
	}
	if &gens[0].perm[0] != &gens[1].perm[0] {
		t.Fatal("threads of one process built separate permutations")
	}
	for ti, g := range gens {
		ref := NewGenerator(p, 13, ti, opts)
		var churn, refChurn []uint64
		g.OnFreeRange = func(start uint64, n int) { churn = append(churn, start, uint64(n)) }
		ref.OnFreeRange = func(start uint64, n int) { refChurn = append(refChurn, start, uint64(n)) }
		for i := 0; i < 100_000; i++ {
			if e, want := g.Next(), ref.Next(); e != want {
				t.Fatalf("thread %d, event %d: %+v, NewGenerator %+v", ti, i, e, want)
			}
		}
		if len(refChurn) == 0 || !reflect.DeepEqual(churn, refChurn) {
			t.Fatalf("thread %d: churn %v, NewGenerator %v", ti, churn, refChurn)
		}
	}
}
