package figures

import (
	"strconv"
	"strings"
	"testing"

	"ivleague/internal/analysis"
	"ivleague/internal/config"
	"ivleague/internal/workload"
)

// tinyOptions shrinks everything so the whole figure pipeline runs in a
// few seconds of test time.
func tinyOptions(t *testing.T, mixNames ...string) Options {
	t.Helper()
	o := Quick()
	o.Cfg.Sim.WarmupInstr = 5_000
	o.Cfg.Sim.MeasureInstr = 15_000
	o.Cfg.Sim.FootprintScale = 0.03
	o.Trials = 50
	var mixes []workload.Mix
	for _, n := range mixNames {
		m, err := workload.MixByName(n)
		if err != nil {
			t.Fatal(err)
		}
		mixes = append(mixes, m)
	}
	o.Mixes = mixes
	return o
}

func TestRunSetFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed figures")
	}
	o := tinyOptions(t, "S-1", "M-6", "L-2")
	rs, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	f15t, err := rs.Fig15()
	if err != nil {
		t.Fatal(err)
	}
	f15 := f15t.String()
	for _, want := range []string{"S-1", "M-6", "L-2", "gmeanS", "gmeanM", "gmeanL", "IvLeague-Pro"} {
		if !strings.Contains(f15, want) {
			t.Fatalf("Fig15 missing %q:\n%s", want, f15)
		}
	}
	f16 := rs.Fig16().String()
	if !strings.Contains(f16, "gcc") || !strings.Contains(f16, "tc") {
		t.Fatalf("Fig16 missing benchmarks:\n%s", f16)
	}
	f17b := rs.Fig17b().String()
	if !strings.Contains(f17b, "avgS") {
		t.Fatalf("Fig17b malformed:\n%s", f17b)
	}
	f18 := rs.Fig18().String()
	if !strings.Contains(f18, "%") {
		t.Fatalf("Fig18 malformed:\n%s", f18)
	}
	f19 := rs.Fig19().String()
	if !strings.Contains(f19, "S-1") {
		t.Fatalf("Fig19 malformed:\n%s", f19)
	}
}

func TestAnalyticalFigures(t *testing.T) {
	o := tinyOptions(t, "S-1")
	f21 := Fig21().String()
	if !strings.Contains(f21, "8GB") || !strings.Contains(f21, "32GB") {
		t.Fatalf("Fig21 malformed:\n%s", f21)
	}
	f22t, err := Fig22(o)
	if err != nil {
		t.Fatal(err)
	}
	f22 := f22t.String()
	if !strings.Contains(f22, "80%") {
		t.Fatalf("Fig22 malformed:\n%s", f22)
	}
	t3 := Table3(&o.Cfg).String()
	for _, want := range []string{"NFL", "LMM cache", "Hotpage predictor", "total on-chip"} {
		if !strings.Contains(t3, want) {
			t.Fatalf("Table3 missing %q:\n%s", want, t3)
		}
	}
}

// TestFig22IvLeagueProvisioned runs Figure 22 at quick scale. At every
// point the Section VI-D2 count must cover the memory, and IvLeague must
// schedule at least 98% of the trials, as in the paper.
func TestFig22IvLeagueProvisioned(t *testing.T) {
	o := Quick()
	f22, err := Fig22(o)
	if err != nil {
		t.Fatal(err)
	}
	s := o.Cfg.TreeLingBytes()
	for _, row := range f22.Rows {
		util, domains, memGB, iv := row[0], row[1], row[2], row[4]
		gb, err := strconv.Atoi(memGB)
		if err != nil {
			t.Fatal(err)
		}
		m := uint64(gb) << 30
		if n := analysis.ProvisionedTreeLings(m, analysis.MaxDomains, s); n*s < m {
			t.Errorf("%s GB: %d TreeLings of %d MiB do not cover the memory", memGB, n, s>>20)
		}
		rate, err := strconv.ParseFloat(iv, 64)
		if err != nil {
			t.Fatal(err)
		}
		if rate < 0.98 {
			t.Errorf("util %s, %s domains, %s GB: IvLeague success %.2f, want at least 0.98", util, domains, memGB, rate)
		}
	}
}

func TestFig3AttackTable(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	o := tinyOptions(t, "S-1")
	f3, err := Fig3(o)
	if err != nil {
		t.Fatal(err)
	}
	out := f3.String()
	if !strings.Contains(out, "Baseline") || !strings.Contains(out, "IvLeague-Pro") {
		t.Fatalf("Fig3 malformed:\n%s", out)
	}
	// Baseline must share nodes; IvLeague must not.
	lines := strings.Split(out, "\n")
	for _, l := range lines {
		if strings.HasPrefix(l, "Baseline") && !strings.Contains(l, "true") {
			t.Fatalf("baseline row lacks shared nodes: %s", l)
		}
		if strings.HasPrefix(l, "IvLeague") && !strings.Contains(l, "false") {
			t.Fatalf("IvLeague row shows sharing: %s", l)
		}
	}
}

func TestRepresentativeMixes(t *testing.T) {
	got := representativeMixes(workload.Mixes())
	if len(got) != 6 {
		t.Fatalf("got %d representative mixes", len(got))
	}
	counts := map[workload.Class]int{}
	for _, m := range got {
		counts[m.Class]++
	}
	for _, c := range []workload.Class{workload.Small, workload.Medium, workload.Large} {
		if counts[c] != 2 {
			t.Fatalf("class %v has %d representatives", c, counts[c])
		}
	}
}

func TestPerfSchemes(t *testing.T) {
	s := PerfSchemes()
	if len(s) != 4 || s[0] != config.SchemeBaseline {
		t.Fatalf("unexpected scheme set: %v", s)
	}
}
