package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"ivleague/internal/config"
	"ivleague/internal/sim"
)

// testCells returns a workload's cells at about 1/200 of their benchmark
// work. The footprint shrinks too, since an init sweep over it costs the
// same at any run length; every mix, scheme and code path stays.
func testCells(t *testing.T, name string) []cellSpec {
	t.Helper()
	w, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	cells, err := w.cells(7, 1.0/200)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cells {
		cells[i].cfg.Sim.FootprintScale = min(cells[i].cfg.Sim.FootprintScale, 0.02)
	}
	return cells
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestWorkloadsRepeatAndMatchShadow runs every workload twice with the
// traced pass on: the result digests must be identical, the shadow
// must equal sim.Machine exactly, and every metric must be well named and
// carry a unit.
func TestWorkloadsRepeatAndMatchShadow(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cells := testCells(t, w.name)
			a := measureWorkload(w.name, cells, true, false)
			b := measureWorkload(w.name, cells, true, false)
			if !a.Correct || !b.Correct {
				t.Fatalf("run not correct: %+v", a.Cells)
			}
			if a.Digest != b.Digest {
				t.Errorf("result digests differ between identical runs: %s vs %s", a.Digest, b.Digest)
			}
			if got := value(t, a.PerLayer, "trace.fidelity_errors"); got != 0 {
				t.Errorf("trace.fidelity_errors = %v, want 0", got)
			}
			var shares float64
			for _, m := range append(a.EndToEnd, a.PerLayer...) {
				if !metricName.MatchString(m.Name) || m.Unit == "" {
					t.Errorf("malformed metric %q with unit %q", m.Name, m.Unit)
				}
				if strings.HasSuffix(m.Name, ".self_share") {
					shares += m.Value
				}
			}
			if math.Abs(shares-1) > 0.01 {
				t.Errorf("self shares sum to %v, want 1", shares)
			}
		})
	}
}

func value(t *testing.T, ms []metric, name string) float64 {
	t.Helper()
	for _, m := range ms {
		if m.Name == name {
			return m.Value
		}
	}
	t.Fatalf("metric %s missing", name)
	return 0
}

// TestPerturbedShadowIsCaught gives the shadow's generators a wrong seed:
// the fidelity check must report it, and the run must print no host time.
func TestPerturbedShadowIsCaught(t *testing.T) {
	rec := measureWorkload("quick-cells", testCells(t, "quick-cells"), true, true)
	if got := value(t, rec.PerLayer, "trace.fidelity_errors"); got == 0 {
		t.Fatal("perturbed shadow reported no fidelity errors")
	}
	if rec.Correct {
		t.Error("run with fidelity errors reported correct")
	}
	for _, m := range rec.PerLayer {
		if strings.HasSuffix(m.Name, "_share") || m.Name == "trace.span_cost_ns" || m.Name == "workload.next_ns" {
			t.Errorf("traced host-time metric %s printed despite fidelity errors", m.Name)
		}
	}
}

// TestFailedCellIsCountedNotFatal appends a cell whose configuration is
// invalid: it must count in failed_frac, and the valid cell must still run.
func TestFailedCellIsCountedNotFatal(t *testing.T) {
	cells := testCells(t, "quick-cells")
	bad := cells[0]
	bad.name = "invalid"
	bad.cfg.Core.Count = 0
	rec := measureWorkload("quick-cells", append(cells, bad), false, false)
	if rec.Attempted != 2 || rec.Failed != 1 || rec.Correct {
		t.Fatalf("attempted %d failed %d correct %v, want 2, 1, false", rec.Attempted, rec.Failed, rec.Correct)
	}
	if got := value(t, rec.EndToEnd, "failed_frac"); got != 0.5 {
		t.Errorf("failed_frac = %v, want 0.5", got)
	}
	if rec.Cells[0].Error != "" || !strings.HasPrefix(rec.Cells[1].Error, "setup:") {
		t.Errorf("cell errors %q, %q: want the valid cell to pass and the invalid one to fail setup", rec.Cells[0].Error, rec.Cells[1].Error)
	}
	if value(t, rec.EndToEnd, "instr_per_s") <= 0 {
		t.Error("the valid cell's throughput is missing")
	}
}

func TestInvariantsRejectBrokenResults(t *testing.T) {
	cfg := config.Default()
	good := sim.Result{Bench: []string{"a"}, IPC: []float64{0.5}, MemAccesses: 1, TreeHitRate: 0.5}
	if err := checkInvariants(good, cfg); err != nil {
		t.Fatalf("valid result rejected: %v", err)
	}
	for name, mutate := range map[string]func(*sim.Result){
		"failed":        func(r *sim.Result) { r.Failed = true },
		"tampered":      func(r *sim.Result) { r.Failed, r.Tampered = true, true },
		"zero IPC":      func(r *sim.Result) { r.IPC = []float64{0} },
		"IPC too high":  func(r *sim.Result) { r.IPC = []float64{1/cfg.Core.BaseCPI + 0.01} },
		"NaN IPC":       func(r *sim.Result) { r.IPC = []float64{math.NaN()} },
		"no threads":    func(r *sim.Result) { r.IPC, r.Bench = nil, nil },
		"rate above 1":  func(r *sim.Result) { r.LMMHitRate = 1.5 },
		"negative rate": func(r *sim.Result) { r.L3MissRate = -0.1 },
		"leaked slots":  func(r *sim.Result) { r.Untracked = 3 },
		"no DRAM":       func(r *sim.Result) { r.MemAccesses = 0 },
	} {
		r := good
		mutate(&r)
		if checkInvariants(r, cfg) == nil {
			t.Errorf("%s: broken result accepted", name)
		}
	}
}

// TestResultLineMatchesBenchmarkJSON checks that BENCHMARK.json names
// the code's workloads and that the final JSON line carries exactly the
// metrics it declares, in both modes.
func TestResultLineMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, w.Name, workloads[i].name)
		}
	}
	rec := measureWorkload("l2-alloc", testCells(t, "l2-alloc"), true, false)
	for _, mode := range []struct {
		trace bool
		want  []struct{ Name, Unit string }
	}{{false, spec.EndToEnd}, {true, spec.PerLayer}} {
		rec.Trace = mode.trace
		line, err := resultLine(rec)
		if err != nil {
			t.Fatal(err)
		}
		var got struct {
			Correct   bool `json:"correct"`
			Attempted int  `json:"attempted"`
			Failed    int  `json:"failed"`
			Metrics   map[string]struct {
				Value float64 `json:"value"`
				Unit  string  `json:"unit"`
			} `json:"metrics"`
		}
		dec := json.NewDecoder(strings.NewReader(line))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&got); err != nil {
			t.Fatalf("trace=%v: %v in %s", mode.trace, err, line)
		}
		var names []string
		for _, m := range mode.want {
			names = append(names, m.Name)
			if g, ok := got.Metrics[m.Name]; !ok || g.Unit != m.Unit {
				t.Errorf("trace=%v: metric %s: got %+v, want unit %s", mode.trace, m.Name, g, m.Unit)
			}
		}
		if len(got.Metrics) != len(mode.want) {
			sort.Strings(names)
			t.Errorf("trace=%v: line has %d metrics, BENCHMARK.json %d: %v", mode.trace, len(got.Metrics), len(mode.want), names)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Values from Python's statistics.quantiles(vs, n=4).
	for _, c := range []struct {
		vs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3, 1, 4, 1.5, 9}, 1.25, 6.5},
	} {
		if q1, q3 := quartiles(c.vs); math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.vs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := boundSpec{Name: "wall_s", Better: "lower", Bound: 0.1}
	higher := boundSpec{Name: "instr_per_s", Better: "higher", Bound: 0.1}
	tight := []float64{10, 10.1, 9.9, 10, 10.05}
	for _, c := range []struct {
		name string
		a, b []float64
		spec boundSpec
		want string
	}{
		{"same", tight, tight, lower, "agree"},
		{"slower", tight, []float64{12, 12.1, 11.9, 12, 12.05}, lower, "regressed"},
		{"less throughput", tight, []float64{8, 8.1, 7.9, 8, 8.05}, higher, "regressed"},
		{"more throughput", tight, []float64{12, 12.1, 11.9, 12, 12.05}, higher, "agree"},
		{"noisy", tight, []float64{8, 14, 9, 13, 10}, lower, "unresolved"},
		{"noisy but better on every run", []float64{10, 14, 11, 13, 12}, []float64{5, 7, 6, 9, 8}, lower, "agree"},
		{"new failures", []float64{0, 0, 0}, []float64{0, 0.5, 0.5}, failedFracBound, "regressed"},
	} {
		if _, _, _, got := compareMetric(c.a, c.b, c.spec); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

// TestResultsFileAndCompare appends runs with -o semantics and compares
// the files: equal sets agree, and a changed digest fails the comparison.
func TestResultsFileAndCompare(t *testing.T) {
	dir := t.TempDir()
	bench := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(bench, []byte(`{"end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	run := func(seed uint64, wall float64, digest string) runRecord {
		return runRecord{Workload: "s1-steady", Seed: seed, Seconds: 20, Digest: digest,
			EndToEnd: []metric{{"wall_s", wall, "s"}, {"failed_frac", 0, "ratio"}}}
	}
	a, b, c := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json"), filepath.Join(dir, "c.json")
	for i, wall := range []float64{10, 10.2, 9.9} {
		for _, path := range []string{a, b, c} {
			digest := "same"
			if path == c && i == 1 {
				digest = "other"
			}
			if err := appendResult(path, run(uint64(i), wall, digest)); err != nil {
				t.Fatal(err)
			}
		}
	}
	f, err := readResults(a)
	if err != nil || len(f.Runs) != 3 || f.Host.NumCPU == 0 {
		t.Fatalf("results file: %v, %d runs, host %+v", err, len(f.Runs), f.Host)
	}
	var out, errOut bytes.Buffer
	if code := runCompare(a, b, bench, &out, &errOut); code != 0 {
		t.Errorf("equal sets: exit %d\n%s%s", code, out.String(), errOut.String())
	}
	out.Reset()
	if code := runCompare(a, c, bench, &out, &errOut); code != 1 || !strings.Contains(out.String(), "result_digest differs") {
		t.Errorf("changed digest: exit %d, want 1\n%s", code, out.String())
	}
}

func TestCommandLineErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-workload", "s1-steady", "-trace", "2"},
		{"-workload", "s1-steady", "-seconds", "0"},
		{"-workload", "s1-steady", "extra"},
		{"-compare", "only-one.json"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 || out.Len() != 0 {
			t.Errorf("%q: exit %d with output %q, want exit 2 and no result", args, code, out.String())
		}
	}
	if got := withoutWorkloadFlag([]string{"-workload", "all", "--seed", "3", "--workload=all", "-trace", "1"}); strings.Join(got, " ") != "--seed 3 -trace 1" {
		t.Errorf("withoutWorkloadFlag = %q", got)
	}
}
