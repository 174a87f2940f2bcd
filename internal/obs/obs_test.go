package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ivleague/internal/stats"
	"ivleague/internal/sweep"
	"ivleague/internal/telemetry"
)

func testSnapshot() telemetry.Snapshot {
	return telemetry.Snapshot{
		Phase: "measure",
		Counters: map[string]uint64{
			"secmem.dram.reads": 1234,
			"core0.l1.hits":     7,
			"sweep.cell.count":  0,
		},
		Gauges: map[string]float64{
			"nflb.hit_rate":  0.625,
			"weird name-%$":  -3,
			"0starts.digit":  1,
			"ratio.nan":      math.NaN(),
			"ratio.inf":      math.Inf(1),
			"ratio.ninf":     math.Inf(-1),
			"big.float":      1e21,
			"progress.cells": 42,
		},
	}
}

// TestWritePrometheusGolden pins the exposition byte-for-byte: families
// sorted (counters before gauges, each alphabetical), names sanitized,
// the phase on one synthetic labeled gauge, NaN/±Inf spelled out.
func TestWritePrometheusGolden(t *testing.T) {
	const want = `# HELP ivleague_phase run phase marker (1 = current)
# TYPE ivleague_phase gauge
ivleague_phase{phase="measure"} 1
# TYPE core0_l1_hits counter
core0_l1_hits 7
# TYPE secmem_dram_reads counter
secmem_dram_reads 1234
# TYPE sweep_cell_count counter
sweep_cell_count 0
# TYPE _0starts_digit gauge
_0starts_digit 1
# TYPE big_float gauge
big_float 1e+21
# TYPE nflb_hit_rate gauge
nflb_hit_rate 0.625
# TYPE progress_cells gauge
progress_cells 42
# TYPE ratio_inf gauge
ratio_inf +Inf
# TYPE ratio_nan gauge
ratio_nan NaN
# TYPE ratio_ninf gauge
ratio_ninf -Inf
# TYPE weird_name___ gauge
weird_name___ -3
`
	var b strings.Builder
	if err := WritePrometheus(&b, testSnapshot()); err != nil {
		t.Fatal(err)
	}
	if b.String() != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", b.String(), want)
	}
}

// TestWritePrometheusDeterministic renders the same snapshot many times
// and demands identical bytes — map iteration order must never leak.
func TestWritePrometheusDeterministic(t *testing.T) {
	var first string
	for i := 0; i < 50; i++ {
		var b strings.Builder
		if err := WritePrometheus(&b, testSnapshot()); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = b.String()
		} else if b.String() != first {
			t.Fatalf("render %d differs from render 0", i)
		}
	}
}

func TestSanitizeMetricName(t *testing.T) {
	for in, want := range map[string]string{
		"secmem.dram.reads": "secmem_dram_reads",
		"ok_name:sub":       "ok_name:sub",
		"9lives":            "_9lives",
		"":                  "_",
		"a b%c":             "a_b_c",
	} {
		if got := SanitizeMetricName(in); got != want {
			t.Errorf("SanitizeMetricName(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestProgressRegister publishes a sweep engine's progress through a
// registry, as cmd/ivbench does, and reads the planned/done/latency
// gauges back both from the snapshot and from the /metrics exposition.
func TestProgressRegister(t *testing.T) {
	engine, err := sweep.NewEngine(sweep.EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	engine.Metrics().Plan(4)
	body := func(context.Context) error { time.Sleep(20 * time.Millisecond); return nil }
	if _, err := engine.Run(sweep.CellKey{Kind: "test", Unit: "c0"}, body); err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	engine.Metrics().Register(reg)
	snap := reg.Snapshot()
	if got := snap.Gauge("sweep.cell.planned"); got != 4 {
		t.Fatalf("planned gauge = %v", got)
	}
	if got := snap.Gauge("sweep.cell.done"); got != 1 {
		t.Fatalf("done gauge = %v", got)
	}
	p50 := snap.Gauge("sweep.cell.latency_ms.p50")
	if p50 < 20 || p50 != float64(engine.Metrics().Progress().Latency.P50Ms) {
		t.Fatalf("p50 gauge = %v, report %+v", p50, engine.Metrics().Progress().Latency)
	}

	var b strings.Builder
	if err := WritePrometheus(&b, snap); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# TYPE sweep_cell_planned gauge\nsweep_cell_planned 4\n",
		"# TYPE sweep_cell_done gauge\nsweep_cell_done 1\n",
		"# TYPE sweep_cell_latency_ms_count counter\nsweep_cell_latency_ms_count 1\n",
		fmt.Sprintf("# TYPE sweep_cell_latency_ms_p50 gauge\nsweep_cell_latency_ms_p50 %s\n", formatFloat(p50)),
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("exposition lacks %q:\n%s", want, b.String())
		}
	}
}

func TestCPUProfileGuard(t *testing.T) {
	var g CPUProfileGuard
	if g.Owner() != "" {
		t.Fatal("fresh guard has an owner")
	}
	if err := g.Acquire("file.prof"); err != nil {
		t.Fatal(err)
	}
	if g.Owner() != "file.prof" {
		t.Fatalf("owner = %q", g.Owner())
	}
	if err := g.Acquire("endpoint"); err == nil {
		t.Fatal("second Acquire succeeded")
	} else if !strings.Contains(err.Error(), "file.prof") {
		t.Fatalf("conflict error does not name the owner: %v", err)
	}
	g.Release()
	if err := g.Acquire("endpoint"); err != nil {
		t.Fatalf("Acquire after Release: %v", err)
	}
	// Nil guard: everything is a no-op that always grants.
	var nilG *CPUProfileGuard
	if err := nilG.Acquire("x"); err != nil {
		t.Fatal(err)
	}
	nilG.Release()
}

func TestServerEndpoints(t *testing.T) {
	reg := telemetry.NewRegistry()
	var hits atomic.Uint64
	hits.Store(99)
	reg.RegisterGauge("test.hits", func() float64 { return float64(hits.Load()) })

	// /progress is served from a sweep engine's ledger: one fan-out of
	// three cells, one of which has run.
	engine, err := sweep.NewEngine(sweep.EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	engine.Metrics().Plan(3)
	if _, err := engine.Run(sweep.CellKey{Kind: "test", Unit: "c0"}, func(context.Context) error { return nil }); err != nil {
		t.Fatal(err)
	}

	guard := &CPUProfileGuard{}
	srv, err := StartServer(ServerConfig{
		Addr:     "127.0.0.1:0",
		Snapshot: reg.Snapshot,
		Progress: engine.Metrics().Progress,
		Profiles: guard,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) (int, string, string) {
		t.Helper()
		resp, err := http.Get(srv.URL() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return resp.StatusCode, string(body), resp.Header.Get("Content-Type")
	}

	if code, body, _ := get("/healthz"); code != 200 || body != "ok\n" {
		t.Fatalf("/healthz: %d %q", code, body)
	}

	code, body, ctype := get("/metrics")
	if code != 200 {
		t.Fatalf("/metrics: %d", code)
	}
	if !strings.HasPrefix(ctype, "text/plain; version=0.0.4") {
		t.Fatalf("/metrics content type %q", ctype)
	}
	if !strings.Contains(body, "test_hits 99") {
		t.Fatalf("/metrics missing gauge:\n%s", body)
	}

	code, body, ctype = get("/progress")
	if code != 200 || ctype != "application/json" {
		t.Fatalf("/progress: %d %q", code, ctype)
	}
	var rep sweep.ProgressReport
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatalf("/progress not JSON: %v\n%s", err, body)
	}
	if rep.TotalCells != 3 || rep.DoneCells != 1 || rep.Latency.Count != 1 {
		t.Fatalf("/progress content: %+v", rep)
	}

	if code, _, _ := get("/debug/pprof/"); code != 200 {
		t.Fatalf("/debug/pprof/ index: %d", code)
	}

	// While a file profile owns the profiler, the endpoint must refuse
	// with 409 and name the owner, not silently misprofile.
	if err := guard.Acquire("-cpuprofile bench.prof"); err != nil {
		t.Fatal(err)
	}
	code, body, _ = get("/debug/pprof/profile?seconds=1")
	if code != http.StatusConflict {
		t.Fatalf("guarded profile endpoint: %d, want 409", code)
	}
	if !strings.Contains(body, "-cpuprofile bench.prof") {
		t.Fatalf("conflict body does not name the owner: %q", body)
	}
	guard.Release()
}

func TestPublisher(t *testing.T) {
	var p Publisher
	if got := p.Latest(); got.Counters != nil || got.Phase != "" {
		t.Fatalf("zero publisher latest: %+v", got)
	}
	p.Publish(telemetry.Snapshot{Phase: "measure", Counters: map[string]uint64{"a": 1}})
	if got := p.Latest(); got.Phase != "measure" || got.Counters["a"] != 1 {
		t.Fatalf("latest: %+v", got)
	}
}

func TestBenchFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_test.json")
	bf := NewBenchFile("abc123", 1)
	bf.Scenarios = []Measurement{{
		Name: "sim/S-1/pro", NsPerOp: 500, OpsPerSec: 2e6, Reps: 3,
		SamplesNsPerOp: []float64{490, 500, 510},
		PhaseNs:        map[string]uint64{"step": 1000, "secmem": 400},
	}}
	if err := WriteBenchFile(path, bf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBenchFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema != BenchSchema || got.GitRev != "abc123" || len(got.Scenarios) != 1 {
		t.Fatalf("round trip: %+v", got)
	}
	if got.Scenarios[0].PhaseNs["secmem"] != 400 {
		t.Fatalf("phase breakdown lost: %+v", got.Scenarios[0])
	}

	// Validation refuses unusable documents.
	for name, breakage := range map[string]func(*BenchFile){
		"wrong schema":   func(f *BenchFile) { f.Schema = "other/v9" },
		"no scenarios":   func(f *BenchFile) { f.Scenarios = nil },
		"zero ns_per_op": func(f *BenchFile) { f.Scenarios[0].NsPerOp = 0 },
		"nan ns_per_op":  func(f *BenchFile) { f.Scenarios[0].NsPerOp = math.NaN() },
	} {
		bad, err := ReadBenchFile(path)
		if err != nil {
			t.Fatal(err)
		}
		breakage(bad)
		if bad.Validate() == nil {
			t.Errorf("%s: Validate accepted it", name)
		}
	}
}

func benchPoint(names []string, ns float64, samples []float64) *BenchFile {
	f := NewBenchFile("rev", 1)
	for _, n := range names {
		f.Scenarios = append(f.Scenarios, Measurement{
			Name: n, NsPerOp: ns, SamplesNsPerOp: samples, Reps: len(samples),
		})
	}
	return f
}

func TestCheckPassesOnRerun(t *testing.T) {
	old := benchPoint([]string{"a", "b"}, 100, []float64{98, 100, 103})
	new := benchPoint([]string{"a", "b"}, 104, []float64{101, 104, 106})
	deltas, err := Check(old, new, DefaultCheckOptions())
	if err != nil {
		t.Fatal(err)
	}
	if regs := Regressions(deltas); len(regs) != 0 {
		t.Fatalf("rerun-level jitter flagged as regression: %+v", regs)
	}
}

func TestCheckFailsOnTwoXSlowdown(t *testing.T) {
	old := benchPoint([]string{"a"}, 100, []float64{98, 100, 103})
	new := benchPoint([]string{"a"}, 200, []float64{196, 200, 207})
	deltas, err := Check(old, new, DefaultCheckOptions())
	if err != nil {
		t.Fatal(err)
	}
	regs := Regressions(deltas)
	if len(regs) != 1 || regs[0].Name != "a" {
		t.Fatalf("2x slowdown not flagged: %+v", deltas)
	}
	if regs[0].Ratio < 1.9 || regs[0].Ratio > 2.1 {
		t.Fatalf("ratio: %+v", regs[0])
	}
	if !strings.Contains(FormatDeltas(deltas), "REGRESSED") {
		t.Fatal("formatted table missing REGRESSED marker")
	}
}

// Pointed at a trajectory directory, the gate must compare against the
// newest point by created_unix, not the file name that sorts first: here
// the first file is an older, 2x slower point, so a 2x regression of the
// newest point would pass against it.
func TestLoadBenchPointDirectoryPicksNewest(t *testing.T) {
	dir := t.TempDir()
	older := benchPoint([]string{"a"}, 200, []float64{196, 200, 207})
	older.GitRev, older.CreatedUnix = "older", 1000
	newest := benchPoint([]string{"a"}, 100, []float64{98, 100, 103})
	newest.GitRev, newest.CreatedUnix = "newest", 2000
	if err := WriteBenchFile(filepath.Join(dir, "BENCH_0aaa.json"), older); err != nil {
		t.Fatal(err)
	}
	if err := WriteBenchFile(filepath.Join(dir, "BENCH_ffff.json"), newest); err != nil {
		t.Fatal(err)
	}
	got, path, err := LoadBenchPoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.GitRev != "newest" || filepath.Base(path) != "BENCH_ffff.json" {
		t.Fatalf("picked %s (%s), want the newest point", got.GitRev, path)
	}
	regressed := benchPoint([]string{"a"}, 200, []float64{196, 200, 207})
	deltas, err := Check(got, regressed, DefaultCheckOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(Regressions(deltas)) != 1 {
		t.Fatalf("2x regression of the newest point passed the gate: %+v", deltas)
	}
	// Against the first-sorting file the same regression would pass.
	deltas, err = Check(older, regressed, DefaultCheckOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(Regressions(deltas)) != 0 {
		t.Fatalf("setup: the older point should not catch the regression: %+v", deltas)
	}
	if _, _, err := LoadBenchPoint(t.TempDir()); err == nil {
		t.Fatal("empty directory accepted as a trajectory point")
	}
}

func TestCheckNoiseFloorSavesJitteryScenario(t *testing.T) {
	// Median ratio 1.3 exceeds tol 0.25, but both runs are so spread out
	// that the delta sits inside 3x the combined MADs: not a regression.
	old := benchPoint([]string{"a"}, 100, []float64{60, 100, 140})
	new := benchPoint([]string{"a"}, 130, []float64{85, 130, 175})
	deltas, err := Check(old, new, DefaultCheckOptions())
	if err != nil {
		t.Fatal(err)
	}
	if regs := Regressions(deltas); len(regs) != 0 {
		t.Fatalf("noisy delta flagged: %+v", regs)
	}
	if !strings.Contains(deltas[0].Note, "noise floor") {
		t.Fatalf("missing noise-floor note: %+v", deltas[0])
	}
	// With MADFactor 0 the same delta regresses on ratio alone.
	deltas, err = Check(old, new, CheckOptions{Tol: 0.25, MADFactor: 0})
	if err != nil {
		t.Fatal(err)
	}
	if regs := Regressions(deltas); len(regs) != 1 {
		t.Fatalf("ratio-only mode missed it: %+v", deltas)
	}
}

func TestCheckMissingAndNewScenarios(t *testing.T) {
	old := benchPoint([]string{"kept", "dropped"}, 100, []float64{100})
	new := benchPoint([]string{"kept", "added"}, 100, []float64{100})
	deltas, err := Check(old, new, DefaultCheckOptions())
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Delta{}
	for _, d := range deltas {
		byName[d.Name] = d
	}
	if !byName["dropped"].Regressed {
		t.Fatalf("silently dropped scenario must regress: %+v", byName["dropped"])
	}
	if byName["added"].Regressed || !strings.Contains(byName["added"].Note, "no baseline") {
		t.Fatalf("new scenario handling: %+v", byName["added"])
	}
	if byName["kept"].Regressed {
		t.Fatalf("unchanged scenario regressed: %+v", byName["kept"])
	}
}

func TestCheckSteadyAllocGate(t *testing.T) {
	// Timing is identical, but the steady scenario allocates in NEW: the
	// gate must fail it regardless of ratio or noise floor.
	old := benchPoint([]string{"secmem/steady-access"}, 100, []float64{100})
	old.Scenarios[0].Steady = true
	new := benchPoint([]string{"secmem/steady-access"}, 100, []float64{100})
	new.Scenarios[0].Steady = true
	new.Scenarios[0].AllocsPerOp = 0.5
	deltas, err := Check(old, new, DefaultCheckOptions())
	if err != nil {
		t.Fatal(err)
	}
	regs := Regressions(deltas)
	if len(regs) != 1 || !strings.Contains(regs[0].Note, "allocates") {
		t.Fatalf("allocating steady scenario not flagged: %+v", deltas)
	}
	// Zero allocs passes.
	new.Scenarios[0].AllocsPerOp = 0
	deltas, err = Check(old, new, DefaultCheckOptions())
	if err != nil {
		t.Fatal(err)
	}
	if regs := Regressions(deltas); len(regs) != 0 {
		t.Fatalf("clean steady scenario flagged: %+v", regs)
	}
	// A brand-new steady scenario (no baseline) still gets the gate.
	onlyNew := benchPoint([]string{"fresh/steady"}, 100, []float64{100})
	onlyNew.Scenarios[0].Steady = true
	onlyNew.Scenarios[0].AllocsPerOp = 2
	deltas, err = Check(old, func() *BenchFile {
		f := benchPoint([]string{"secmem/steady-access"}, 100, []float64{100})
		f.Scenarios[0].Steady = true
		f.Scenarios = append(f.Scenarios, onlyNew.Scenarios[0])
		return f
	}(), DefaultCheckOptions())
	if err != nil {
		t.Fatal(err)
	}
	regs = Regressions(deltas)
	if len(regs) != 1 || regs[0].Name != "fresh/steady" {
		t.Fatalf("baseline-less steady scenario not gated: %+v", deltas)
	}
}

// TestMeasureScenarioSynthetic runs the whole measure→emit→check loop on
// synthetic scenarios with a known 2x cost difference — the acceptance
// path of ivperf without the simulator's runtime.
func TestMeasureScenarioSynthetic(t *testing.T) {
	mk := func(name string, spins int) Scenario {
		return Scenario{
			Name:        name,
			Fingerprint: "fp-" + name,
			Run: func(_ *telemetry.PhaseTimers) (float64, error) {
				x := 0.0
				for i := 0; i < spins; i++ {
					x += math.Sqrt(float64(i))
				}
				if x < 0 {
					return 0, fmt.Errorf("impossible")
				}
				return 1000, nil
			},
		}
	}
	measure := func(s Scenario) Measurement {
		t.Helper()
		m, err := MeasureScenario(s, 5, 1)
		if err != nil {
			t.Fatal(err)
		}
		if m.NsPerOp <= 0 || m.Reps != 5 || len(m.SamplesNsPerOp) != 5 {
			t.Fatalf("measurement: %+v", m)
		}
		return m
	}
	base := measure(mk("spin", 200_000))
	again := measure(mk("spin", 200_000))
	slow := measure(mk("spin", 3_000_000)) // ~15x work: unambiguous even on a noisy host

	wrap := func(m Measurement) *BenchFile {
		f := NewBenchFile("r", 1)
		f.Scenarios = []Measurement{m}
		return f
	}
	deltas, err := Check(wrap(base), wrap(again), CheckOptions{Tol: 1.0, MADFactor: 3})
	if err != nil {
		t.Fatal(err)
	}
	if regs := Regressions(deltas); len(regs) != 0 {
		t.Fatalf("rerun of the same scenario regressed: %+v", regs)
	}
	deltas, err = Check(wrap(base), wrap(slow), DefaultCheckOptions())
	if err != nil {
		t.Fatal(err)
	}
	if regs := Regressions(deltas); len(regs) != 1 {
		t.Fatalf("synthetic slowdown not flagged: %+v", deltas)
	}

	// An erroring scenario must surface, not emit a bogus point.
	_, err = MeasureScenario(Scenario{
		Name: "boom",
		Run:  func(_ *telemetry.PhaseTimers) (float64, error) { return 0, fmt.Errorf("kaput") },
	}, 2, 0)
	if err == nil || !strings.Contains(err.Error(), "kaput") {
		t.Fatalf("error not surfaced: %v", err)
	}
}

func TestMedianAndMAD(t *testing.T) {
	// The harness's medians are stats.Percentile at 50.
	if got := stats.Percentile([]float64{3, 1, 2}, 50); got != 2 {
		t.Fatalf("median odd = %v", got)
	}
	if got := stats.Percentile([]float64{4, 1, 2, 3}, 50); got != 2.5 {
		t.Fatalf("median even = %v", got)
	}
	if got := stats.Percentile(nil, 50); got != 0 {
		t.Fatalf("median empty = %v", got)
	}
	if got := mad([]float64{100}); got != 0 {
		t.Fatalf("mad singleton = %v", got)
	}
	if got := mad([]float64{80, 100, 120}); got != 20 {
		t.Fatalf("mad = %v", got)
	}
}

// TestCacheAccessScenarioSteady runs the cache/access scenario past its
// warmup rep and checks that it counts one op per stream entry and that
// a warm rep allocates nothing, the contract its Steady flag gates.
func TestCacheAccessScenarioSteady(t *testing.T) {
	s, err := cacheAccessScenario()
	if err != nil {
		t.Fatal(err)
	}
	if !s.Steady {
		t.Fatal("cache/access must be a Steady scenario")
	}
	work, err := s.Run(nil) // builds the caches and the stream
	if err != nil {
		t.Fatal(err)
	}
	if work != 1<<20 {
		t.Fatalf("work = %v ops, want one per stream entry (%d)", work, 1<<20)
	}
	if avg := testing.AllocsPerRun(1, func() {
		if _, err := s.Run(nil); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("warm cache/access rep allocates %v times", avg)
	}
}
