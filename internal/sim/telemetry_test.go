package sim

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"ivleague/internal/config"
	"ivleague/internal/stats"
	"ivleague/internal/telemetry"
)

// TestResetMatchesFreshMachine is the regression test for the registry-
// routed warmup boundary: after a full run, one Registry.Reset must leave
// the counter set exactly as a freshly built machine's — same names, all
// zero — proving no stat source bypasses the registry.
func TestResetMatchesFreshMachine(t *testing.T) {
	cfg := quickCfg()
	mix := smallMix(t)

	run, err := NewMachine(&cfg, config.SchemeIvLeaguePro, mix, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res := run.Run(); res.Failed {
		t.Fatalf("run failed: %s", res.FailMsg)
	}
	run.Registry().Reset()

	fresh, err := NewMachine(&cfg, config.SchemeIvLeaguePro, mix, 0)
	if err != nil {
		t.Fatal(err)
	}

	got := run.Registry().Snapshot()
	want := fresh.Registry().Snapshot()
	// Sampler-produced per-domain counters (pathlen, NFLB) only exist once
	// domains have traffic; after Reset their histograms are zeroed, so on
	// the run machine they appear with value 0. Compare the nonzero sets.
	nonzero := func(m map[string]uint64) map[string]uint64 {
		out := make(map[string]uint64)
		for k, v := range m {
			if v != 0 {
				out[k] = v
			}
		}
		return out
	}
	if g := nonzero(got.Counters); len(g) != 0 {
		t.Fatalf("counters survive Reset: %v", g)
	}
	if w := nonzero(want.Counters); len(w) != 0 {
		t.Fatalf("fresh machine has nonzero counters: %v", w)
	}
	// Every statically registered name must exist on both machines.
	for _, name := range stats.SortedKeys(fresh.Registry().Snapshot().Counters) {
		if _, ok := got.Counters[name]; !ok {
			t.Fatalf("counter %q missing after reset", name)
		}
	}
	// Per-core IPC baselines must have been re-snapped: the cycle and
	// instret deltas read zero even though the machine has run.
	for name, v := range got.Gauges {
		if len(name) > 8 && name[:8] == "sim.core" && v != 0 {
			t.Fatalf("per-core delta gauge %s = %v after Reset, want 0", name, v)
		}
	}
}

// TestSnapshotMatchesResult cross-checks the snapshot-derived Result
// fields against the components' raw counters.
func TestSnapshotMatchesResult(t *testing.T) {
	cfg := quickCfg()
	mix := smallMix(t)
	m, err := NewMachine(&cfg, config.SchemeIvLeaguePro, mix, 0)
	if err != nil {
		t.Fatal(err)
	}
	res := m.Run()
	if res.Failed {
		t.Fatalf("run failed: %s", res.FailMsg)
	}
	snap := m.Registry().Snapshot()
	if snap.Phase != telemetry.PhaseMeasure {
		t.Fatalf("post-run phase = %q, want measure", snap.Phase)
	}
	hitRate := func(hits, misses *stats.Counter) float64 {
		return stats.Ratio(hits.Value(), hits.Value()+misses.Value())
	}
	mem := m.Mem()
	dram := mem.DRAM()
	if got := dram.Reads.Value() + dram.Writes.Value(); got != res.MemAccesses {
		t.Fatalf("MemAccesses: counters %d vs result %d", got, res.MemAccesses)
	}
	if got := stats.Ratio(dram.TotalLatency.Value(), dram.Reads.Value()); got != res.DRAMReadLat {
		t.Fatalf("DRAMReadLat: counters %v vs result %v", got, res.DRAMReadLat)
	}
	if got := mem.Verifications.Value(); got != res.Verification {
		t.Fatalf("Verification: counter %d vs result %d", got, res.Verification)
	}
	if got := mem.SwapPenalties.Value(); got != res.Swaps {
		t.Fatalf("Swaps: counter %d vs result %d", got, res.Swaps)
	}
	if got := 1 - hitRate(&m.l3.Hits, &m.l3.Misses); got != res.L3MissRate {
		t.Fatalf("L3MissRate: counters %v vs result %v", got, res.L3MissRate)
	}
	// The NFLB rate aggregates per thread, so a two-thread domain counts
	// twice (the Figure 18 metric).
	var nflbHits, nflbMisses stats.Counter
	for _, th := range m.threads {
		b := mem.IvLeague().NFLBOf(th.proc.DomainID)
		nflbHits.Add(b.Hits.Value())
		nflbMisses.Add(b.Misses.Value())
	}
	tc, cc, lc := mem.TreeCache(), mem.CounterCache(), mem.LMM().Stats()
	for _, r := range []struct {
		name         string
		hits, misses *stats.Counter
		result       float64
	}{
		{"TreeHitRate", &tc.Hits, &tc.Misses, res.TreeHitRate},
		{"CtrHitRate", &cc.Hits, &cc.Misses, res.CtrHitRate},
		{"LMMHitRate", &lc.Hits, &lc.Misses, res.LMMHitRate},
		{"NFLBHitRate", &nflbHits, &nflbMisses, res.NFLBHitRate},
	} {
		if got := hitRate(r.hits, r.misses); got != r.result {
			t.Fatalf("%s: counters %v vs result %v", r.name, got, r.result)
		}
	}
	if got := snap.Counter("secmem.verifications"); got != res.Verification {
		t.Fatalf("snapshot verifications %d vs result %d", got, res.Verification)
	}
}

// TestFunctionalTreeCountersWired: with the functional integrity layer on,
// the tree layer's own update/verify counters must reach the registry.
func TestFunctionalTreeCountersWired(t *testing.T) {
	cfg := quickCfg()
	mix := smallMix(t)

	m, err := NewMachine(&cfg, config.SchemeIvLeagueInvert, mix, 0, WithFunctionalMem())
	if err != nil {
		t.Fatal(err)
	}
	if res := m.Run(); res.Failed {
		t.Fatalf("run failed: %s", res.FailMsg)
	}
	snap := m.Registry().Snapshot()
	if snap.Counter("secmem.forest.updates") == 0 {
		t.Fatal("forest updates counter not wired")
	}

	m2, err := NewMachine(&cfg, config.SchemeBaseline, mix, 0, WithFunctionalMem())
	if err != nil {
		t.Fatal(err)
	}
	if res := m2.Run(); res.Failed {
		t.Fatalf("baseline run failed: %s", res.FailMsg)
	}
	snap2 := m2.Registry().Snapshot()
	if snap2.Counter("secmem.global_tree.updates") == 0 {
		t.Fatal("global tree updates counter not wired")
	}
	if snap2.Counter("secmem.global_tree.verifies") == 0 {
		t.Fatal("global tree verifies counter not wired")
	}
}

// TestDeltaAcrossPhases checks snapshots across a run's phases: the
// snapshot before the run is in warmup and has seen no traffic, and the
// one at the end has the measured phase's DRAM reads.
func TestDeltaAcrossPhases(t *testing.T) {
	cfg := quickCfg()
	mix := smallMix(t)
	m, err := NewMachine(&cfg, config.SchemeIvLeagueBasic, mix, 0)
	if err != nil {
		t.Fatal(err)
	}
	before := m.Registry().Snapshot()
	if before.Phase != telemetry.PhaseWarmup {
		t.Fatalf("pre-run phase = %q, want warmup", before.Phase)
	}
	if n := before.Counter("secmem.dram.reads"); n != 0 {
		t.Fatalf("pre-run snapshot has %d DRAM reads, want 0", n)
	}
	if res := m.Run(); res.Failed {
		t.Fatalf("run failed: %s", res.FailMsg)
	}
	if m.Registry().Snapshot().Counter("secmem.dram.reads") == 0 {
		t.Fatal("no DRAM reads in measured phase")
	}
}

// TestIsolationAuditAcrossSchemes is the audit sweep: for every IvLeague
// scheme and several seeds, no metadata node may be touched by two
// domains; the global-tree baseline must show cross-domain sharing on the
// same workload.
func TestIsolationAuditAcrossSchemes(t *testing.T) {
	mix := smallMix(t)
	for _, seed := range []uint64{1, 42, 1234} {
		for _, scheme := range []config.Scheme{
			config.SchemeIvLeagueBasic, config.SchemeIvLeagueInvert, config.SchemeIvLeaguePro,
		} {
			cfg := quickCfg()
			cfg.Sim.Seed = seed
			audit := telemetry.NewAudit()
			res, err := RunMix(&cfg, scheme, mix, WithAudit(audit))
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed {
				t.Fatalf("%v seed %d failed: %s", scheme, seed, res.FailMsg)
			}
			rep := audit.Report()
			if rep.TotalTouches == 0 {
				t.Fatalf("%v seed %d: audit recorded nothing", scheme, seed)
			}
			if rep.Domains != len(mix.Procs) {
				t.Fatalf("%v seed %d: %d domains audited, want %d",
					scheme, seed, rep.Domains, len(mix.Procs))
			}
			if !rep.Isolated() {
				t.Errorf("%v seed %d: %d shared nodes, %d cross-domain touches; first keys: %v",
					scheme, seed, rep.SharedNodes, rep.CrossDomainTouches, firstKeys(audit, 5))
			}
		}

		cfg := quickCfg()
		cfg.Sim.Seed = seed
		audit := telemetry.NewAudit()
		res, err := RunMix(&cfg, config.SchemeBaseline, mix, WithAudit(audit))
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed {
			t.Fatalf("baseline seed %d failed: %s", seed, res.FailMsg)
		}
		rep := audit.Report()
		if rep.Isolated() {
			t.Errorf("baseline seed %d: global tree reported isolated (%+v)", seed, rep)
		}
		if rep.CrossDomainTouches == 0 {
			t.Errorf("baseline seed %d: no cross-domain touches recorded", seed)
		}
	}
}

func firstKeys(a *telemetry.Audit, n int) []telemetry.NodeKey {
	keys := a.SharedKeys()
	if len(keys) > n {
		keys = keys[:n]
	}
	return keys
}

// TestTraceExportFromRun drives a traced run end-to-end and validates the
// Chrome trace-event export: valid JSON, a traceEvents array, phase
// marker present, and per-class events attributed to cores and domains.
func TestTraceExportFromRun(t *testing.T) {
	cfg := quickCfg()
	mix := smallMix(t)
	// Large enough that the measure-phase events do not push the warmup-
	// boundary phase marker out of the ring.
	tr := telemetry.NewTracer(1<<18, 1)
	res, err := RunMix(&cfg, config.SchemeIvLeaguePro, mix, WithTracer(tr))
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed {
		t.Fatalf("run failed: %s", res.FailMsg)
	}
	if tr.Seen() == 0 {
		t.Fatal("tracer saw no events")
	}

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	var out struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
			PID  int     `json:"pid"`
			TID  int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(out.TraceEvents) == 0 {
		t.Fatal("empty traceEvents")
	}
	classes := map[string]int{}
	for _, ev := range out.TraceEvents {
		classes[ev.Name]++
	}
	for _, want := range []string{
		telemetry.ClassRead, telemetry.ClassVerify, telemetry.ClassPhase, "process_name",
	} {
		if classes[want] == 0 {
			t.Fatalf("no %q events in trace (have %v)", want, classes)
		}
	}
	// The ring holds the tail of the run: every retained demand event must
	// carry a real core and domain.
	for _, ev := range out.TraceEvents {
		if ev.Name == telemetry.ClassRead || ev.Name == telemetry.ClassWrite {
			if ev.TID < 0 || ev.PID < 1 {
				t.Fatalf("demand event with pid %d tid %d", ev.PID, ev.TID)
			}
		}
	}
}

// TestTracingAndAuditDoNotPerturbResults: attaching the tracer and audit
// must not change a single simulated number (observation, not
// interference).
func TestTracingAndAuditDoNotPerturbResults(t *testing.T) {
	cfg := quickCfg()
	mix := smallMix(t)
	plain := runMix(t, &cfg, config.SchemeIvLeagueInvert, mix)
	traced := runMix(t, &cfg, config.SchemeIvLeagueInvert, mix,
		WithTracer(telemetry.NewTracer(1<<12, 8)), WithAudit(telemetry.NewAudit()))
	if !reflect.DeepEqual(plain, traced) {
		t.Fatalf("telemetry perturbed the run:\nplain:  %+v\ntraced: %+v", plain, traced)
	}
}
