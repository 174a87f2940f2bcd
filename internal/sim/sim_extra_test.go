package sim

import (
	"testing"

	"ivleague/internal/config"
	"ivleague/internal/layout"
	"ivleague/internal/workload"
)

func TestStaticPartitionRuns(t *testing.T) {
	cfg := quickCfg()
	res := runMix(t, &cfg, config.SchemeStaticPartition, smallMix(t))
	if res.Failed {
		t.Fatalf("static partition run failed: %s", res.FailMsg)
	}
	for _, ipc := range res.IPC {
		if ipc <= 0 {
			t.Fatal("zero IPC under static partitioning")
		}
	}
}

func TestStaticPartitionConfinesFrames(t *testing.T) {
	cfg := quickCfg()
	mix := smallMix(t)
	m, err := NewMachine(&cfg, config.SchemeStaticPartition, mix, 0)
	if err != nil {
		t.Fatal(err)
	}
	res := m.Run()
	if res.Failed {
		t.Fatal(res.FailMsg)
	}
	// Every mapped frame must lie inside its domain's partition (no
	// swap penalties expected at this footprint scale).
	m.owners.forEach(func(pfn layout.PFN, o owner) {
		lo, hi := m.mem.PartitionRange(int(o.domain))
		if pfn < lo || pfn >= hi {
			t.Fatalf("frame %d of domain %d outside partition [%d,%d)", pfn, o.domain, lo, hi)
		}
	})
	if res.Swaps != 0 {
		t.Fatalf("unexpected swap penalties: %d", res.Swaps)
	}
}

func TestBVSchemesRun(t *testing.T) {
	cfg := quickCfg()
	mix := smallMix(t)
	for _, s := range []config.Scheme{config.SchemeBVv1, config.SchemeBVv2} {
		res := runMix(t, &cfg, s, mix)
		if res.Failed {
			t.Fatalf("%v failed at small scale: %s", s, res.FailMsg)
		}
	}
}

func TestBVv2SlowerThanNFL(t *testing.T) {
	cfg := quickCfg()
	mix := smallMix(t)
	sum := func(r Result) float64 {
		s := 0.0
		for _, v := range r.IPC {
			s += v
		}
		return s
	}
	nfl := runMix(t, &cfg, config.SchemeIvLeagueBasic, mix)
	bv := runMix(t, &cfg, config.SchemeBVv2, mix)
	if bv.Failed || nfl.Failed {
		t.Fatal("run failed")
	}
	if sum(bv) > sum(nfl)*1.001 {
		t.Fatalf("BV-v2 (%v) outperformed the NFL (%v)", sum(bv), sum(nfl))
	}
}

func TestSchemeOverheadShape(t *testing.T) {
	// The headline Figure 15 sanity: IvLeague costs something vs the
	// Baseline but stays within a plausible band (≤ 25% at this scale).
	cfg := quickCfg()
	mix := smallMix(t)
	sum := func(r Result) float64 {
		s := 0.0
		for _, v := range r.IPC {
			s += v
		}
		return s
	}
	base := sum(runMix(t, &cfg, config.SchemeBaseline, mix))
	basic := sum(runMix(t, &cfg, config.SchemeIvLeagueBasic, mix))
	norm := basic / base
	if norm < 0.75 || norm > 1.05 {
		t.Fatalf("IvLeague-Basic normalized IPC %.3f outside the plausible band", norm)
	}
}

func TestMemAccessesExceedBaseline(t *testing.T) {
	// Figure 19's direction: IvLeague always issues at least as many
	// memory accesses as the Baseline (NFL + LMM + tree expansion).
	cfg := quickCfg()
	mix := smallMix(t)
	base := runMix(t, &cfg, config.SchemeBaseline, mix)
	basic := runMix(t, &cfg, config.SchemeIvLeagueBasic, mix)
	if basic.MemAccesses <= base.MemAccesses {
		t.Fatalf("IvLeague accesses %d not above baseline %d", basic.MemAccesses, base.MemAccesses)
	}
}

func TestWritebackOwnersCleanedOnUnmap(t *testing.T) {
	cfg := quickCfg()
	cfg.Sim.MeasureInstr = 200_000 // enough for churn bursts
	m, err := NewMachine(&cfg, config.SchemeIvLeagueBasic, smallMix(t), 0)
	if err != nil {
		t.Fatal(err)
	}
	res := m.Run()
	if res.Failed {
		t.Fatal(res.FailMsg)
	}
	// Every remaining owner entry must correspond to a mapped page.
	mapped := uint64(0)
	for _, th := range m.threads {
		mapped += th.proc.Mapped()
	}
	entries := uint64(0)
	m.owners.forEach(func(layout.PFN, owner) { entries++ })
	if entries != mapped {
		t.Fatalf("owner table has %d entries, %d pages mapped", entries, mapped)
	}
}

func TestCycleDecompositionSums(t *testing.T) {
	cfg := quickCfg()
	m, err := NewMachine(&cfg, config.SchemeBaseline, smallMix(t), 0)
	if err != nil {
		t.Fatal(err)
	}
	m.Run()
	var total float64
	for _, th := range m.threads {
		total += th.cycles
	}
	parts := m.CycBase + m.CycTLB + m.CycFault + m.CycMiss + m.CycWb
	if diff := (total - parts) / total; diff > 0.01 || diff < -0.01 {
		t.Fatalf("cycle decomposition off by %.2f%%", diff*100)
	}
}

func TestAllMixesConstructable(t *testing.T) {
	cfg := quickCfg()
	for _, mix := range workload.Mixes() {
		if _, err := NewMachine(&cfg, config.SchemeIvLeaguePro, mix, 0); err != nil {
			t.Fatalf("%s: %v", mix.Name, err)
		}
	}
}
