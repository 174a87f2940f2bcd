package sim

import (
	"testing"

	"ivleague/internal/config"
	"ivleague/internal/workload"
)

// quickCfg shrinks memory and run length so tests stay fast.
func quickCfg() config.Config {
	cfg := config.Default()
	cfg.DRAM.SizeBytes = 4 << 30
	cfg.IvLeague.TreeLingCount = 512
	cfg.Sim.WarmupInstr = 20_000
	cfg.Sim.MeasureInstr = 60_000
	return cfg
}

func smallMix(t *testing.T) workload.Mix {
	t.Helper()
	m, err := workload.MixByName("S-4") // smallest-footprint mix
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// runMix is RunMix for tests whose machines must build.
func runMix(t *testing.T, cfg *config.Config, scheme config.Scheme, mix workload.Mix, opts ...MachineOption) Result {
	t.Helper()
	res, err := RunMix(cfg, scheme, mix, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunAllSchemesProduceIPC(t *testing.T) {
	cfg := quickCfg()
	mix := smallMix(t)
	for _, scheme := range []config.Scheme{
		config.SchemeBaseline, config.SchemeStaticPartition,
		config.SchemeIvLeagueBasic, config.SchemeIvLeagueInvert, config.SchemeIvLeaguePro,
	} {
		res := runMix(t, &cfg, scheme, mix)
		if res.Failed {
			t.Fatalf("%v failed: %s", scheme, res.FailMsg)
		}
		if len(res.IPC) != 4 {
			t.Fatalf("%v: %d IPC entries", scheme, len(res.IPC))
		}
		for i, ipc := range res.IPC {
			if ipc <= 0 || ipc > 1/cfg.Core.BaseCPI+0.01 {
				t.Fatalf("%v: thread %d IPC %v out of range", scheme, i, ipc)
			}
		}
		if res.MemAccesses == 0 || res.Verification == 0 {
			t.Fatalf("%v: no memory traffic recorded", scheme)
		}
	}
}

func TestDeterminism(t *testing.T) {
	cfg := quickCfg()
	mix := smallMix(t)
	a := runMix(t, &cfg, config.SchemeIvLeaguePro, mix)
	b := runMix(t, &cfg, config.SchemeIvLeaguePro, mix)
	for i := range a.IPC {
		if a.IPC[i] != b.IPC[i] {
			t.Fatalf("nondeterministic IPC at thread %d: %v vs %v", i, a.IPC[i], b.IPC[i])
		}
	}
	if a.MemAccesses != b.MemAccesses {
		t.Fatalf("nondeterministic memory accesses: %d vs %d", a.MemAccesses, b.MemAccesses)
	}
}

func TestIvLeagueStatsPopulated(t *testing.T) {
	cfg := quickCfg()
	res := runMix(t, &cfg, config.SchemeIvLeagueBasic, smallMix(t))
	if res.Failed {
		t.Fatal(res.FailMsg)
	}
	if res.NFLBHitRate <= 0 || res.NFLBHitRate > 1 {
		t.Fatalf("NFLB hit rate %v", res.NFLBHitRate)
	}
	if res.Utilization < 0.99 {
		t.Fatalf("utilization %v", res.Utilization)
	}
	if res.LMMHitRate <= 0 {
		t.Fatalf("LMM hit rate %v", res.LMMHitRate)
	}
	if len(res.PathLenMean) == 0 {
		t.Fatal("no path lengths recorded")
	}
}

func TestBaselineHasNoIvLeagueStats(t *testing.T) {
	cfg := quickCfg()
	res := runMix(t, &cfg, config.SchemeBaseline, smallMix(t))
	if res.NFLBHitRate != 0 || res.Utilization != 0 {
		t.Fatal("baseline reported IvLeague stats")
	}
}

func TestRunAlone(t *testing.T) {
	cfg := quickCfg()
	p, err := workload.ByName("x264")
	if err != nil {
		t.Fatal(err)
	}
	ipc, err := RunAlone(&cfg, config.SchemeBaseline, p)
	if err != nil {
		t.Fatal(err)
	}
	if ipc <= 0 {
		t.Fatalf("alone IPC %v", ipc)
	}
}

func TestMixNeedsEnoughCores(t *testing.T) {
	cfg := quickCfg()
	cfg.Core.Count = 2
	mix, _ := workload.MixByName("M-1") // 8 threads
	if _, err := NewMachine(&cfg, config.SchemeBaseline, mix, 0); err == nil {
		t.Fatal("8-thread mix accepted on 2 cores")
	}
}

func TestChurnExercisesFreePaths(t *testing.T) {
	cfg := quickCfg()
	// S-4 includes churn-heavy benchmarks (perlbench, xalancbmk, gcc,
	// omnetpp): page frees must reach the NFL. Churn bursts fire every
	// ~40–60K memory ops, so run long enough to cross that.
	cfg.Sim.MeasureInstr = 200_000
	m, err := NewMachine(&cfg, config.SchemeIvLeagueBasic, smallMix(t), 0)
	if err != nil {
		t.Fatal(err)
	}
	res := m.Run()
	if res.Failed {
		t.Fatal(res.FailMsg)
	}
	freed := uint64(0)
	for _, th := range m.threads {
		freed += th.proc.PagesFreed.Value()
	}
	if freed == 0 {
		t.Fatal("no pages were freed during the run")
	}
}

func TestRunMixRejectsImpossibleConfig(t *testing.T) {
	cfg := quickCfg()
	cfg.Core.Count = 0
	if _, err := RunMix(&cfg, config.SchemeBaseline, smallMix(t)); err == nil {
		t.Fatal("machine construction with zero cores did not error")
	}
}

// An unmap must shoot the page down in every TLB of the process, not just
// the unmapping thread's. M-1's dedup runs two threads in one process and
// frees pages during its churn phase; with ivbench's quick-scale config
// and seed 33 its sibling thread used to keep a stale translation and
// read the freed frame ("access to unmapped pfn").
func TestUnmapShootsDownSiblingTLBs(t *testing.T) {
	cfg := config.Default()
	cfg.Sim.WarmupInstr = 30_000
	cfg.Sim.MeasureInstr = 120_000
	cfg.Sim.Seed = 33
	mix, err := workload.MixByName("M-1")
	if err != nil {
		t.Fatal(err)
	}
	for _, scheme := range []config.Scheme{
		config.SchemeIvLeagueBasic, config.SchemeIvLeagueInvert, config.SchemeIvLeaguePro,
	} {
		if res := runMix(t, &cfg, scheme, mix); res.Failed {
			t.Errorf("%v: %s", scheme, res.FailMsg)
		}
	}
}
