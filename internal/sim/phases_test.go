package sim

import (
	"reflect"
	"testing"

	"ivleague/internal/config"
	"ivleague/internal/telemetry"
	"ivleague/internal/workload"
)

// TestPhaseTimersDoNotChangeResults runs the same mix with phase timers
// off, sampled, and armed on every op, and demands an identical Result
// each time: the timers read only the host clock, so attaching them must
// never perturb the simulation.
func TestPhaseTimersDoNotChangeResults(t *testing.T) {
	cfg := config.Default()
	cfg.Sim.WarmupInstr = 2_000
	cfg.Sim.MeasureInstr = 10_000
	cfg.Sim.FootprintScale = 0.05
	mix, err := workload.MixByName("S-2")
	if err != nil {
		t.Fatal(err)
	}

	base := runMix(t, &cfg, config.SchemeIvLeaguePro, mix)
	if base.Failed {
		t.Fatalf("baseline run failed: %s", base.FailMsg)
	}
	for _, sample := range []int{64, 1} {
		pt := telemetry.NewPhaseTimers(sample)
		res := runMix(t, &cfg, config.SchemeIvLeaguePro, mix, WithPhaseTimers(pt))
		if res.Failed {
			t.Fatalf("timed run (sample %d) failed: %s", sample, res.FailMsg)
		}
		if !reflect.DeepEqual(base, res) {
			t.Fatalf("phase timers (sample %d) changed the result:\noff: %+v\non:  %+v", sample, base, res)
		}
		// The timers must actually have measured something. Every secure
		// access, read miss or writeback, runs inside the secmem phase, so
		// on every-op timing it covers the metadata-cache time nested in it.
		bd := pt.Breakdown()
		if bd["step"] == 0 {
			t.Fatalf("sample %d: no step time accumulated: %v", sample, bd)
		}
		if sample == 1 && (bd["secmem"] == 0 || bd["secmem"] < bd["meta_cache"]) {
			t.Fatalf("every-op timers: secmem must be nonzero and cover meta_cache: %v", bd)
		}
	}
}

// TestPhaseTimerGaugesRegistered checks the per-phase gauges ride the
// machine's registry when timers are attached, and stay absent otherwise.
func TestPhaseTimerGaugesRegistered(t *testing.T) {
	cfg := config.Default()
	cfg.Sim.WarmupInstr = 500
	cfg.Sim.MeasureInstr = 1_000
	cfg.Sim.FootprintScale = 0.05
	mix, err := workload.MixByName("S-1")
	if err != nil {
		t.Fatal(err)
	}

	m, err := NewMachine(&cfg, config.SchemeIvLeaguePro, mix, 0, WithPhaseTimers(telemetry.NewPhaseTimers(1)))
	if err != nil {
		t.Fatal(err)
	}
	if res := m.Run(); res.Failed {
		t.Fatalf("run failed: %s", res.FailMsg)
	}
	snap := m.Registry().Snapshot()
	if _, ok := snap.Gauges["phase.step.ns"]; !ok {
		t.Fatal("phase.step.ns gauge missing with timers attached")
	}
	if snap.Gauge("phase.step.samples") == 0 {
		t.Fatal("phase.step.samples is zero after a run")
	}

	m2, err := NewMachine(&cfg, config.SchemeIvLeaguePro, mix, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m2.Registry().Snapshot().Gauges["phase.step.ns"]; ok {
		t.Fatal("phase gauges registered without timers")
	}
}
