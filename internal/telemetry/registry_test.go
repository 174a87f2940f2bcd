package telemetry

import (
	"testing"

	"ivleague/internal/stats"
)

func TestSnapshotReadsRegisteredMetrics(t *testing.T) {
	r := NewRegistry()
	var hits, misses stats.Counter
	r.RegisterCounter("c.hits", &hits)
	r.RegisterCounter("c.misses", &misses)
	gauge := 1.5
	r.RegisterGauge("g", func() float64 { return gauge })

	hits.Add(3)
	misses.Add(1)
	snap := r.Snapshot()
	if got := snap.Counter("c.hits"); got != 3 {
		t.Fatalf("hits = %d, want 3", got)
	}
	if got := snap.Gauges["g"]; got != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", got)
	}
	if got := snap.HitRate("c"); got != 0.75 {
		t.Fatalf("HitRate = %v, want 0.75", got)
	}
	if snap.Phase != PhaseWarmup {
		t.Fatalf("phase = %q, want %q", snap.Phase, PhaseWarmup)
	}

	// Snapshots are point-in-time copies: later increments must not leak in.
	hits.Add(100)
	if got := snap.Counter("c.hits"); got != 3 {
		t.Fatalf("snapshot mutated by later increment: hits = %d", got)
	}
}

func TestSnapshotMissingNamesReadZero(t *testing.T) {
	snap := NewRegistry().Snapshot()
	if snap.Counter("nope") != 0 || snap.Gauges["nope"] != 0 {
		t.Fatal("absent metrics must read as zero")
	}
	if snap.HitRate("nope") != 0 {
		t.Fatal("HitRate with no traffic must be 0")
	}
	if snap.Ratio("a", "b") != 0 {
		t.Fatal("Ratio with zero denominator must be 0")
	}
}

func TestResetZeroesCountersAndRunsHooks(t *testing.T) {
	r := NewRegistry()
	var c stats.Counter
	r.RegisterCounter("c", &c)
	hookRan := false
	r.RegisterReset(func() { hookRan = true })

	c.Add(7)
	r.Reset()
	r.SetPhase(PhaseMeasure)

	snap := r.Snapshot()
	if snap.Counter("c") != 0 {
		t.Fatalf("counter survived Reset: %d", snap.Counter("c"))
	}
	if !hookRan {
		t.Fatal("reset hook did not run")
	}
	if snap.Phase != PhaseMeasure {
		t.Fatalf("phase = %q, want %q", snap.Phase, PhaseMeasure)
	}
}

func TestSamplersContributeAndAggregate(t *testing.T) {
	r := NewRegistry()
	// Two samplers adding to the same counter model per-thread aggregation.
	r.RegisterSampler(func(s *Sample) { s.Counter("agg", 2) })
	r.RegisterSampler(func(s *Sample) {
		s.Counter("agg", 3)
		s.Gauge("dyn", 0.5)
	})
	snap := r.Snapshot()
	if got := snap.Counter("agg"); got != 5 {
		t.Fatalf("sampled counter = %d, want 5", got)
	}
	if got := snap.Gauges["dyn"]; got != 0.5 {
		t.Fatalf("sampled gauge = %v, want 0.5", got)
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate counter registration must panic")
		}
	}()
	r := NewRegistry()
	var c stats.Counter
	r.RegisterCounter("c", &c)
	r.RegisterCounter("c", &c)
}
