package sweep

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ivleague/internal/telemetry"
)

// TestMetricsProgress pins the /progress report the ledger serves: plans
// are cumulative, done counts hits and bodies, failed counts failed
// bodies, and the latency digest covers bodies only.
func TestMetricsProgress(t *testing.T) {
	m := &Metrics{start: time.Now()}
	r := m.Progress()
	if r.TotalCells != 0 || r.DoneCells != 0 || r.ETASec != -1 || r.Latency.Count != 0 {
		t.Fatalf("fresh ledger report: %+v", r)
	}

	m.Plan(10)
	m.Plan(5) // totals are cumulative across fan-outs
	for i := 0; i < 6; i++ {
		m.recordRun(time.Duration(i+1)*10*time.Millisecond, i == 3)
	}
	m.recordHit()
	m.Degraded.Add(2)
	r = m.Progress()
	if r.TotalCells != 15 || r.DoneCells != 7 || r.FailedCells != 1 || r.DegradedCells != 2 {
		t.Fatalf("counts: %+v", r)
	}
	if r.Latency.Count != 6 || r.Latency.MaxMs != 60 {
		t.Fatalf("latency digest must cover the 6 bodies, not the hit: %+v", r.Latency)
	}
	if r.Latency.P50Ms < 10 || r.Latency.P50Ms > 60 {
		t.Fatalf("p50 out of observed range: %+v", r.Latency)
	}
	if r.ElapsedSec < 0 {
		t.Fatalf("elapsed: %+v", r)
	}
	// 7 completions within this test's microseconds: the rolling rate is
	// huge but finite, and the ETA must be a non-negative number.
	if r.CellsPerSec < 0 || math.IsNaN(r.CellsPerSec) || math.IsInf(r.CellsPerSec, 0) {
		t.Fatalf("rate: %+v", r)
	}
	if r.ETASec != -1 && r.ETASec < 0 {
		t.Fatalf("eta: %+v", r)
	}
}

func TestMetricsRegisterPublishesGauges(t *testing.T) {
	var m Metrics
	m.Hits.Add(3)
	m.Degraded.Add(1)
	m.Plan(4)
	m.recordRun(20*time.Millisecond, false)
	reg := telemetry.NewRegistry()
	m.Register(reg)
	snap := reg.Snapshot()
	for name, want := range map[string]float64{
		"sweep.cache.hits":          3,
		"sweep.cell.degraded":       1,
		"sweep.cell.planned":        4,
		"sweep.cell.done":           1,
		"sweep.cell.failed":         0,
		"sweep.cell.latency_ms.p50": 20,
	} {
		if got := snap.Gauge(name); got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if got := snap.Counter("sweep.cell.latency_ms.count"); got != 1 {
		t.Errorf("sweep.cell.latency_ms.count = %v, want 1", got)
	}
}

// TestLedgerUnderConcurrency drives Cell (hits and misses) and Run from
// concurrent workers while a reader polls Progress and a registry
// snapshot. Every report must be consistent, and the final ledger must
// account for every cell: done = hits + bodies run, the latency count =
// bodies run, failed = bodies that failed.
func TestLedgerUnderConcurrency(t *testing.T) {
	e := newTestEngine(t, EngineConfig{MaxCellFailures: -1})
	m := e.Metrics()
	reg := telemetry.NewRegistry()
	m.Register(reg)

	const workers, perWorker = 4, 40
	m.Plan(workers * perWorker)
	var hits, runs, failed atomic.Int64
	stop := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			p := m.Progress()
			if p.DoneCells > p.TotalCells || p.FailedCells > p.DoneCells || int(p.Latency.Count) > p.DoneCells {
				t.Errorf("inconsistent report: %+v", p)
			}
			if done := reg.Snapshot().Gauge("sweep.cell.done"); done > workers*perWorker {
				t.Errorf("snapshot done = %v beyond the plan", done)
			}
			select {
			case <-stop:
				return
			case <-time.After(100 * time.Microsecond):
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perWorker; j++ {
				fail := j%5 == 4
				var v int
				body := func(context.Context) error {
					runs.Add(1)
					if fail {
						failed.Add(1)
						return errors.New("boom")
					}
					v = j
					return nil
				}
				// Eight units repeat, so stored cells come back as hits.
				key := testKey(fmt.Sprintf("u%d", j%8))
				var out Outcome
				if j%3 == 0 {
					out, _ = e.Run(key, body)
				} else {
					out, _ = e.Cell(key, &v, body)
				}
				if out == OutcomeHit {
					hits.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	reader.Wait()

	p := m.Progress()
	if p.DoneCells != workers*perWorker || int64(p.DoneCells) != hits.Load()+runs.Load() {
		t.Fatalf("done = %d, want %d = %d hits + %d bodies", p.DoneCells, workers*perWorker, hits.Load(), runs.Load())
	}
	if hits.Load() == 0 {
		t.Fatal("no cell hit the store; the test exercises misses only")
	}
	if int64(p.Latency.Count) != runs.Load() || m.Misses.Load() != uint64(runs.Load()) {
		t.Fatalf("latency count = %d, misses = %d, want %d bodies", p.Latency.Count, m.Misses.Load(), runs.Load())
	}
	if int64(p.FailedCells) != failed.Load() {
		t.Fatalf("failed = %d, want %d", p.FailedCells, failed.Load())
	}
	snap := reg.Snapshot()
	if snap.Gauge("sweep.cell.done") != float64(p.DoneCells) || snap.Gauge("sweep.cell.failed") != float64(p.FailedCells) {
		t.Fatalf("snapshot disagrees with Progress: %+v", p)
	}
}
