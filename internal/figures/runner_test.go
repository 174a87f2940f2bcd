package figures

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"ivleague/internal/config"
	"ivleague/internal/sim"
	"ivleague/internal/sweep"
)

func TestForEachCoversEveryIndex(t *testing.T) {
	for _, par := range []int{1, 2, 8, 100} {
		o := &Options{Parallelism: par}
		if err := o.begin(); err != nil {
			t.Fatal(err)
		}
		const n = 37
		var hits [n]int32
		if err := o.forEach(n, func(i int) error {
			atomic.AddInt32(&hits[i], 1)
			return nil
		}); err != nil {
			t.Fatalf("par=%d: %v", par, err)
		}
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("par=%d: index %d ran %d times", par, i, h)
			}
		}
	}
}

func TestForEachJoinsErrorsInIndexOrder(t *testing.T) {
	o := &Options{Parallelism: 4}
	if err := o.begin(); err != nil {
		t.Fatal(err)
	}
	var ran int32
	err := o.forEach(10, func(i int) error {
		atomic.AddInt32(&ran, 1)
		if i == 2 || i == 7 {
			return fmt.Errorf("boom %d", i)
		}
		return nil
	})
	if err == nil {
		t.Fatal("errors were dropped")
	}
	if ran != 10 {
		t.Fatalf("only %d/10 indices ran after a failure", ran)
	}
	msg := err.Error()
	i2, i7 := strings.Index(msg, "boom 2"), strings.Index(msg, "boom 7")
	if i2 < 0 || i7 < 0 || i2 > i7 {
		t.Fatalf("errors missing or out of index order: %q", msg)
	}
}

// TestSweepCellContainsPanics: a panicking cell body comes back from
// sweepCell as an error, through the store or straight through the
// engine's containment — the engine is the harness's only recover.
func TestSweepCellContainsPanics(t *testing.T) {
	o := &Options{Sweep: newSweepEngine(t, t.TempDir())}
	cfg := config.Default()
	key := sweep.CellKey{Kind: "test", Config: &cfg}
	for _, cached := range []bool{true, false} {
		_, _, err := sweepCell(o, key, cached, func(context.Context) (int, error) { panic("figure bug") })
		if err == nil || !strings.Contains(err.Error(), "figure bug") {
			t.Fatalf("cached=%v: panic not converted to error: %v", cached, err)
		}
	}
}

func TestSyncWriterKeepsLinesIntact(t *testing.T) {
	var buf bytes.Buffer
	o := &Options{Parallelism: 8, Progress: &buf}
	if err := o.begin(); err != nil {
		t.Fatal(err)
	}
	if err := o.forEach(200, func(i int) error {
		o.progress("line %d of a progress report", i)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// forEach adds one "[k/n] cell i done" completion line per cell on top
	// of the 200 lines fn prints; both kinds must arrive unfragmented.
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 400 {
		t.Fatalf("got %d lines, want 400", len(lines))
	}
	var fnLines, cellLines int
	for _, l := range lines {
		switch {
		case strings.HasPrefix(l, "line ") && strings.HasSuffix(l, "of a progress report"):
			fnLines++
		case strings.HasPrefix(l, "[") && strings.Contains(l, "] cell ") && strings.HasSuffix(l, " done"):
			cellLines++
		default:
			t.Fatalf("interleaved progress line: %q", l)
		}
	}
	if fnLines != 200 || cellLines != 200 {
		t.Fatalf("got %d fn lines and %d completion lines, want 200 each", fnLines, cellLines)
	}
	if got := o.Sweep.Metrics().Progress().TotalCells; got != 200 {
		t.Fatalf("forEach planned %d cells in the ledger, want 200", got)
	}
	// Wrapping twice must not double-lock.
	w := o.Progress
	o.lockProgress()
	if o.Progress != w {
		t.Fatal("lockProgress is not idempotent")
	}
}

func TestRunReturnsErrorInsteadOfPanicking(t *testing.T) {
	o := tinyOptions(t, "S-1")
	o.Cfg.Core.Count = 0 // every machine build fails
	if _, err := Run(o); err == nil {
		t.Fatal("Run with an impossible config did not return an error")
	}
}

// TestUncachedFailingCellsRenderAsDeg: with two cores every alone run
// builds but no four-process mix machine does. A dirless engine with an
// unlimited budget renders those cells as "deg", with or without the
// store-skipping trace path; with no engine attached, Run fails instead.
func TestUncachedFailingCellsRenderAsDeg(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	o := tinyOptions(t, "S-1")
	o.Cfg.Core.Count = 2
	if _, err := Run(o); err == nil {
		t.Fatal("Run with no engine attached tolerated a failing mix cell")
	}
	for _, traceDir := range []string{"", t.TempDir()} {
		e, err := sweep.NewEngine(sweep.EngineConfig{MaxCellFailures: -1})
		if err != nil {
			t.Fatal(err)
		}
		o.Sweep, o.TraceDir = e, traceDir
		rs, err := Run(o)
		if err != nil {
			t.Fatalf("trace=%q: %v", traceDir, err)
		}
		if got, want := int(e.Metrics().Degraded.Load()), len(o.Schemes); got != want {
			t.Fatalf("trace=%q: degraded %d cells, want %d", traceDir, got, want)
		}
		f15, err := rs.Fig15()
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(f15.String(), "deg") {
			t.Fatalf("trace=%q: Fig15 does not render failing cells as deg:\n%s", traceDir, f15)
		}
	}
}

// renderRunSet renders every table derived from a RunSet.
func renderRunSet(t *testing.T, rs *RunSet) string {
	t.Helper()
	f15, err := rs.Fig15()
	if err != nil {
		t.Fatal(err)
	}
	return f15.String() + rs.Fig16().String() + rs.Fig17b().String() +
		rs.Fig18().String() + rs.Fig19().String()
}

func TestRunParallelismDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	o := tinyOptions(t, "S-1", "L-2")
	o.Cfg.Sim.WarmupInstr = 2_000
	o.Cfg.Sim.MeasureInstr = 6_000

	o.Parallelism = 1
	serial, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	o.Parallelism = 8
	parallel, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(serial.Alone, parallel.Alone) {
		t.Fatalf("alone IPCs diverge:\nserial:   %v\nparallel: %v", serial.Alone, parallel.Alone)
	}
	if !reflect.DeepEqual(serial.Results, parallel.Results) {
		t.Fatal("per-(mix, scheme) results diverge between -j 1 and -j 8")
	}
	st, pt := renderRunSet(t, serial), renderRunSet(t, parallel)
	if st != pt {
		t.Fatalf("rendered tables diverge:\n-- j=1 --\n%s\n-- j=8 --\n%s", st, pt)
	}
}

func TestFig22ParallelismDeterminism(t *testing.T) {
	o := tinyOptions(t, "S-1")
	o.Parallelism = 1
	st, err := Fig22(o)
	if err != nil {
		t.Fatal(err)
	}
	serial := st.String()
	o.Parallelism = 8
	pt, err := Fig22(o)
	if err != nil {
		t.Fatal(err)
	}
	parallel := pt.String()
	if serial != parallel {
		t.Fatalf("Fig22 diverges:\n-- j=1 --\n%s\n-- j=8 --\n%s", serial, parallel)
	}
}

func TestWeightedIPCMissingAloneIsError(t *testing.T) {
	rs := &RunSet{Alone: map[string]float64{}}
	res := sim.Result{Bench: []string{"gcc"}, IPC: []float64{1.0}}
	if _, err := rs.weightedIPC(res); err == nil {
		t.Fatal("missing alone IPC did not error")
	}
	// A failed run is a measured outcome, not an error.
	res.Failed = true
	if w, err := rs.weightedIPC(res); err != nil || w != 0 {
		t.Fatalf("failed run: w=%v err=%v", w, err)
	}
}
