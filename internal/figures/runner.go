// The parallel run engine behind every simulation-backed figure: a bounded
// worker pool (stdlib only) that fans out independent runs and collects
// results by index, so output tables are byte-identical to a serial pass
// regardless of completion order. Isolation, not locking, is the safety
// story: stats.Counter and rng.Source are intentionally not goroutine-safe,
// so every run gets its own *config.Config copy and derives all of its
// randomness from that copy (or from an rng.ForkLabel per-run label) —
// workers never share mutable simulation state.

package figures

import (
	"context"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"

	"ivleague/internal/atomicio"
	"ivleague/internal/config"
	"ivleague/internal/sim"
	"ivleague/internal/stats"
	"ivleague/internal/sweep"
	"ivleague/internal/telemetry"
	"ivleague/internal/workload"
)

// parallelism resolves Options.Parallelism: values <= 0 mean one worker
// per available CPU.
func (o *Options) parallelism() int {
	if o.Parallelism > 0 {
		return o.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// syncWriter serializes Write calls from concurrent workers so per-run
// progress lines never interleave mid-line.
type syncWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

// begin prepares an entry point's Options copy: it makes Progress safe
// for concurrent use and, when the caller attached no sweep engine,
// attaches a dirless one with no failure budget, so every cell still runs
// contained and a library caller gets an error on the first failing cell.
func (o *Options) begin() error {
	o.lockProgress()
	if o.Sweep != nil {
		return nil
	}
	var err error
	o.Sweep, err = sweep.NewEngine(sweep.EngineConfig{})
	return err
}

// lockProgress makes o.Progress safe for concurrent use. Idempotent, so
// figure entry points can call it unconditionally on their Options copy.
func (o *Options) lockProgress() {
	if o.Progress == nil {
		return
	}
	if _, ok := o.Progress.(*syncWriter); ok {
		return
	}
	o.Progress = &syncWriter{w: o.Progress}
}

// forEach runs fn(i) for every i in [0, n) on a bounded worker pool, after
// announcing the n cells to the sweep ledger (so begin must have run).
// Callers collect results by writing into index i of a preallocated slice,
// which keeps output assembly deterministic no matter which worker
// finishes first. Every index runs even if earlier ones fail; the errors
// come back joined in index order (nil when all succeed). Panic
// containment and cell accounting are the sweep engine's job (sweepCell),
// not the pool's.
func (o *Options) forEach(n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	par := o.parallelism()
	if par > n {
		par = n
	}
	errs := make([]error, n)
	o.Sweep.Metrics().Plan(n)
	// done counts completions (not indices), so the "[k/n]" prefix doubles
	// as a progress bar.
	var done atomic.Int64
	cell := func(i int) {
		errs[i] = fn(i)
		o.progress("[%d/%d] cell %d done", done.Add(1), n, i)
	}
	if par <= 1 {
		for i := 0; i < n; i++ {
			cell(i)
		}
		return errors.Join(errs...)
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	wg.Add(par)
	for w := 0; w < par; w++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				cell(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return errors.Join(errs...)
}

// benchmarkNames returns every benchmark name in sorted order (the map
// iteration order of workload.Benchmarks is not deterministic).
func benchmarkNames() []string {
	return stats.SortedKeys(workload.Benchmarks())
}

// aloneIPCs fans out the per-benchmark alone runs (the weighted-IPC
// denominators of Figures 15 and 17a) and returns them keyed by benchmark.
// Alone cells are cached like every other cell but may not degrade: a
// missing denominator would silently poison every normalized column, so a
// persistently failing alone run aborts the sweep.
func aloneIPCs(o *Options) (map[string]float64, error) {
	names := benchmarkNames()
	vals := make([]float64, len(names))
	err := o.forEach(len(names), func(i int) error {
		p, err := workload.ByName(names[i])
		if err != nil {
			return err
		}
		cfg := o.Cfg
		key := sweep.CellKey{Kind: "alone", Scheme: config.SchemeBaseline.String(), Unit: names[i], Config: &cfg}
		ipc, outcome, err := sweepCell(o, key, true, func(ctx context.Context) (float64, error) {
			return sim.RunAlone(&cfg, config.SchemeBaseline, p, sim.WithContext(ctx))
		})
		if outcome == sweep.OutcomeDegraded {
			return fmt.Errorf("figures: alone run %s is a required denominator: %w", names[i], err)
		}
		if err != nil {
			return fmt.Errorf("figures: alone run %s: %w", names[i], err)
		}
		vals[i] = ipc
		o.progress("alone %-14s IPC %.4f", names[i], ipc)
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(names))
	for i, name := range names {
		out[name] = vals[i]
	}
	return out, nil
}

// mixSchemeJob is one (mix, scheme) simulation of a fan-out.
type mixSchemeJob struct {
	mix    workload.Mix
	scheme config.Scheme
}

// mixSchemeJobs flattens the mixes × schemes grid in declared order.
func mixSchemeJobs(mixes []workload.Mix, schemes []config.Scheme) []mixSchemeJob {
	jobs := make([]mixSchemeJob, 0, len(mixes)*len(schemes))
	for _, mix := range mixes {
		for _, s := range schemes {
			jobs = append(jobs, mixSchemeJob{mix: mix, scheme: s})
		}
	}
	return jobs
}

// runMixSchemes fans out one simulation per (mix, scheme) job. deriveCfg
// maps a job to the configuration its run uses (it must be a pure function
// of the job so that results do not depend on scheduling); tag prefixes
// the progress lines and trace file names.
func runMixSchemes(o *Options, jobs []mixSchemeJob, deriveCfg func(mixSchemeJob) config.Config, tag string) ([]sim.Result, error) {
	out := make([]sim.Result, len(jobs))
	err := o.forEach(len(jobs), func(i int) error {
		cfg := deriveCfg(jobs[i])
		res, err := o.mixCell(tag, &cfg, jobs[i])
		if err != nil {
			return fmt.Errorf("figures: %s: %w", tag, err)
		}
		out[i] = res
		o.progress("%s %-4s %-18s failed=%v", tag, jobs[i].mix.Name, jobs[i].scheme, res.Failed)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// mixCell runs one (mix, scheme) simulation through the sweep engine,
// skipping its store when armed injection or trace export has effects a
// stored result cannot reproduce. The cell key holds only what the
// simulation reads (config, scheme, mix), not the figure tag, so a cell
// two figures share is simulated once per cache. A contained per-cell
// failure (timeout, simulation error within the failure budget) comes
// back as a synthetic degraded Result, which the tables render as "deg" —
// the sweep keeps going.
func (o *Options) mixCell(tag string, cfg *config.Config, job mixSchemeJob) (sim.Result, error) {
	key := sweep.CellKey{Kind: "mix", Scheme: job.scheme.String(), Unit: job.mix.Name, Config: cfg}
	cached := o.Inject == nil && o.TraceDir == ""
	res, outcome, err := sweepCell(o, key, cached, func(ctx context.Context) (sim.Result, error) {
		opts := append(o.Inject.MachineOptions(), sim.WithContext(ctx))
		var tracer *telemetry.Tracer
		if o.TraceDir != "" {
			tracer = telemetry.NewTracer(0, o.TraceSample)
			opts = append(opts, sim.WithTracer(tracer))
		}
		r, err := sim.RunMix(cfg, job.scheme, job.mix, opts...)
		if err != nil {
			return sim.Result{}, err
		}
		if cerr := ctx.Err(); r.Failed && cerr != nil {
			// The failure is (or is masked by) the cell's cancellation:
			// surface it as an error so the engine never caches a
			// timed-out run as a measured outcome.
			return sim.Result{}, fmt.Errorf("%s: %w", r.FailMsg, cerr)
		}
		if tracer != nil {
			if err := writeTraceFile(o.TraceDir, tag, job, tracer); err != nil {
				return sim.Result{}, err
			}
		}
		return r, nil
	})
	if outcome == sweep.OutcomeDegraded {
		return sim.Result{Scheme: job.scheme, Failed: true, Degraded: true, FailMsg: err.Error()}, nil
	}
	return res, err
}

// sweepCell runs one cell through Options.Sweep, the only place a cell
// body runs: with cached set it goes through the engine's store (cache
// hit, or a fresh run persisted immediately), otherwise straight through
// the engine's containment. Either way the outcome is a result, degraded
// containment, or fatal abort.
func sweepCell[T any](o *Options, key sweep.CellKey, cached bool, run func(ctx context.Context) (T, error)) (T, sweep.Outcome, error) {
	var v, zero T
	body := func(ctx context.Context) error {
		r, err := run(ctx)
		if err != nil {
			return err
		}
		v = r
		return nil
	}
	var outcome sweep.Outcome
	var err error
	if cached {
		outcome, err = o.Sweep.Cell(key, &v, body)
	} else {
		outcome, err = o.Sweep.Run(key, body)
	}
	if err != nil {
		// A body abandoned after its timeout may still write v.
		return zero, outcome, err
	}
	return v, outcome, nil
}

// writeTraceFile exports one run's events as Chrome trace-event JSON into
// dir. Each worker writes its own file (atomically, so an interrupt never
// leaves a truncated trace), so no synchronization is needed.
func writeTraceFile(dir, tag string, job mixSchemeJob, tr *telemetry.Tracer) error {
	name := fmt.Sprintf("trace_%s_%s_%s.json", tag, job.mix.Name, job.scheme)
	f, err := atomicio.Create(filepath.Join(dir, name))
	if err != nil {
		return fmt.Errorf("figures: trace: %w", err)
	}
	if err := tr.WriteChromeTrace(f); err != nil {
		f.Abort()
		return fmt.Errorf("figures: trace %s: %w", name, err)
	}
	if err := f.Commit(); err != nil {
		return fmt.Errorf("figures: trace %s: %w", name, err)
	}
	return nil
}
