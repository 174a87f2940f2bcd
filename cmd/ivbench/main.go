// Command ivbench regenerates the paper's tables and figures. With no
// arguments it runs every experiment at quick scale; pass experiment IDs
// (fig3 fig15 fig16 fig17a fig17b fig18 fig19 fig20a fig20b fig21 fig22
// table3) to select a subset, and -full for longer, tighter runs.
// Independent runs fan out across -j workers; tables are byte-identical
// for every -j value. Any failed experiment is reported on stderr and the
// process exits non-zero. Every cell runs through one sweep engine:
// -cell-timeout and -max-cell-failures bound and contain per-cell faults
// (persistently failing cells render as "deg" instead of aborting the
// sweep).
//
// With -cache-dir the harness becomes a crash-safe resumable sweep: every
// simulation cell is fingerprinted and persisted to a content-addressed
// cache the moment it completes, so a killed sweep rerun against the same
// directory (-resume) re-simulates only the missing cells and emits
// byte-identical tables. SIGINT/SIGTERM drains in-flight cells,
// checkpoints the journal and exits with a resume hint.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"ivleague/internal/atomicio"
	"ivleague/internal/figures"
	"ivleague/internal/obs"
	"ivleague/internal/stats"
	"ivleague/internal/sweep"
	"ivleague/internal/telemetry"
	"ivleague/internal/workload"
)

// exitInterrupted is the exit status of a sweep drained by SIGINT/SIGTERM
// (distinct from 1 = experiment failure and 2 = usage error).
const exitInterrupted = 3

func main() {
	full := flag.Bool("full", false, "run the long (paper-scale) configuration")
	verbose := flag.Bool("v", false, "print per-run progress to stderr")
	mixFilter := flag.String("mixes", "", "comma-separated mix subset (e.g. S-1,L-2)")
	jobs := flag.Int("j", runtime.GOMAXPROCS(0), "max concurrent simulation runs (results are identical for any value)")
	traceDir := flag.String("trace", "", "export one Chrome trace-event JSON per (mix, scheme) run into this directory")
	traceSample := flag.Int("trace-sample", 64, "with -trace, record every Nth event")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the whole harness to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	cacheDir := flag.String("cache-dir", "", "persist every simulation cell to this content-addressed cache and skip cells already present (crash-safe resumable sweeps)")
	resume := flag.Bool("resume", false, "with -cache-dir, resume a previous (possibly killed) sweep: requires an existing journal and reports prior progress")
	cellTimeout := flag.Duration("cell-timeout", 0, "bound one cell's simulation (0 = unbounded); timed-out cells degrade instead of hanging the sweep")
	maxCellFailures := flag.Int("max-cell-failures", 4, "tolerate this many persistently failing cells (rendered as \"deg\") before aborting; negative = unlimited")
	httpAddr := flag.String("http", "", "serve live observability (/metrics, /progress, /healthz, /debug/pprof) on this address while the harness runs (e.g. :9090)")
	flag.Parse()

	// One process-wide CPU profiler: the -cpuprofile file and the live
	// server's /debug/pprof/profile endpoint arbitrate through this guard
	// instead of corrupting each other's profiles.
	profGuard := &obs.CPUProfileGuard{}
	if *cpuProfile != "" {
		if err := profGuard.Acquire("-cpuprofile " + *cpuProfile); err != nil {
			fmt.Fprintln(os.Stderr, "ivbench:", err)
			os.Exit(2)
		}
		f, err := atomicio.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ivbench:", err)
			os.Exit(2)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Abort()
			fmt.Fprintln(os.Stderr, "ivbench:", err)
			os.Exit(2)
		}
		defer func() {
			pprof.StopCPUProfile()
			profGuard.Release()
			if err := f.Commit(); err != nil {
				fmt.Fprintln(os.Stderr, "ivbench:", err)
			}
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := atomicio.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "ivbench:", err)
				return
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				f.Abort()
				fmt.Fprintln(os.Stderr, "ivbench:", err)
				return
			}
			if err := f.Commit(); err != nil {
				fmt.Fprintln(os.Stderr, "ivbench:", err)
			}
		}()
	}

	opts := figures.Quick()
	if *full {
		opts = figures.Full()
	}
	if *verbose {
		opts.Progress = os.Stderr
	}
	opts.Parallelism = *jobs
	if *traceDir != "" {
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "ivbench:", err)
			os.Exit(2)
		}
		opts.TraceDir = *traceDir
		opts.TraceSample = *traceSample
	}
	if *mixFilter != "" {
		var mixes []workload.Mix
		for _, name := range strings.Split(*mixFilter, ",") {
			m, err := workload.MixByName(strings.TrimSpace(name))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			mixes = append(mixes, m)
		}
		opts.Mixes = mixes
	}

	// The sweep engine every cell runs through: fault containment always,
	// plus, with -cache-dir, the content-addressed result cache and
	// journal, interruptible by SIGINT/SIGTERM. Its metrics and the live
	// server share one registry, so /metrics carries the sweep gauges.
	if *resume && *cacheDir == "" {
		fmt.Fprintln(os.Stderr, "ivbench: -resume requires -cache-dir")
		os.Exit(2)
	}
	ctx := context.Background()
	if *cacheDir != "" {
		if *resume {
			sum, err := sweep.ReadJournal(filepath.Join(*cacheDir, sweep.JournalName))
			if err != nil {
				fmt.Fprintf(os.Stderr, "ivbench: -resume: no resumable sweep at %s: %v\n", *cacheDir, err)
				os.Exit(2)
			}
			fmt.Fprintf(os.Stderr, "ivbench: resuming sweep %d at %s: %d cells done, %d prior hits, %d failed, %d interrupted\n",
				sum.Sweeps+1, *cacheDir, sum.Done, sum.Hits, sum.Failed, sum.Interrupted)
		}
		var stop context.CancelFunc
		ctx, stop = signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
	}
	engine, err := sweep.NewEngine(sweep.EngineConfig{
		Dir:             *cacheDir,
		CellTimeout:     *cellTimeout,
		MaxCellFailures: *maxCellFailures,
		Ctx:             ctx,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "ivbench:", err)
		os.Exit(2)
	}
	defer engine.Close()
	opts.Sweep = engine
	metrics := engine.Metrics()
	reg := telemetry.NewRegistry()
	metrics.Register(reg)

	// The live observability server: the sweep ledger's progress over
	// every fan-out, the shared registry's metrics, and guarded pprof.
	if *httpAddr != "" {
		srv, err := obs.StartServer(obs.ServerConfig{
			Addr:     *httpAddr,
			Snapshot: reg.Snapshot,
			Progress: metrics.Progress,
			Profiles: profGuard,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "ivbench:", err)
			os.Exit(2)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "ivbench: observability server on %s (/metrics /progress /healthz /debug/pprof)\n", srv.URL())
	}

	known := []string{"table3", "fig21", "fig22", "fig3", "fig15", "fig16",
		"fig17a", "fig17b", "fig18", "fig19", "fig20a", "fig20b"}
	want := map[string]bool{}
	for _, a := range flag.Args() {
		id := strings.ToLower(a)
		found := false
		for _, k := range known {
			found = found || k == id
		}
		if !found {
			fmt.Fprintf(os.Stderr, "ivbench: unknown experiment %q (known: %s)\n",
				a, strings.Join(known, " "))
			os.Exit(2)
		}
		want[id] = true
	}
	all := len(want) == 0
	sel := func(id string) bool { return all || want[id] }

	fail := func(err error) {
		// An interrupted sweep is not a failure: the in-flight cells have
		// drained, every completed cell is on disk, and the journal is
		// checkpointed — say how to pick the sweep back up.
		if engine.Interrupted() {
			if cerr := engine.Checkpoint(); cerr != nil {
				fmt.Fprintln(os.Stderr, "ivbench: journal checkpoint:", cerr)
			}
			fmt.Fprintln(os.Stderr, "ivbench: interrupted;", metrics.Summary())
			fmt.Fprintf(os.Stderr, "ivbench: completed cells are cached; resume with: ivbench -cache-dir %s -resume %s\n",
				*cacheDir, strings.Join(flag.Args(), " "))
			os.Exit(exitInterrupted)
		}
		fmt.Fprintln(os.Stderr, "ivbench:", err)
		os.Exit(1)
	}
	show := func(title string, t *stats.Table, err error) {
		if err != nil {
			fail(err)
		}
		fmt.Println("== " + title + " ==")
		fmt.Println(t)
	}

	start := time.Now()

	// Simulation-independent experiments first (fast).
	if sel("table3") {
		show("Table III: hardware cost", figures.Table3(&opts.Cfg), nil)
	}
	if sel("fig21") {
		show("Figure 21: required TreeLings vs size and skewness (D=4096)", figures.Fig21(), nil)
	}
	if sel("fig22") {
		t, err := figures.Fig22(opts)
		show("Figure 22: scheduling success rate, static partitioning vs IvLeague", t, err)
	}
	if sel("fig3") {
		t, err := figures.Fig3(opts)
		show("Figure 3 / Section IV: metadata side-channel attack", t, err)
	}

	needRunSet := sel("fig15") || sel("fig16") || sel("fig17b") || sel("fig18") || sel("fig19")
	var rs *figures.RunSet
	if needRunSet {
		var err error
		if rs, err = figures.Run(opts); err != nil {
			fail(err)
		}
	}
	if sel("fig15") {
		t, err := rs.Fig15()
		show("Figure 15: weighted IPC normalized to Baseline", t, err)
	}
	if sel("fig16") {
		show("Figure 16: average verification path length", rs.Fig16(), nil)
	}
	if sel("fig17a") {
		t, err := figures.Fig17a(opts)
		show("Figure 17a: NFL vs naive bit vectors (x = failed)", t, err)
	}
	if sel("fig17b") {
		show("Figure 17b: TreeLing utilization", rs.Fig17b(), nil)
	}
	if sel("fig18") {
		show("Figure 18: NFLB hit rate", rs.Fig18(), nil)
	}
	if sel("fig19") {
		show("Figure 19: total memory accesses vs Baseline", rs.Fig19(), nil)
	}
	if sel("fig20a") {
		t, err := figures.Fig20a(opts)
		show("Figure 20a: TreeLing size sensitivity", t, err)
	}
	if sel("fig20b") {
		t, err := figures.Fig20b(opts)
		show("Figure 20b: tree metadata cache size sensitivity", t, err)
	}

	fmt.Fprintf(os.Stderr, "ivbench: %s in %s\n", metrics.Summary(), time.Since(start).Round(time.Millisecond))
}
