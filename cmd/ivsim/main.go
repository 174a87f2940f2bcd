// Command ivsim runs one workload mix under one secure-memory scheme and
// prints the detailed statistics of the run.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"ivleague/internal/atomicio"
	"ivleague/internal/config"
	"ivleague/internal/faults"
	"ivleague/internal/obs"
	"ivleague/internal/sim"
	"ivleague/internal/telemetry"
	"ivleague/internal/workload"
)

func main() {
	mixName := flag.String("mix", "S-1", "workload mix (S-1..S-6, M-1..M-6, L-1..L-4)")
	schemeName := flag.String("scheme", "ivleague-pro",
		"scheme: baseline | static | ivleague-basic | ivleague-invert | ivleague-pro | bv-v1 | bv-v2")
	measure := flag.Uint64("instr", 120_000, "measured instructions per core")
	warmup := flag.Uint64("warmup", 30_000, "warmup instructions per core")
	scale := flag.Float64("scale", 0.25, "footprint scale (1.0 = paper-sized)")
	seed := flag.Uint64("seed", 42, "simulation seed")
	traceOut := flag.String("trace-out", "", "record the access trace to this file")
	traceIn := flag.String("trace-in", "", "replay a recorded trace instead of the generators")
	chromeTrace := flag.String("trace", "", "export a Chrome trace-event JSON (Perfetto-loadable) of the run to this file")
	traceSample := flag.Int("trace-sample", 1, "with -trace, record every Nth event")
	auditFlag := flag.Bool("audit", false,
		"account every metadata touch by (domain, TreeLing, level, node) and print the isolation report; "+
			"exits non-zero if an IvLeague scheme shares a node across domains")
	injectSpec := flag.String("inject", "",
		"inject a fault as class@op (classes: "+liveClassNames()+"); the run reports whether the scheme detected it")
	crashAt := flag.Uint64("crash-at", 0, "kill the run at this op, recover from the persisted image and check state equality")
	httpAddr := flag.String("http", "", "serve live observability (/metrics, /healthz, /debug/pprof) on this address while the run executes (e.g. :9090)")
	phaseTimersFlag := flag.Bool("phase-timers", false, "sample per-phase host time on the simulation hot path and print the breakdown")
	phaseSample := flag.Int("phase-sample", 64, "with -phase-timers, sample every Nth op (rounded to a power of two)")
	flag.Parse()

	scheme, err := config.ParseScheme(*schemeName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	mix, err := workload.MixByName(*mixName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	cfg := config.Default()
	cfg.Sim.MeasureInstr = *measure
	cfg.Sim.WarmupInstr = *warmup
	cfg.Sim.FootprintScale = *scale
	cfg.Sim.Seed = *seed
	if err := cfg.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	// -crash-at 0 (power loss before the first op) is meaningful, so the
	// flag's presence, not its value, selects the crash path.
	crashSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "crash-at" {
			crashSet = true
		}
	})
	if crashSet {
		if err := faults.CrashRecoveryCheck(&cfg, scheme, mix, *crashAt); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("crash at op %d under %s: recovered state matches a clean rerun and serves verified traffic\n",
			*crashAt, scheme)
		return
	}
	var inj *faults.SimInjection
	if *injectSpec != "" {
		var err error
		if inj, err = parseInject(*injectSpec, *seed); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}

	opts := inj.MachineOptions()
	var tracer *telemetry.Tracer
	if *chromeTrace != "" {
		tracer = telemetry.NewTracer(1<<20, *traceSample)
		opts = append(opts, sim.WithTracer(tracer))
	}
	var audit *telemetry.Audit
	if *auditFlag {
		audit = telemetry.NewAudit()
		opts = append(opts, sim.WithAudit(audit))
	}
	var phases *telemetry.PhaseTimers
	if *phaseTimersFlag {
		phases = telemetry.NewPhaseTimers(*phaseSample)
		opts = append(opts, sim.WithPhaseTimers(phases))
	}
	if *httpAddr != "" {
		// The machine's registry belongs to the simulation goroutine, so
		// the server never touches it: an op hook publishes snapshots at
		// a fixed cadence and handlers read the latest published one.
		pub := &obs.Publisher{}
		opts = append(opts, sim.WithOpHook(func(m *sim.Machine, op uint64) error {
			if op%16384 == 0 {
				pub.Publish(m.Registry().Snapshot())
			}
			return nil
		}))
		srv, err := obs.StartServer(obs.ServerConfig{
			Addr:     *httpAddr,
			Snapshot: pub.Latest,
			Profiles: &obs.CPUProfileGuard{},
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "ivsim: observability server on %s (/metrics /healthz /debug/pprof)\n", srv.URL())
	}

	var res sim.Result
	switch {
	case *traceIn != "":
		f, err := os.Open(*traceIn)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		defer f.Close()
		res, err = sim.ReplayMix(&cfg, scheme, mix, f, opts...)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	case *traceOut != "":
		// Atomic write: the trace file appears only once fully recorded,
		// so an interrupted run never leaves a truncated trace behind.
		f, err := atomicio.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		m, err := sim.NewMachine(&cfg, scheme, mix, 0, opts...)
		if err != nil {
			f.Abort()
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		w := m.RecordTrace(f)
		res = m.Run()
		if err := w.Flush(); err != nil {
			f.Abort()
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if err := f.Commit(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		fmt.Printf("trace: %d records -> %s\n", w.Count(), *traceOut)
	default:
		var err error
		if res, err = sim.RunMix(&cfg, scheme, mix, opts...); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}
	fmt.Printf("mix %s under %s (footprint %d MB, %d procs)\n",
		mix.Name, scheme, mix.FootprintMB(), len(mix.Procs))
	if res.Tampered && inj != nil {
		fmt.Printf("TAMPER DETECTED (injected %s from op %d): %s\n", inj.Class, inj.AtOp, res.FailMsg)
		return
	}
	if res.Failed {
		fmt.Printf("RUN FAILED: %s\n", res.FailMsg)
		os.Exit(1)
	}
	if inj != nil {
		fmt.Printf("injection %s from op %d: run completed undetected (benign class, no target, or never re-verified)\n",
			inj.Class, inj.AtOp)
	}
	for i, b := range res.Bench {
		fmt.Printf("  core %d %-14s IPC %.4f\n", i, b, res.IPC[i])
	}
	fmt.Printf("memory accesses:      %d (mean read latency %.1f cycles)\n", res.MemAccesses, res.DRAMReadLat)
	fmt.Printf("verifications:        %d\n", res.Verification)
	names := make([]string, 0, len(res.PathLenMean))
	for n := range res.PathLenMean {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  path length %-14s %.3f\n", n, res.PathLenMean[n])
	}
	fmt.Printf("counter cache hit:    %.3f\n", res.CtrHitRate)
	fmt.Printf("tree cache hit:       %.3f\n", res.TreeHitRate)
	fmt.Printf("LLC miss rate:        %.3f\n", res.L3MissRate)
	if scheme.IsIvLeague() {
		fmt.Printf("NFLB hit rate:        %.3f\n", res.NFLBHitRate)
		fmt.Printf("LMM cache hit rate:   %.3f\n", res.LMMHitRate)
		fmt.Printf("TreeLing utilization: %.5f (untracked slots: %d)\n", res.Utilization, res.Untracked)
	}
	if scheme == config.SchemeStaticPartition {
		fmt.Printf("partition swaps:      %d\n", res.Swaps)
	}
	if phases != nil {
		fmt.Print(phases.FormatReport())
	}
	if tracer != nil {
		f, err := atomicio.Create(*chromeTrace)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if err := tracer.WriteChromeTrace(f); err != nil {
			f.Abort()
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if err := f.Commit(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		fmt.Printf("chrome trace:         %d events (%d seen, %d displaced by the ring) -> %s\n",
			len(tracer.Events()), tracer.Seen(), tracer.Overwritten(), *chromeTrace)
	}
	if audit != nil {
		rep := audit.Report()
		fmt.Println(rep.String())
		if scheme.IsIvLeague() && !rep.Isolated() {
			fmt.Fprintf(os.Stderr, "isolation audit FAILED: %s shares %d metadata nodes across domains\n",
				scheme, rep.SharedNodes)
			os.Exit(1)
		}
	}
}

func liveClassNames() string {
	var names []string
	for _, c := range faults.LiveClasses() {
		names = append(names, string(c))
	}
	return strings.Join(names, ", ")
}

func parseInject(spec string, seed uint64) (*faults.SimInjection, error) {
	cls, opStr, ok := strings.Cut(spec, "@")
	if !ok {
		return nil, fmt.Errorf("-inject wants class@op, got %q", spec)
	}
	var class faults.Class
	for _, c := range faults.LiveClasses() {
		if string(c) == cls {
			class = c
		}
	}
	if class == "" {
		return nil, fmt.Errorf("unknown or non-live fault class %q (want one of: %s)", cls, liveClassNames())
	}
	op, err := strconv.ParseUint(opStr, 10, 64)
	if err != nil {
		return nil, fmt.Errorf("-inject op %q: %v", opStr, err)
	}
	return &faults.SimInjection{Class: class, AtOp: op, Seed: seed}, nil
}
