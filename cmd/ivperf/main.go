// Command ivperf maintains the repo's performance trajectory. It runs
// the curated benchmark scenarios in-process (median-of-N with warmup
// reps discarded) and emits one BENCH_<gitrev>.json trajectory point:
//
//	ivperf                  # all scenarios -> bench/BENCH_<rev>.json
//	ivperf -reps 9          # tighter medians
//
// and compares two trajectory points with a noise-aware regression
// gate, exiting non-zero when any scenario regressed:
//
//	ivperf -check bench/BENCH_old.json bench/BENCH_new.json
//	ivperf -check -tol 0.5 OLD NEW    # cross-machine comparison
//	ivperf -check bench NEW           # OLD = the directory's newest point
//
// Either argument may be a directory; its point with the largest
// created_unix is used.
//
// A scenario regresses only when its median ns/op slows beyond -tol
// AND the slowdown clears a median-absolute-deviation noise floor, so
// back-to-back runs of one binary pass while a real 2x slowdown fails.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"

	"ivleague/internal/obs"
)

func main() {
	check := flag.Bool("check", false, "compare two BENCH files (args: OLD NEW, each a file or a directory meaning its newest point) instead of measuring; exit 1 on regression")
	tol := flag.Float64("tol", 0.25, "with -check, tolerated relative slowdown before a scenario regresses (0.25 = 25%; use 0.5+ across machines)")
	madFactor := flag.Float64("mad-factor", 3, "with -check, noise floor as a multiple of the runs' median absolute deviations (0 = ratio test only)")
	reps := flag.Int("reps", 5, "timed repetitions per scenario (the median is reported)")
	warmup := flag.Int("warmup", 1, "discarded warmup repetitions per scenario")
	outDir := flag.String("o", "bench", "directory for the BENCH_<rev>.json output")
	rev := flag.String("rev", "", "git revision to stamp the output with (default: vcs.revision from build info)")
	list := flag.Bool("list", false, "list the scenarios and exit")
	flag.Parse()

	if *check {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "ivperf: -check wants exactly two arguments: OLD NEW")
			os.Exit(2)
		}
		os.Exit(runCheck(flag.Arg(0), flag.Arg(1), obs.CheckOptions{Tol: *tol, MADFactor: *madFactor}))
	}
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "ivperf: unexpected arguments (did you mean -check OLD NEW?)")
		os.Exit(2)
	}

	scenarios, err := obs.Scenarios()
	if err != nil {
		fmt.Fprintln(os.Stderr, "ivperf:", err)
		os.Exit(2)
	}
	if *list {
		for _, s := range scenarios {
			fmt.Printf("%-28s %s\n", s.Name, s.Fingerprint[:12])
		}
		return
	}

	bf := obs.NewBenchFile(gitRev(*rev), *warmup)
	for _, s := range scenarios {
		fmt.Fprintf(os.Stderr, "ivperf: %s (%d reps + %d warmup) ... ", s.Name, *reps, *warmup)
		m, err := obs.MeasureScenario(s, *reps, *warmup)
		if err != nil {
			fmt.Fprintln(os.Stderr, "\nivperf:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "%.1f ns/op (%.0f ops/s, %.2f allocs/op)\n",
			m.NsPerOp, m.OpsPerSec, m.AllocsPerOp)
		bf.Scenarios = append(bf.Scenarios, m)
	}

	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "ivperf:", err)
		os.Exit(1)
	}
	out := filepath.Join(*outDir, "BENCH_"+bf.GitRev+".json")
	if err := obs.WriteBenchFile(out, bf); err != nil {
		fmt.Fprintln(os.Stderr, "ivperf:", err)
		os.Exit(1)
	}
	fmt.Printf("ivperf: %d scenarios -> %s\n", len(bf.Scenarios), out)
}

func runCheck(oldArg, newArg string, opt obs.CheckOptions) int {
	oldF, oldPath, err := obs.LoadBenchPoint(oldArg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ivperf: OLD:", err)
		return 2
	}
	newF, newPath, err := obs.LoadBenchPoint(newArg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ivperf: NEW:", err)
		return 2
	}
	if oldF.GOARCH != newF.GOARCH || oldF.GOOS != newF.GOOS {
		fmt.Fprintf(os.Stderr, "ivperf: warning: comparing %s/%s against %s/%s\n",
			oldF.GOOS, oldF.GOARCH, newF.GOOS, newF.GOARCH)
	}
	deltas, err := obs.Check(oldF, newF, opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ivperf:", err)
		return 2
	}
	fmt.Printf("ivperf: %s (%s) vs %s (%s), tol %.0f%%:\n%s",
		oldF.GitRev, oldPath, newF.GitRev, newPath, opt.Tol*100, obs.FormatDeltas(deltas))
	if regs := obs.Regressions(deltas); len(regs) > 0 {
		fmt.Fprintf(os.Stderr, "ivperf: %d scenario(s) REGRESSED\n", len(regs))
		return 1
	}
	fmt.Println("ivperf: no regressions")
	return 0
}

// gitRev resolves the revision stamp: the -rev override, else the VCS
// revision Go embeds into binaries built from a git checkout, else
// "unknown" (go test, detached builds).
func gitRev(override string) string {
	if override != "" {
		return override
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && len(s.Value) >= 12 {
				return s.Value[:12]
			}
		}
	}
	return "unknown"
}
