// Command ivcheck runs the bounded state-space model checker
// (internal/modelcheck) over the IvLeague schemes: it exhaustively
// enumerates domain-lifecycle interleavings on a downsized machine and
// asserts metadata isolation, TreeLing ownership and crash-recovery byte
// equality in every reachable state. On a violation it prints a minimized,
// replayable counterexample script; -replay re-runs such a script.
//
// Exit status: 0 when the bounded space is clean, 1 when a violation was
// found, 2 on usage or internal errors.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"ivleague/internal/atomicio"
	"ivleague/internal/config"
	"ivleague/internal/modelcheck"
)

func main() {
	var (
		scheme  = flag.String("scheme", "all", "scheme to check: basic, invert, pro or all")
		depth   = flag.Int("depth", 4, "maximum operations per trace")
		states  = flag.Int("states", 20000, "state budget before truncating")
		workers = flag.Int("workers", 0, "parallel transition workers (0 = all CPUs)")
		domains = flag.Int("domains", 2, "number of domains")
		vpns    = flag.Uint64("vpns", 3, "virtual pages per domain")
		frames  = flag.Uint64("frames", 4, "physical frames shared by all domains")
		burst   = flag.Int("burst", 10, "secure writes per write operation")
		fault   = flag.String("fault", "", "arm a fault: nfl-set or lmm (expects a violation)")
		replay  = flag.String("replay", "", "replay a counterexample script instead of exploring")
		out     = flag.String("o", "", "write the counterexample script to this file")
	)
	flag.Parse()

	if *replay != "" {
		os.Exit(replayScript(*replay))
	}

	schemes, err := resolveSchemes(*scheme)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ivcheck:", err)
		os.Exit(2)
	}
	status := 0
	for _, s := range schemes {
		opts := modelcheck.Options{
			Scheme:    s,
			Depth:     *depth,
			MaxStates: *states,
			Workers:   *workers,
			Domains:   *domains,
			VPNs:      *vpns,
			Frames:    *frames,
			Burst:     *burst,
			Fault:     *fault,
		}
		res, err := modelcheck.Explore(opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ivcheck:", err)
			os.Exit(2)
		}
		coverage := "complete"
		switch {
		case res.Violation != nil:
			coverage = "stopped at violation"
		case !res.Complete:
			coverage = fmt.Sprintf("TRUNCATED at %d states", res.States)
		}
		fmt.Printf("%-16s depth=%d states=%d transitions=%d rejected=%d deduped=%d %s\n",
			s, *depth, res.States, res.Transitions, res.Rejected, res.Deduped, coverage)
		if res.Violation == nil {
			continue
		}
		status = 1
		if code := reportViolation(opts, res.Violation, *out); code != 0 {
			os.Exit(code)
		}
	}
	os.Exit(status)
}

// reportViolation minimizes the counterexample and prints (or writes) it as
// a replayable script. Returns a non-zero exit code only on internal errors.
func reportViolation(opts modelcheck.Options, v *modelcheck.Violation, outFile string) int {
	fmt.Printf("VIOLATION: %s\n", v)
	min, err := modelcheck.Minimize(opts, v)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ivcheck: minimize:", err)
		return 2
	}
	if len(min) < len(v.Trace) {
		fmt.Printf("minimized %d -> %d ops\n", len(v.Trace), len(min))
	}
	script := modelcheck.FormatScript(opts, min)
	if outFile != "" {
		if err := atomicio.WriteFile(outFile, []byte(script), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "ivcheck:", err)
			return 2
		}
		fmt.Printf("counterexample written to %s (replay with: ivcheck -replay %s)\n", outFile, outFile)
		return 0
	}
	fmt.Print(script)
	return 0
}

func replayScript(path string) int {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ivcheck:", err)
		return 2
	}
	defer f.Close()
	opts, trace, err := modelcheck.ParseScript(f)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ivcheck:", err)
		return 2
	}
	v, err := modelcheck.Replay(opts, trace)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ivcheck:", err)
		return 2
	}
	if v == nil {
		fmt.Printf("%s: %d ops replayed, no violation\n", path, len(trace))
		return 0
	}
	fmt.Printf("%s: %s\n", path, v)
	return 1
}

func resolveSchemes(name string) ([]config.Scheme, error) {
	if strings.EqualFold(name, "all") {
		return modelcheck.Schemes(), nil
	}
	s, err := config.ParseScheme(name)
	if err == nil {
		err = modelcheck.CheckScheme(s)
	}
	if err != nil {
		return nil, err
	}
	return []config.Scheme{s}, nil
}
