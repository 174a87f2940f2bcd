// Command benchmark is the simulator's end-to-end benchmark. It runs one
// workload — a fixed list of simulation cells made from a seed — in one
// process, times the calls into the simulator's public API, checks every
// cell's result, and prints each metric by name with its unit, ending with
// one JSON line:
//
//	go run . -workload s1-steady -seed 42           # untraced: end-to-end metrics
//	go run . -workload l2-alloc -seed 42 -trace 1   # plus a traced pass: per-layer metrics
//	go run . -workload all -seed 42 -o set.json     # every workload, each in a fresh process
//	go run . -compare A.json B.json                 # check two sets against BENCHMARK.json bounds
//
// See README.md for the workloads, the metrics and the layer map.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// traceFlag is -trace: 0 or 1. It takes a value (it is not a boolean
// flag) so that "-trace 0" parses as the value 0.
type traceFlag bool

func (f *traceFlag) String() string {
	if f != nil && *f {
		return "1"
	}
	return "0"
}

func (f *traceFlag) Set(s string) error {
	switch s {
	case "0", "false":
		*f = false
	case "1", "true":
		*f = true
	default:
		return errors.New("want 0 or 1")
	}
	return nil
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run, or all to run each in a fresh child process")
	seed := fs.Uint64("seed", 42, "workload seed (it sets only the simulator's cfg.Sim.Seed)")
	seconds := fs.Float64("seconds", refSeconds, "run length: the work is sized to measure about this many seconds on the reference host")
	var trace traceFlag
	fs.Var(&trace, "trace", "1: after the untraced pass, replay its cells with spans and report per-layer metrics")
	out := fs.String("o", "", "append the run's results to this JSON results file")
	compare := fs.Bool("compare", false, "compare two results files (args: A.json B.json) against the bounds in BENCHMARK.json")
	bench := fs.String("bench", "", "BENCHMARK.json with the -compare bounds (default: ./BENCHMARK.json, else ../BENCHMARK.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare wants two results files: A.json B.json")
			return 2
		}
		return runCompare(fs.Arg(0), fs.Arg(1), *bench, stdout, stderr)
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "benchmark: unexpected arguments %q\n", fs.Args())
		return 2
	}
	if !(*seconds > 0) {
		fmt.Fprintln(stderr, "benchmark: -seconds must be positive")
		return 2
	}
	if *name == "all" {
		return runAll(args, stdout, stderr)
	}
	spec, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	cells, err := spec.cells(*seed, *seconds/refSeconds)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	rec := measureWorkload(spec.name, cells, bool(trace), false)
	rec.Seed, rec.Seconds = *seed, *seconds
	printRecord(stdout, rec)
	if *out != "" {
		if err := appendResult(*out, rec); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	line, err := resultLine(rec)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintln(stdout, line)
	if !rec.Correct {
		return 1
	}
	return 0
}

// runAll runs every workload in its own child process, one after another,
// with the same flags, and waits for each.
func runAll(args []string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	status := 0
	for _, w := range workloads {
		childArgs := append(withoutWorkloadFlag(args), "-workload", w.name)
		cmd := exec.Command(self, childArgs...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "benchmark: workload %s: %v\n", w.name, err)
			status = 1
		}
	}
	return status
}

// withoutWorkloadFlag drops -workload and its value from args.
func withoutWorkloadFlag(args []string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		a := strings.TrimLeft(args[i], "-")
		switch {
		case a == "workload" && len(args[i]) > len(a):
			i++
		case strings.HasPrefix(a, "workload=") && len(args[i]) > len(a):
		default:
			out = append(out, args[i])
		}
	}
	return out
}

// runRecord is one run of one workload, as printed and as stored in a
// results file.
type runRecord struct {
	Workload    string       `json:"workload"`
	Seed        uint64       `json:"seed"`
	Seconds     float64      `json:"seconds"`
	Trace       bool         `json:"trace"`
	Correct     bool         `json:"correct"`
	Attempted   int          `json:"attempted"`
	Failed      int          `json:"failed"`
	Windows     int          `json:"windows"`
	WindowInstr uint64       `json:"window_instr"`
	Digest      string       `json:"result_digest"`
	Cells       []cellRecord `json:"cells"`
	EndToEnd    []metric     `json:"end_to_end"`
	PerLayer    []metric     `json:"per_layer"`
}

type cellRecord struct {
	Name   string `json:"name"`
	Digest string `json:"result_digest"`
	Error  string `json:"error,omitempty"`
}

// measureWorkload runs one discarded warm-up cell, then the untraced pass
// over cells and, with trace, the traced pass over the same cells.
func measureWorkload(name string, cells []cellSpec, trace, perturb bool) runRecord {
	probe := newHostProbe()
	if len(cells) > 0 {
		runUntraced([]cellSpec{warmupCell(cells[0])}, probe)
	}
	u := runUntraced(cells, probe)
	normalized, _ := u.normalized()
	ws, wInstr := windows(normalized)
	rec := runRecord{
		Workload:    name,
		Trace:       trace,
		Attempted:   len(u.cells),
		Failed:      u.failed(),
		Windows:     len(ws),
		WindowInstr: wInstr,
		Digest:      workloadDigest(u.cells),
		EndToEnd:    u.endToEnd(),
		PerLayer:    u.modelMetrics(),
	}
	for _, c := range u.cells {
		rec.Cells = append(rec.Cells, cellRecord{Name: c.spec.name, Digest: c.digest, Error: c.err})
	}
	rec.Correct = rec.Failed == 0 && rec.Attempted > 0
	if trace {
		tp := runTraced(u, perturb)
		rec.PerLayer = append(rec.PerLayer, tp.countMetrics()...)
		if tp.fidelityErrors == 0 {
			rec.PerLayer = append(rec.PerLayer, tp.hostMetrics()...)
		} else {
			// Host times of a shadow that does not match the simulator
			// would attribute time to the wrong code.
			rec.Correct = false
		}
	}
	return rec
}

func printRecord(w io.Writer, rec runRecord) {
	fmt.Fprintf(w, "benchmark: workload %s, seed %d, %d cells, %d failed, %d windows of %d instructions\n",
		rec.Workload, rec.Seed, rec.Attempted, rec.Failed, rec.Windows, rec.WindowInstr)
	for _, c := range rec.Cells {
		status := "ok"
		if c.Error != "" {
			status = "FAILED: " + c.Error
		}
		fmt.Fprintf(w, "cell %-24s %s  %s\n", c.Name, c.Digest[:16], status)
	}
	for _, m := range rec.EndToEnd {
		fmt.Fprintf(w, "%-28s %18.6f %s\n", m.Name, m.Value, m.Unit)
	}
	for _, m := range rec.PerLayer {
		fmt.Fprintf(w, "%-28s %18.6f %s\n", m.Name, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "%-28s %s\n", "result_digest", rec.Digest)
}

// notInResultLine lists the metrics printed above but left out of the JSON
// line, and why: the line's metrics must never read 0, and its end-to-end
// ones must be steady from run to run.
var notInResultLine = map[string]string{
	"failed_frac":      "0 on every passing run; the line's failed/attempted carry it",
	"max_rss_mb":       "GC pacing makes it bimodal; live_heap_mb is the steady memory metric",
	"ns_per_instr_p99": "a shared host's slow spells fill a steady run's slowest 1%; p90 is the line's tail",
	"secmem.unmap_ns":  "no unmaps, so no time, on the churn-free l1-access and l2-alloc",
}

// resultLine renders the final JSON line: with -trace 0 the end-to-end
// metrics, with -trace 1 the per-layer ones.
func resultLine(rec runRecord) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := rec.EndToEnd
	if rec.Trace {
		ms = rec.PerLayer
	}
	metrics := map[string]value{}
	for _, m := range ms {
		if _, skip := notInResultLine[m.Name]; skip {
			continue
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return "", fmt.Errorf("metric %s is %v", m.Name, m.Value)
		}
		metrics[m.Name] = value{m.Value, m.Unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, metrics})
	return string(b), err
}
