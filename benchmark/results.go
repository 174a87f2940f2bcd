package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"

	"ivleague/internal/atomicio"
)

// hostInfo identifies the machine a results file was measured on.
type hostInfo struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
}

// resultsFile is what -o appends to: one set of runs on one host.
type resultsFile struct {
	Host hostInfo    `json:"host"`
	Runs []runRecord `json:"runs"`
}

func currentHost() hostInfo {
	h := hostInfo{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// appendResult adds rec to the results file at path, creating it with
// this host's description when absent.
func appendResult(path string, rec runRecord) error {
	var f resultsFile
	data, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(data, &f); err != nil {
			return fmt.Errorf("results file %s: %w", path, err)
		}
	case errors.Is(err, fs.ErrNotExist):
		f.Host = currentHost()
	default:
		return err
	}
	f.Runs = append(f.Runs, rec)
	out, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return atomicio.WriteFile(path, append(out, '\n'), 0o644)
}

func readResults(path string) (resultsFile, error) {
	var f resultsFile
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("results file %s: %w", path, err)
	}
	return f, nil
}

// boundSpec is one end_to_end entry of BENCHMARK.json.
type boundSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// readBounds loads the end-to-end bounds from BENCHMARK.json, found at
// path or, when path is empty, in the current or the parent directory.
func readBounds(path string) ([]boundSpec, error) {
	candidates := []string{path}
	if path == "" {
		candidates = []string{"BENCHMARK.json", "../BENCHMARK.json"}
	}
	var lastErr error
	for _, p := range candidates {
		data, err := os.ReadFile(p)
		if err != nil {
			lastErr = err
			continue
		}
		var spec struct {
			EndToEnd []boundSpec `json:"end_to_end"`
		}
		if err := json.Unmarshal(data, &spec); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		return spec.EndToEnd, nil
	}
	return nil, lastErr
}

// failedFracBound is failed_frac's absolute bound: no new failures.
var failedFracBound = boundSpec{Name: "failed_frac", Unit: "ratio", Better: "lower", Bound: 0}

type summary struct{ median, q1, q3 float64 }

func summarize(vs []float64) summary {
	q1, q3 := quartiles(vs)
	return summary{median(vs), q1, q3}
}

// spread is the quartile distance as a share of the median.
func (s summary) spread() float64 { return ratio(s.q3-s.q1, math.Abs(s.median)) }

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(vs, n=4) does (the "exclusive" method), so the
// spreads printed here match that tool's.
func quartiles(vs []float64) (q1, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0]
		}
		return math.NaN(), math.NaN()
	}
	const n = 4
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / n
		j = max(1, min(ld-1, j))
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q(1), q(3)
}

// compareMetric classifies B against A under the bound: regressed when
// B's median is worse than A's by more than the bound, unresolved when
// either side's quartile spread exceeds the bound and B does not beat A on
// every run, agree otherwise.
func compareMetric(a, b []float64, spec boundSpec) (summary, summary, float64, string) {
	sa, sb := summarize(a), summarize(b)
	sign := 1.0
	if spec.Better == "higher" {
		sign = -1
	}
	worse := sign * (sb.median - sa.median)
	change := ratio(worse, math.Abs(sa.median))
	allBetter := len(a) > 0 && len(b) > 0
	for _, x := range a {
		for _, y := range b {
			if sign*(y-x) >= 0 {
				allBetter = false
			}
		}
	}
	switch {
	case spec.Bound == 0:
		if worse > 0 {
			return sa, sb, change, "regressed"
		}
		return sa, sb, change, "agree"
	case allBetter:
		return sa, sb, change, "agree"
	case math.Max(sa.spread(), sb.spread()) > spec.Bound:
		return sa, sb, change, "unresolved"
	case change > spec.Bound:
		return sa, sb, change, "regressed"
	default:
		return sa, sb, change, "agree"
	}
}

// runCompare checks results file B against A: per workload and end-to-end
// metric, the untraced runs' medians and quartiles and a verdict, then the
// result digests of every (workload, seed) both files ran. It exits 1 on a
// regression or a digest mismatch.
func runCompare(aPath, bPath, benchPath string, stdout, stderr io.Writer) int {
	bounds, err := readBounds(benchPath)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark: reading bounds:", err)
		return 2
	}
	bounds = append(bounds, failedFracBound)
	a, err := readResults(aPath)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	b, err := readResults(bPath)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	fmt.Fprintf(stdout, "A: %s (%s, %d runs)\nB: %s (%s, %d runs)\n", aPath, a.Host.CPU, len(a.Runs), bPath, b.Host.CPU, len(b.Runs))
	fmt.Fprintf(stdout, "%-12s %-18s %14s %14s %8s %26s %26s %6s  %s\n",
		"workload", "metric", "median A", "median B", "change", "A [q1, q3]", "B [q1, q3]", "bound", "verdict")
	status := 0
	counts := map[string]int{}
	for _, w := range workloads {
		for _, spec := range bounds {
			va, vb := metricValues(a, w.name, spec.Name), metricValues(b, w.name, spec.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			sa, sb, change, verdict := compareMetric(va, vb, spec)
			counts[verdict]++
			if verdict == "regressed" {
				status = 1
			}
			fmt.Fprintf(stdout, "%-12s %-18s %14.6g %14.6g %+7.1f%% %26s %26s %5.0f%%  %s\n",
				w.name, spec.Name, sa.median, sb.median, 100*change,
				fmt.Sprintf("[%.6g, %.6g]", sa.q1, sa.q3), fmt.Sprintf("[%.6g, %.6g]", sb.q1, sb.q3),
				100*spec.Bound, verdict)
		}
	}
	same, differ := compareDigests(a, b, stdout)
	if differ > 0 {
		status = 1
	}
	fmt.Fprintf(stdout, "verdicts: %d agree, %d regressed, %d unresolved; result digests: %d identical, %d differ\n",
		counts["agree"], counts["regressed"], counts["unresolved"], same, differ)
	return status
}

// metricValues returns one end-to-end metric's values over the untraced
// runs of a workload.
func metricValues(f resultsFile, workload, name string) []float64 {
	var vs []float64
	for _, r := range f.Runs {
		if r.Workload != workload || r.Trace {
			continue
		}
		for _, m := range r.EndToEnd {
			if m.Name == name {
				vs = append(vs, m.Value)
			}
		}
	}
	return vs
}

// compareDigests checks the result digest of every (workload, seed,
// seconds) that both files ran, traced or not.
func compareDigests(a, b resultsFile, w io.Writer) (same, differ int) {
	key := func(r runRecord) string { return fmt.Sprintf("%s seed %d seconds %g", r.Workload, r.Seed, r.Seconds) }
	digests := map[string]string{}
	for _, r := range a.Runs {
		digests[key(r)] = r.Digest
	}
	for _, r := range b.Runs {
		d, ok := digests[key(r)]
		if !ok {
			continue
		}
		if d == r.Digest {
			same++
		} else {
			differ++
			fmt.Fprintf(w, "result_digest differs: %s: %.16s vs %.16s\n", key(r), d, r.Digest)
		}
	}
	return same, differ
}
