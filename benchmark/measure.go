package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"ivleague/internal/config"
	"ivleague/internal/sim"
	"ivleague/internal/stats"
	"ivleague/internal/telemetry"
)

// stampInstr is the op hook's stamping period in simulated instructions
// (the global op count across threads). The ns_per_instr percentiles are
// taken over windows of consecutive stamp intervals within one cell: the
// largest power-of-two number of intervals that still gives the run
// minWindows windows, so at least ten windows lie beyond p99, and each
// window is as long as that allows, which keeps short host hiccups out of
// the tail.
const (
	stampInstr = 1 << 12
	minWindows = 1000
)

// setupBuilds is how many times each cell's machine is built, and
// minSetupBuilds how many builds a run makes at least: a workload of few
// cells builds each more often, because one build's time varies by half
// from the next. The cell contributes its median build time to setup_s and
// runs the last machine.
const (
	setupBuilds    = 9
	minSetupBuilds = 36
)

// metric is one named measurement with its unit.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// cellOutcome is one timed cell of the untraced pass.
type cellOutcome struct {
	spec cellSpec
	// err is the construction error or broken invariant; "" when the cell
	// passed. A failed cell counts in failed_frac and stays out of every
	// other metric.
	err      string
	res      sim.Result
	snap     telemetry.Snapshot
	digest   string
	instr    uint64  // simulated instructions, warmup included, all threads
	runSec   float64 // host seconds in Machine.Run
	setupSec float64 // median reference-host seconds in sim.NewMachine
	mallocs  uint64  // heap allocations during Run
	gcs      uint32  // GC cycles completed during Run
	liveHeap uint64  // live heap bytes right after Run, machine included
	// intervals holds the host ns between consecutive stamps, and
	// probeAt the host probe sample current when each one closed.
	intervals []int64
	probeAt   []int32
}

// untracedPass runs cells through the program's public API — sim.NewMachine
// and Machine.Run, with an op hook stamping host time every stampInstr
// instructions — and times nothing else but the host probe, whose time
// stays out of the stamp intervals.
type untracedPass struct {
	cells     []cellOutcome
	builds    int // machine builds per cell
	probe     *hostProbe
	samples   []float64 // host probe ns per read, in time order
	lastProbe time.Time
	last      time.Time // host time of the previous stamp
	cur       *cellOutcome
	wallSec   float64 // the timed part, less the live-heap GCs
}

// runUntraced runs the cells back to back in this goroutine (a closed loop
// with one client) and returns their outcomes.
func runUntraced(cells []cellSpec, probe *hostProbe) *untracedPass {
	p := &untracedPass{probe: probe, samples: []float64{probe.sample()}, lastProbe: time.Now()}
	p.builds = max(setupBuilds, (minSetupBuilds+len(cells)-1)/max(1, len(cells)))
	start := time.Now()
	heapGCs := 0.0
	for _, c := range cells {
		out, gcSec := p.runCell(c)
		p.cells = append(p.cells, out)
		heapGCs += gcSec
	}
	p.wallSec = time.Since(start).Seconds() - heapGCs
	return p
}

// stamp is the op hook: every stampInstr instructions it records the host
// time since the previous stamp, and every probeEvery it samples the host
// probe before the next interval starts. Op counts restart at 0 with every
// machine, so no interval spans two cells.
func (p *untracedPass) stamp(_ *sim.Machine, op uint64) error {
	if op%stampInstr != 0 {
		return nil
	}
	now := time.Now()
	if op > 0 {
		p.cur.intervals = append(p.cur.intervals, int64(now.Sub(p.last)))
		p.cur.probeAt = append(p.cur.probeAt, int32(len(p.samples)-1))
	}
	if now.Sub(p.lastProbe) >= probeEvery {
		p.samples = append(p.samples, p.probe.sample())
		now = time.Now()
		p.lastProbe = now
	}
	p.last = now
	return nil
}

// runCell builds and runs one cell. It returns the outcome and the host
// seconds of the GC that measured the live heap, which is the benchmark's
// own work.
func (p *untracedPass) runCell(c cellSpec) (cellOutcome, float64) {
	out := cellOutcome{spec: c}
	var m *sim.Machine
	setups := make([]float64, 0, p.builds)
	for k := 0; k < p.builds; k++ {
		runtime.GC()
		// Builds are short, so each is scaled by its own probe sample.
		scale := probeRefNs / p.probe.sample()
		t0 := time.Now()
		mk, err := sim.NewMachine(&c.cfg, c.scheme, c.mix, 0, sim.WithOpHook(p.stamp))
		setups = append(setups, time.Since(t0).Seconds()*scale)
		if err != nil {
			out.err = "setup: " + err.Error()
			out.digest = digestOf(out.err)
			return out, 0
		}
		m = mk
	}
	out.setupSec = median(setups)

	out.intervals = make([]int64, 0, 1<<14)
	out.probeAt = make([]int32, 0, 1<<14)
	p.cur = &out
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	out.res = m.Run()
	out.runSec = time.Since(t0).Seconds()
	runtime.ReadMemStats(&after)
	p.cur = nil
	out.mallocs = after.Mallocs - before.Mallocs
	out.gcs = after.NumGC - before.NumGC
	out.instr = m.OpCount()
	out.snap = m.Registry().Snapshot()
	out.digest = digestOf(out.res, out.snap)
	if err := checkInvariants(out.res, c.cfg); err != nil {
		out.err = err.Error()
	}

	// A full GC while the machine is still referenced leaves exactly the
	// live heap allocated. Peak RSS is not steady enough to compare: it
	// depends on where GC pacing falls during the heap's growth (452 or
	// 510 MB on l2-alloc).
	t1 := time.Now()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(m)
	out.liveHeap = after.HeapAlloc
	return out, time.Since(t1).Seconds()
}

// normalized returns every passing cell's stamp intervals in
// reference-host ns, each scaled by the median of the five probe samples
// around it (see probe.go), and their sum.
func (p *untracedPass) normalized() ([][]float64, float64) {
	smooth := make([]float64, len(p.samples))
	for j := range smooth {
		smooth[j] = median(p.samples[max(0, j-2):min(len(p.samples), j+3)])
	}
	var out [][]float64
	total := 0.0
	for _, c := range p.cells {
		if c.err != "" {
			continue
		}
		iv := make([]float64, len(c.intervals))
		for i, d := range c.intervals {
			iv[i] = float64(d) * probeRefNs / smooth[c.probeAt[i]]
			total += iv[i]
		}
		out = append(out, iv)
	}
	return out, total
}

// windows merges each cell's normalized stamp intervals into windows of
// the largest power-of-two count m of intervals that still leaves
// minWindows windows (or m = 1 for runs too short for that), and returns
// ns per simulated instruction for each window and the window length.
func windows(cells [][]float64) ([]float64, uint64) {
	count := func(m int) int {
		n := 0
		for _, iv := range cells {
			n += len(iv) / m
		}
		return n
	}
	m := 1
	for count(2*m) >= minWindows {
		m *= 2
	}
	var ws []float64
	for _, iv := range cells {
		for i := 0; i+m <= len(iv); i += m {
			ns := 0.0
			for _, d := range iv[i : i+m] {
				ns += d
			}
			ws = append(ws, ns/float64(m*stampInstr))
		}
	}
	return ws, uint64(m * stampInstr)
}

// checkInvariants reports the first broken per-cell invariant: the run
// did not fail or detect tampering, every thread's IPC is in
// (0, 1/BaseCPI], every rate is in [0, 1], no TreeLing slot leaked, and
// the secure memory was used.
func checkInvariants(res sim.Result, cfg config.Config) error {
	if res.Tampered {
		return fmt.Errorf("integrity violation: %s", res.FailMsg)
	}
	if res.Failed {
		return fmt.Errorf("run failed: %s", res.FailMsg)
	}
	if len(res.IPC) == 0 {
		return fmt.Errorf("no threads ran")
	}
	maxIPC := 1 / cfg.Core.BaseCPI
	for i, ipc := range res.IPC {
		if !(ipc > 0 && ipc <= maxIPC) {
			return fmt.Errorf("thread %d (%s): IPC %v outside (0, %v]", i, res.Bench[i], ipc, maxIPC)
		}
	}
	for _, r := range []struct {
		name string
		v    float64
	}{
		{"NFLB hit rate", res.NFLBHitRate},
		{"LMM hit rate", res.LMMHitRate},
		{"utilization", res.Utilization},
		{"tree-cache hit rate", res.TreeHitRate},
		{"counter-cache hit rate", res.CtrHitRate},
		{"L3 miss rate", res.L3MissRate},
	} {
		if !(r.v >= 0 && r.v <= 1) {
			return fmt.Errorf("%s %v outside [0, 1]", r.name, r.v)
		}
	}
	if res.Untracked != 0 {
		return fmt.Errorf("%d untracked TreeLing slots", res.Untracked)
	}
	if res.MemAccesses == 0 {
		return fmt.Errorf("no secure-memory accesses")
	}
	return nil
}

// digestOf hashes the values' %+v forms: fmt prints maps with sorted keys
// and floats in their shortest exact form, so equal results give equal
// digests and any simulated difference changes it.
func digestOf(vs ...any) string {
	h := sha256.New()
	for _, v := range vs {
		fmt.Fprintf(h, "%+v\n", v)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// workloadDigest combines the cells' digests in run order.
func workloadDigest(cells []cellOutcome) string {
	parts := make([]any, 0, 2*len(cells))
	for _, c := range cells {
		parts = append(parts, c.spec.name, c.digest)
	}
	return digestOf(parts...)
}

func (p *untracedPass) failed() int {
	n := 0
	for _, c := range p.cells {
		if c.err != "" {
			n++
		}
	}
	return n
}

// endToEnd returns the end-to-end metrics. Host times are in
// reference-host seconds: each stamp interval scaled by the probe around
// it, each machine build by a probe sample just before it, and the rest
// of wall_s by the run's median probe.
func (p *untracedPass) endToEnd() []metric {
	var stamped, rawStampedNs, setupSec float64
	var liveHeap uint64
	for _, c := range p.cells {
		if c.err != "" {
			continue
		}
		stamped += float64(len(c.intervals) * stampInstr)
		for _, d := range c.intervals {
			rawStampedNs += float64(d)
		}
		setupSec += c.setupSec
		liveHeap = max(liveHeap, c.liveHeap)
	}
	cells, stampedNs := p.normalized()
	scale := probeRefNs / median(p.samples)
	wallSec := (p.wallSec-rawStampedNs/1e9)*scale + stampedNs/1e9
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		ru.Maxrss = 0
	}
	ws, _ := windows(cells)
	return []metric{
		{"instr_per_s", 1e9 * ratio(stamped, stampedNs), "instr/s"},
		{"ns_per_instr_p50", stats.Percentile(ws, 50), "ns/instr"},
		{"ns_per_instr_p90", stats.Percentile(ws, 90), "ns/instr"},
		{"ns_per_instr_p99", stats.Percentile(ws, 99), "ns/instr"},
		{"setup_s", setupSec, "s"},
		{"wall_s", wallSec, "s"},
		{"live_heap_mb", float64(liveHeap) / (1 << 20), "MB"},
		{"max_rss_mb", float64(ru.Maxrss) / 1024, "MB"}, // Linux reports KiB
		{"failed_frac", ratio(float64(p.failed()), float64(len(p.cells))), "ratio"},
	}
}

// modelMetrics returns the untraced per-layer metrics: the simulated
// design's statistics, summed over the passing cells' measure-phase
// registry snapshots, and the host allocator's activity during Run.
func (p *untracedPass) modelMetrics() []metric {
	sum := map[string]uint64{}
	var measured, instr, mallocs uint64
	var gcs uint32
	var ipc []float64
	for _, c := range p.cells {
		if c.err != "" {
			continue
		}
		for name, v := range c.snap.Counters {
			sum[name] += v
		}
		for name, v := range c.snap.Gauges {
			if strings.HasPrefix(name, "sim.core") && strings.HasSuffix(name, ".instret") {
				measured += uint64(v)
			}
		}
		instr += c.instr
		mallocs += c.mallocs
		gcs += c.gcs
		ipc = append(ipc, c.res.IPC...)
	}
	coreSum := func(suffix string) float64 {
		var n uint64
		for name, v := range sum {
			if strings.HasPrefix(name, "sim.core") && strings.HasSuffix(name, suffix) {
				n += v
			}
		}
		return float64(n)
	}
	c := func(name string) float64 { return float64(sum[name]) }
	hitRate := func(prefix string) float64 {
		return ratio(c(prefix+".hits"), c(prefix+".hits")+c(prefix+".misses"))
	}
	l1h, l1m := coreSum(".l1.hits"), coreSum(".l1.misses")
	l2h, l2m := coreSum(".l2.hits"), coreSum(".l2.misses")
	return []metric{
		{"cache.l1_hit_rate", ratio(l1h, l1h+l1m), "ratio"},
		{"cache.l2_hit_rate", ratio(l2h, l2h+l2m), "ratio"},
		{"cache.l3_miss_rate", 1 - hitRate("sim.l3"), "ratio"},
		{"secmem.verifications_pki", 1000 * ratio(c("secmem.verifications"), float64(measured)), "per_kinstr"},
		{"tree.cache_hit_rate", hitRate("secmem.tree_cache"), "ratio"},
		{"ctr.cache_hit_rate", hitRate("secmem.ctr_cache"), "ratio"},
		{"core.lmm_hit_rate", hitRate("secmem.lmm"), "ratio"},
		{"core.nflb_hit_rate", hitRate("sim.nflb"), "ratio"},
		{"core.conversions", c("secmem.core.conversions"), "count"},
		{"core.migrations", c("secmem.core.migrations"), "count"},
		{"dram.accesses_per_l3_miss", ratio(c("secmem.dram.reads")+c("secmem.dram.writes"), c("sim.l3.misses")), "ratio"},
		{"dram.row_hit_rate", ratio(c("secmem.dram.row_hits"), c("secmem.dram.row_hits")+c("secmem.dram.row_misses")), "ratio"},
		{"dram.read_latency_cycles", ratio(c("secmem.dram.read_latency"), c("secmem.dram.reads")), "cycles"},
		{"sim.ipc_mean", mean(ipc), "instr/cycle"},
		{"sim.allocs_pki", 1000 * ratio(float64(mallocs), float64(instr)), "per_kinstr"},
		{"sim.gc_cycles", float64(gcs), "count"},
		{"host.probe_ns", median(p.samples), "ns"},
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func mean(vs []float64) float64 {
	s := 0.0
	for _, v := range vs {
		s += v
	}
	return ratio(s, float64(len(vs)))
}

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
