package main

import (
	"math"
	"runtime"
	"runtime/debug"
	"time"

	"ivleague/internal/sim"
	"ivleague/internal/stats"
	"ivleague/internal/telemetry"
)

// stepMode picks the traced steps from the top bits of a multiplicative
// (Fibonacci) hash of the global op count: one step in eight is traced,
// half of those attributed to the layers and half probing the span cost
// (see tracer). Every call is counted either way. A plain op%8 would
// always pick the same thread, since threads step round robin and mixes
// run 4 or 8 of them.
func stepMode(op uint64) (traced, probing bool) {
	h := (op * 0x9e3779b97f4a7c15) >> 60
	return h <= 1, h == 1
}

// spanKind names one layer boundary of the step.
type spanKind uint8

const (
	spanStep       spanKind = iota // one shadow step; its self time is the step glue
	spanNext                       // workload.Generator.Next
	spanTLB                        // pagetable.TLB Lookup, Insert and Invalidate
	spanTouch                      // osmodel.Process.Touch
	spanUnmap                      // osmodel.Process.Unmap (churn frees)
	spanCache                      // cache.Cache.Access at L1, L2 and L3
	spanRead                       // secmem.Controller.Do, read
	spanWrite                      // secmem.Controller.Do, write-back
	spanPageMap                    // secmem.Controller.OnPageMap
	spanPageUnmap                  // secmem.Controller.OnPageUnmap
	spanPageWalk                   // secmem.Controller.OnPageWalk
	spanTLBEvicted                 // secmem.Controller.TLBEvicted
	spanProbe                      // an empty span measuring the span cost
	numSpanKinds
)

// spanLayer maps each layer-call span kind to its layer, the module it
// calls into.
var spanLayer = [numSpanKinds]string{
	spanStep:       "sim",
	spanNext:       "workload",
	spanTLB:        "pagetable",
	spanTouch:      "osmodel",
	spanUnmap:      "osmodel",
	spanCache:      "cache",
	spanRead:       "secmem",
	spanWrite:      "secmem",
	spanPageMap:    "secmem",
	spanPageUnmap:  "secmem",
	spanPageWalk:   "secmem",
	spanTLBEvicted: "secmem",
}

// span is one recorded layer call: its kind, the span that caused it (-1
// for a step) and its host-time interval in ns since the tracer started.
type span struct {
	kind       spanKind
	parent     int32
	start, end int64
}

// tracer records the spans of traced steps and folds each finished step
// into per-kind totals, so memory stays bounded by one step's spans
// however long the run.
//
// A kind's self time is its spans' durations minus the intervals their
// child spans cover, minus the cost of the span records themselves, which
// is measured in place: a probing step records an empty probe span before
// each of its layer calls. A probe's duration is costIn, what a span's own
// interval includes of the recording; a probing step's root span is
// longer than an attributed step's by one whole span cost per probe, and
// the part of it outside the probe's interval is costOut, what each child
// adds to its parent. The two kinds of step are drawn from the same
// hash, so they do the same work on average.
type tracer struct {
	base     time.Time
	traced   bool // the current step records spans
	probing  bool // ... and measures the span cost instead of attributing
	spans    []span
	open     int32 // innermost open span, -1 between steps
	childNs  []int64
	children []int32

	calls   [numSpanKinds]uint64  // every call, traced or not
	sampled [numSpanKinds]uint64  // spans in attributed steps
	rawNs   [numSpanKinds]float64 // their durations minus their children's
	kids    [numSpanKinds]uint64  // their child spans

	probes, probeNs float64
	roots, rootNs   [2]float64 // step spans: [0] attributed, [1] probing

	instr, faults, tlbHits, tlbMisses uint64
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), open: -1}
}

// step sets the mode of the step about to run.
func (t *tracer) step(op uint64) { t.traced, t.probing = stepMode(op) }

func (t *tracer) begin(k spanKind) {
	t.calls[k]++
	if !t.traced {
		return
	}
	if t.open < 0 {
		t.spans = t.spans[:0]
	} else if t.probing {
		t.push(spanProbe)
		t.pop()
	}
	t.push(k)
}

func (t *tracer) end() {
	if t.traced {
		t.pop()
	}
}

func (t *tracer) push(k spanKind) {
	t.spans = append(t.spans, span{kind: k, parent: t.open})
	t.open = int32(len(t.spans) - 1)
	t.spans[t.open].start = int64(time.Since(t.base))
}

func (t *tracer) pop() {
	s := &t.spans[t.open]
	s.end = int64(time.Since(t.base))
	t.open = s.parent
	if t.open < 0 {
		t.fold()
	}
}

// fold adds the finished step's spans to the totals. A child is always
// recorded after its parent, so one backward sweep collects every span's
// child time.
func (t *tracer) fold() {
	mode := 0
	if t.probing {
		mode = 1
	}
	t.roots[mode]++
	t.rootNs[mode] += float64(t.spans[0].end - t.spans[0].start)
	if t.probing {
		for _, s := range t.spans {
			if s.kind == spanProbe {
				t.probes++
				t.probeNs += float64(s.end - s.start)
			}
		}
		return
	}
	n := len(t.spans)
	if cap(t.childNs) < n {
		t.childNs = make([]int64, n)
		t.children = make([]int32, n)
	}
	t.childNs, t.children = t.childNs[:n], t.children[:n]
	clear(t.childNs)
	clear(t.children)
	for i := n - 1; i >= 0; i-- {
		if p := t.spans[i].parent; p >= 0 {
			t.childNs[p] += t.spans[i].end - t.spans[i].start
			t.children[p]++
		}
	}
	for i, s := range t.spans {
		t.sampled[s.kind]++
		t.rawNs[s.kind] += float64(s.end - s.start - t.childNs[i])
		t.kids[s.kind] += uint64(t.children[i])
	}
}

// spanCost returns costIn and costOut as measured by the probing steps.
func (t *tracer) spanCost() (in, out float64) {
	in = ratio(t.probeNs, t.probes)
	whole := ratio(ratio(t.rootNs[1], t.roots[1])-ratio(t.rootNs[0], t.roots[0]), ratio(t.probes, t.roots[1]))
	return math.Max(0, in), math.Max(0, whole-in)
}

// selfNs returns a kind's total self time in the attributed steps.
func (t *tracer) selfNs(k spanKind) float64 {
	in, out := t.spanCost()
	return t.rawNs[k] - float64(t.sampled[k])*in - float64(t.kids[k])*out
}

// tracedPass is the outcome of replaying the untraced pass's cells
// through the shadow.
type tracedPass struct {
	tr *tracer
	// fidelityErrors counts every value where the shadow disagrees with
	// sim.Machine: failure state, per-thread IPC bits, registry counters
	// and gauge bits, plus cells the shadow could not build.
	fidelityErrors int
	// overhead is the shadow's host time over sim.Machine.Run's on the
	// same cells, minus one.
	overhead float64
}

// runTraced replays every passing cell of u through the shadow
// with spans on. perturb seeds the shadow wrongly (tests).
func runTraced(u *untracedPass, perturb bool) tracedPass {
	p := tracedPass{tr: newTracer()}
	// Hand the untraced pass's heap back to the OS, so the traced pass, like
	// the untraced one, pays first-touch page faults for what it allocates.
	debug.FreeOSMemory()
	var shadowSec, untracedSec float64
	for _, c := range u.cells {
		if c.err != "" {
			continue
		}
		runtime.GC()
		s, err := newShadow(&c.spec.cfg, c.spec.scheme, c.spec.mix, p.tr, perturb)
		if err != nil {
			p.fidelityErrors++
			continue
		}
		t0 := time.Now()
		got := s.run()
		shadowSec += time.Since(t0).Seconds()
		untracedSec += c.runSec
		p.fidelityErrors += fidelityErrors(c.res, c.snap, got)
	}
	p.overhead = ratio(shadowSec, untracedSec) - 1
	return p
}

// fidelityErrors counts the values on which the shadow's run differs from
// sim.Machine's.
func fidelityErrors(want sim.Result, wantSnap telemetry.Snapshot, got shadowResult) int {
	n := 0
	if want.Failed != got.failed {
		n++
	}
	if len(want.IPC) != len(got.ipc) {
		n++
	} else {
		for i := range want.IPC {
			if math.Float64bits(want.IPC[i]) != math.Float64bits(got.ipc[i]) {
				n++
			}
		}
	}
	for _, name := range unionKeys(wantSnap.Counters, got.snap.Counters) {
		if wantSnap.Counters[name] != got.snap.Counters[name] {
			n++
		}
	}
	for _, name := range unionKeys(wantSnap.Gauges, got.snap.Gauges) {
		w, wok := wantSnap.Gauges[name]
		g, gok := got.snap.Gauges[name]
		if wok != gok || math.Float64bits(w) != math.Float64bits(g) {
			n++
		}
	}
	return n
}

func unionKeys[V any](a, b map[string]V) []string {
	keys := stats.SortedKeys(a)
	for _, k := range stats.SortedKeys(b) {
		if _, ok := a[k]; !ok {
			keys = append(keys, k)
		}
	}
	return keys
}

// countMetrics returns the traced pass's exact call counts. They cover
// every step, warmup included, as the host-time metrics do.
func (p tracedPass) countMetrics() []metric {
	t := p.tr
	pki := func(n uint64) float64 { return 1000 * ratio(float64(n), float64(t.instr)) }
	return []metric{
		{"pagetable.tlb_hit_rate", ratio(float64(t.tlbHits), float64(t.tlbHits+t.tlbMisses)), "ratio"},
		{"osmodel.faults_pki", pki(t.faults), "per_kinstr"},
		{"cache.accesses_pki", pki(t.calls[spanCache]), "per_kinstr"},
		{"secmem.reads_pki", pki(t.calls[spanRead]), "per_kinstr"},
		{"secmem.writes_pki", pki(t.calls[spanWrite]), "per_kinstr"},
		{"secmem.maps_pki", pki(t.calls[spanPageMap]), "per_kinstr"},
		{"trace.fidelity_errors", float64(p.fidelityErrors), "count"},
	}
}

// hostMetrics returns the traced pass's host-time metrics: self ns per
// call of each layer boundary and each layer's share of all self time.
// The shares of the six layers sum to one.
func (p tracedPass) hostMetrics() []metric {
	t := p.tr
	total := 0.0
	layerNs := map[string]float64{}
	for k := spanKind(0); k < spanProbe; k++ {
		total += t.selfNs(k)
		layerNs[spanLayer[k]] += t.selfNs(k)
	}
	share := func(ns float64) float64 { return ratio(ns, total) }
	perCall := func(k spanKind) float64 { return ratio(t.selfNs(k), float64(t.sampled[k])) }
	in, out := t.spanCost()
	return []metric{
		{"workload.next_ns", perCall(spanNext), "ns"},
		{"workload.self_share", share(layerNs["workload"]), "ratio"},
		{"pagetable.tlb_ns", perCall(spanTLB), "ns"},
		{"pagetable.self_share", share(layerNs["pagetable"]), "ratio"},
		{"osmodel.touch_ns", perCall(spanTouch), "ns"},
		{"osmodel.self_share", share(layerNs["osmodel"]), "ratio"},
		{"cache.access_ns", perCall(spanCache), "ns"},
		{"cache.self_share", share(layerNs["cache"]), "ratio"},
		{"secmem.read_ns", perCall(spanRead), "ns"},
		{"secmem.write_ns", perCall(spanWrite), "ns"},
		{"secmem.map_ns", perCall(spanPageMap), "ns"},
		{"secmem.unmap_ns", perCall(spanPageUnmap), "ns"},
		{"secmem.map_share", share(t.selfNs(spanPageMap) + t.selfNs(spanPageUnmap)), "ratio"},
		{"secmem.self_share", share(layerNs["secmem"]), "ratio"},
		{"sim.self_share", share(layerNs["sim"]), "ratio"},
		{"trace.overhead", p.overhead, "ratio"},
		{"trace.span_cost_ns", in + out, "ns"},
	}
}
