// Package telemetry is the simulator's observability layer: a central
// metrics registry with snapshot/delta semantics and warmup/measure phase
// markers, a sampled per-op event tracer with Chrome trace-event (Perfetto)
// export, and the per-domain isolation audit that turns the paper's
// "no shared metadata nodes" security argument into a measured invariant.
//
// Everything here is pull-based and off the hot path: components register
// pointers to the stats.Counter values they already maintain, and the
// registry reads them only when a snapshot is taken. The tracer and audit
// are nil by default and must be explicitly attached, so a run without
// them executes the exact uninstrumented simulation path.
package telemetry

import (
	"fmt"
	"sync"

	"ivleague/internal/stats"
)

// Phase marker names used by the simulation kernel.
const (
	PhaseWarmup  = "warmup"
	PhaseMeasure = "measure"
)

// Registry is the central metrics registry for one simulated machine.
//
// The registry itself is safe for concurrent use: registration, Reset,
// phase changes and Snapshot serialize on an internal lock, so a live
// observability server can snapshot while components are still wiring
// up (the obs plane's /metrics endpoint). The registered *sources* keep
// their owners' concurrency contracts, though — a stats.Counter or a
// gauge closure over plain fields still belongs to exactly one
// simulation goroutine, and a registry over such sources must only be
// snapshotted from that goroutine (or via an obs.Publisher). Sources
// backed by atomics or their own locks (the sweep engine's metrics, the
// progress tracker) may be snapshotted from anywhere.
type Registry struct {
	mu    sync.RWMutex
	phase string

	counterOrder []string
	counters     map[string]*stats.Counter

	gaugeOrder []string
	gauges     map[string]func() float64

	samplers []func(*Sample)
	resets   []func()
}

// NewRegistry creates an empty registry in the warmup phase.
func NewRegistry() *Registry {
	return &Registry{
		phase:    PhaseWarmup,
		counters: make(map[string]*stats.Counter),
		gauges:   make(map[string]func() float64),
	}
}

// SetPhase records the run phase ("warmup"/"measure"); snapshots carry it.
func (r *Registry) SetPhase(phase string) {
	r.mu.Lock()
	r.phase = phase
	r.mu.Unlock()
}

// Phase returns the current phase marker.
func (r *Registry) Phase() string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.phase
}

// RegisterCounter adopts an existing counter under a unique name. The
// registry reads it at snapshot time and zeroes it on Reset. Registration
// is construction-time wiring, so collisions and nil counters panic.
func (r *Registry) RegisterCounter(name string, c *stats.Counter) {
	if c == nil {
		panic(fmt.Sprintf("telemetry: RegisterCounter(%q) with nil counter", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.counters[name]; dup {
		panic(fmt.Sprintf("telemetry: counter %q registered twice", name))
	}
	r.counterOrder = append(r.counterOrder, name)
	r.counters[name] = c
}

// RegisterGauge registers a derived metric evaluated at snapshot time.
// Gauges reflect current architectural state and are not cleared by Reset.
func (r *Registry) RegisterGauge(name string, fn func() float64) {
	if fn == nil {
		panic(fmt.Sprintf("telemetry: RegisterGauge(%q) with nil func", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.gauges[name]; dup {
		panic(fmt.Sprintf("telemetry: gauge %q registered twice", name))
	}
	r.gaugeOrder = append(r.gaugeOrder, name)
	r.gauges[name] = fn
}

// RegisterSampler registers a callback that contributes dynamically-named
// metrics (e.g. per-domain counters whose key set changes at run time) to
// every snapshot.
func (r *Registry) RegisterSampler(fn func(*Sample)) {
	if fn == nil {
		panic("telemetry: RegisterSampler with nil func")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.samplers = append(r.samplers, fn)
}

// RegisterReset registers state to clear on Reset that is not a registered
// counter: sampled statistics (per-domain histograms and counters whose key
// set changes at run time) and IPC baseline snapshots. Each component
// registers its own hook next to its sampler, so a new stat source cannot
// be forgotten at the warmup boundary.
func (r *Registry) RegisterReset(fn func()) {
	if fn == nil {
		panic("telemetry: RegisterReset with nil func")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.resets = append(r.resets, fn)
}

// Reset zeroes every registered counter and runs the registered reset
// hooks — the single end-of-warmup statistics boundary.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, name := range r.counterOrder {
		r.counters[name].Reset()
	}
	for _, fn := range r.resets {
		fn()
	}
}

// Sample is the view a sampler writes dynamic metrics through.
type Sample struct {
	snap *Snapshot
}

// Counter adds v to the named counter in the snapshot being built (adding
// allows several samplers to contribute to one aggregate).
func (s *Sample) Counter(name string, v uint64) { s.snap.Counters[name] += v }

// Gauge sets the named gauge in the snapshot being built.
func (s *Sample) Gauge(name string, v float64) { s.snap.Gauges[name] = v }

// Snapshot is a point-in-time copy of every registered metric.
type Snapshot struct {
	Phase    string
	Counters map[string]uint64
	Gauges   map[string]float64
}

// Snapshot reads all registered metrics.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	snap := Snapshot{
		Phase:    r.phase,
		Counters: make(map[string]uint64, len(r.counters)),
		Gauges:   make(map[string]float64, len(r.gauges)),
	}
	for _, name := range r.counterOrder {
		snap.Counters[name] = r.counters[name].Value()
	}
	for _, name := range r.gaugeOrder {
		snap.Gauges[name] = r.gauges[name]()
	}
	sm := &Sample{snap: &snap}
	for _, fn := range r.samplers {
		fn(sm)
	}
	return snap
}

// Counter returns a counter's value (0 when absent).
func (s Snapshot) Counter(name string) uint64 { return s.Counters[name] }

// Gauge returns a gauge's value (0 when absent).
func (s Snapshot) Gauge(name string) float64 { return s.Gauges[name] }

// HitRate is the shared hits/(hits+misses) helper for every cache-like
// component that registers "<prefix>.hits" and "<prefix>.misses"
// (NFLB, LMM, tree/counter caches, core caches). Zero traffic reads as 0.
func (s Snapshot) HitRate(prefix string) float64 {
	h := s.Counters[prefix+".hits"]
	m := s.Counters[prefix+".misses"]
	return stats.Ratio(h, h+m)
}

// Ratio returns Counters[num]/Counters[den] (0 when den is 0).
func (s Snapshot) Ratio(num, den string) float64 {
	return stats.Ratio(s.Counters[num], s.Counters[den])
}

// Delta returns this snapshot minus prev: counters subtract (saturating at
// zero, so a reset between the two snapshots cannot underflow); gauges and
// the phase are taken from the later snapshot.
func (s Snapshot) Delta(prev Snapshot) Snapshot {
	d := Snapshot{
		Phase:    s.Phase,
		Counters: make(map[string]uint64, len(s.Counters)),
		Gauges:   make(map[string]float64, len(s.Gauges)),
	}
	for _, name := range stats.SortedKeys(s.Counters) {
		v := s.Counters[name]
		if p := prev.Counters[name]; p < v {
			d.Counters[name] = v - p
		} else {
			d.Counters[name] = 0
		}
	}
	for _, name := range stats.SortedKeys(s.Gauges) {
		d.Gauges[name] = s.Gauges[name]
	}
	return d
}

// CounterNames returns the snapshot's counter names in sorted order (for
// deterministic dumps).
func (s Snapshot) CounterNames() []string { return stats.SortedKeys(s.Counters) }
