package sweep

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ivleague/internal/stats"
	"ivleague/internal/telemetry"
)

// cellLatMaxMs bounds the latency histogram at one bucket per
// millisecond up to a minute; slower cells land in the overflow bucket
// and quantiles report cellLatMaxMs+1.
const cellLatMaxMs = 60_000

// rateWindow is how many recent cell completions the rolling rate (and
// therefore the ETA) is computed over. A window, not the whole run, so
// the ETA tracks the current fan-out's cell cost instead of averaging a
// cheap fan-out against an expensive one.
const rateWindow = 32

// Metrics is a sweep's cell ledger: what the engine did with each cell,
// and how far the cells planned so far have come. The cache counters are
// atomic so concurrent workers bump them without locks. The cell record
// (planned, done and failed counts, the latency histogram and the rolling
// completion window) sits under one mutex, so a reader gets a consistent
// Progress report while workers record. Register publishes both into a
// telemetry.Registry, so sweep reports ride the same observability layer
// as the simulator's own counters.
type Metrics struct {
	Hits          atomic.Uint64 // cells answered from the cache
	Misses        atomic.Uint64 // cells that had to simulate
	Corrupt       atomic.Uint64 // cache entries rejected (truncated/garbage/version)
	WriteRetries  atomic.Uint64 // transient cache-write I/O retries
	WriteFailures atomic.Uint64 // cache writes abandoned after all retries
	Degraded      atomic.Uint64 // cells contained as degraded after persistent failure
	Canceled      atomic.Uint64 // cells abandoned by a sweep interrupt

	mu      sync.Mutex
	start   time.Time // the elapsed clock's zero: the engine's creation
	planned int       // cells announced by Plan
	done    int       // cache hits plus bodies run
	failed  int       // bodies that failed: degraded or fatal
	// latMs holds one wall-clock sample per body that ran; cache hits are
	// excluded, they would drown the simulation-cost signal in ~0ms
	// samples. Nil until the first body finishes.
	latMs    *stats.Histogram
	maxLatMs int
	recent   [rateWindow]time.Time
	recentN  int // completions recorded into recent (monotonic)
}

// Plan records that a fan-out of n more cells is starting. Totals are
// cumulative: a harness run is several sequential fan-outs, and the ETA
// is relative to the cells announced so far.
func (m *Metrics) Plan(n int) {
	m.mu.Lock()
	m.planned += n
	m.mu.Unlock()
}

// recordHit records a cell answered from the store.
func (m *Metrics) recordHit() {
	m.mu.Lock()
	m.completeLocked()
	m.mu.Unlock()
}

// recordRun records a cell body that ran for d, and whether it failed.
func (m *Metrics) recordRun(d time.Duration, failed bool) {
	ms := int(d.Milliseconds())
	m.mu.Lock()
	defer m.mu.Unlock()
	m.completeLocked()
	if failed {
		m.failed++
	}
	if m.latMs == nil {
		m.latMs = stats.NewHistogram(cellLatMaxMs)
	}
	m.latMs.Observe(ms)
	m.maxLatMs = max(m.maxLatMs, ms)
}

func (m *Metrics) completeLocked() {
	m.done++
	m.recent[m.recentN%rateWindow] = time.Now()
	m.recentN++
}

// LatencyQuantiles is the simulated-cell latency digest of a
// ProgressReport, in milliseconds.
type LatencyQuantiles struct {
	Count  uint64  `json:"count"`
	MeanMs float64 `json:"mean_ms"`
	P50Ms  int     `json:"p50_ms"`
	P90Ms  int     `json:"p90_ms"`
	P99Ms  int     `json:"p99_ms"`
	MaxMs  int     `json:"max_ms"`
}

// ProgressReport is the JSON document served at /progress.
type ProgressReport struct {
	// TotalCells is the number of cells announced by Plan so far; it
	// grows as the harness reaches later figures, so Done/Total is a
	// lower bound on overall progress, exact within a fan-out.
	TotalCells int `json:"total_cells"`
	// DoneCells counts cache hits and bodies run; FailedCells the bodies
	// that failed, degraded or fatal.
	DoneCells     int              `json:"done_cells"`
	FailedCells   int              `json:"failed_cells"`
	DegradedCells int64            `json:"degraded_cells"`
	ElapsedSec    float64          `json:"elapsed_sec"`
	CellsPerSec   float64          `json:"cells_per_sec"` // rolling, last rateWindow cells
	ETASec        float64          `json:"eta_sec"`       // -1 when unknown (no rate or no remaining total)
	Latency       LatencyQuantiles `json:"cell_latency"`  // simulated cells only
}

// Progress digests the ledger into a /progress report.
func (m *Metrics) Progress() ProgressReport {
	m.mu.Lock()
	defer m.mu.Unlock()
	r := ProgressReport{
		TotalCells:    m.planned,
		DoneCells:     m.done,
		FailedCells:   m.failed,
		DegradedCells: int64(m.Degraded.Load()),
		ElapsedSec:    time.Since(m.start).Seconds(),
		ETASec:        -1,
	}
	if h := m.latMs; h != nil {
		r.Latency = LatencyQuantiles{
			Count:  h.Count(),
			MeanMs: h.Mean(),
			P50Ms:  h.Quantile(0.50),
			P90Ms:  h.Quantile(0.90),
			P99Ms:  h.Quantile(0.99),
			MaxMs:  m.maxLatMs,
		}
	}
	// Rolling rate over the last min(recentN, rateWindow) completions.
	if n := min(m.recentN, rateWindow); n >= 2 {
		newest := m.recent[(m.recentN-1)%rateWindow]
		oldest := m.recent[(m.recentN-n)%rateWindow]
		if span := newest.Sub(oldest).Seconds(); span > 0 {
			r.CellsPerSec = float64(n-1) / span
		}
	}
	if r.CellsPerSec > 0 && m.planned >= m.done {
		r.ETASec = float64(m.planned-m.done) / r.CellsPerSec
	}
	return r
}

// Register publishes the ledger in r: every cache counter as a gauge
// under sweep.cache.* and sweep.cell.*, and the cell counts and latency
// digest through a sampler, so one snapshot reads them under one lock.
func (m *Metrics) Register(r *telemetry.Registry) {
	gauge := func(name string, v *atomic.Uint64) {
		r.RegisterGauge(name, func() float64 { return float64(v.Load()) })
	}
	gauge("sweep.cache.hits", &m.Hits)
	gauge("sweep.cache.misses", &m.Misses)
	gauge("sweep.cache.corrupt", &m.Corrupt)
	gauge("sweep.cache.write_retries", &m.WriteRetries)
	gauge("sweep.cache.write_failures", &m.WriteFailures)
	gauge("sweep.cell.degraded", &m.Degraded)
	gauge("sweep.cell.canceled", &m.Canceled)
	r.RegisterSampler(func(s *telemetry.Sample) {
		p := m.Progress()
		s.Gauge("sweep.cell.planned", float64(p.TotalCells))
		s.Gauge("sweep.cell.done", float64(p.DoneCells))
		s.Gauge("sweep.cell.failed", float64(p.FailedCells))
		s.Counter("sweep.cell.latency_ms.count", p.Latency.Count)
		s.Gauge("sweep.cell.latency_ms.mean", p.Latency.MeanMs)
		s.Gauge("sweep.cell.latency_ms.p50", float64(p.Latency.P50Ms))
		s.Gauge("sweep.cell.latency_ms.p99", float64(p.Latency.P99Ms))
	})
}

// Summary renders a one-line report of the sweep's cache behaviour,
// including the simulated-cell latency digest when any cell ran.
func (m *Metrics) Summary() string {
	s := fmt.Sprintf("sweep: %d cached, %d simulated, %d degraded, %d corrupt entries dropped, %d write retries",
		m.Hits.Load(), m.Misses.Load(), m.Degraded.Load(), m.Corrupt.Load(), m.WriteRetries.Load())
	if l := m.Progress().Latency; l.Count > 0 {
		s += fmt.Sprintf(", cell latency p50/p99/mean %dms/%dms/%.0fms", l.P50Ms, l.P99Ms, l.MeanMs)
	}
	return s
}
