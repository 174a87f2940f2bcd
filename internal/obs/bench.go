package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"ivleague/internal/atomicio"
	"ivleague/internal/stats"
	"ivleague/internal/telemetry"
)

// BenchSchema names the BENCH_*.json document format. Bump it whenever
// a field changes meaning, so -check refuses to compare incomparable
// trajectories instead of silently producing nonsense deltas.
const BenchSchema = "ivleague-bench/v1"

// Scenario is one curated in-process benchmark: a self-contained unit
// of simulator work mirroring a bench_test.go benchmark, sized so one
// run takes tens to hundreds of milliseconds.
type Scenario struct {
	// Name identifies the scenario across BENCH files; -check matches
	// measurements by it.
	Name string
	// Run executes one full iteration and returns the amount of work
	// done, in the scenario's ops (simulated instructions, trials). pt,
	// when non-nil, is attached as hot-path phase timers — the
	// instrumented pass that fills the phase breakdown.
	Run func(pt *telemetry.PhaseTimers) (work float64, err error)
	// Fingerprint is a content hash of the scenario's complete
	// configuration; -check warns when fingerprints differ (the numbers
	// then track config drift, not code speed).
	Fingerprint string
	// Steady marks a scenario whose Run exercises only the steady-state
	// access path on pre-built state: the regression gate additionally
	// fails it when allocs/op is non-zero, independent of timing.
	Steady bool
}

// Measurement is one scenario's digest in a BENCH file. NsPerOp is the
// median over reps of (run wall time / work), with warmup reps
// discarded — medians because simulator runs share the host with GC
// and the occasional scheduler hiccup, and a single outlier must not
// move the trajectory.
type Measurement struct {
	Name              string            `json:"name"`
	ConfigFingerprint string            `json:"config_fingerprint"`
	Reps              int               `json:"reps"`
	Work              float64           `json:"work_ops"`
	NsPerOp           float64           `json:"ns_per_op"`          // median across reps
	OpsPerSec         float64           `json:"ops_per_sec"`        // 1e9 / NsPerOp
	AllocsPerOp       float64           `json:"allocs_per_op"`      // median across reps
	BytesPerOp        float64           `json:"bytes_per_op"`       // median across reps
	SamplesNsPerOp    []float64         `json:"samples_ns_per_op"`  // per-rep, run order
	PhaseNs           map[string]uint64 `json:"phase_ns,omitempty"` // sampled, from one instrumented run
	Steady            bool              `json:"steady,omitempty"`   // zero-alloc steady-state contract applies
}

// BenchFile is one point of the repo's performance trajectory: the
// BENCH_<gitrev>.json document cmd/ivperf emits and CI archives.
type BenchFile struct {
	Schema      string        `json:"schema"`
	GitRev      string        `json:"git_rev"`
	GoVersion   string        `json:"go_version"`
	GOOS        string        `json:"goos"`
	GOARCH      string        `json:"goarch"`
	NumCPU      int           `json:"num_cpu"`
	GOMAXPROCS  int           `json:"gomaxprocs"`
	Hostname    string        `json:"hostname,omitempty"`
	CreatedUnix int64         `json:"created_unix"`
	Warmup      int           `json:"warmup_reps"`
	Scenarios   []Measurement `json:"scenarios"`
}

// NewBenchFile stamps an empty trajectory point with host info.
func NewBenchFile(gitRev string, warmup int) *BenchFile {
	host, _ := os.Hostname()
	return &BenchFile{
		Schema:      BenchSchema,
		GitRev:      gitRev,
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Hostname:    host,
		CreatedUnix: time.Now().Unix(),
		Warmup:      warmup,
	}
}

// Validate checks the document is a usable trajectory point.
func (f *BenchFile) Validate() error {
	if f.Schema != BenchSchema {
		return fmt.Errorf("obs: bench schema %q, want %q", f.Schema, BenchSchema)
	}
	if len(f.Scenarios) == 0 {
		return fmt.Errorf("obs: bench file has no scenarios")
	}
	for _, m := range f.Scenarios {
		if m.Name == "" {
			return fmt.Errorf("obs: bench scenario with empty name")
		}
		if m.NsPerOp <= 0 || math.IsNaN(m.NsPerOp) || math.IsInf(m.NsPerOp, 0) {
			return fmt.Errorf("obs: bench scenario %s: non-positive ns_per_op %v", m.Name, m.NsPerOp)
		}
	}
	return nil
}

// WriteBenchFile writes f as indented JSON via an atomic
// write-temp-then-rename, so a killed ivperf never leaves a torn
// trajectory point.
func WriteBenchFile(path string, f *BenchFile) error {
	if err := f.Validate(); err != nil {
		return err
	}
	w, err := atomicio.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(f); err != nil {
		w.Abort()
		return fmt.Errorf("obs: encode %s: %w", path, err)
	}
	return w.Commit()
}

// ReadBenchFile loads and validates a trajectory point.
func ReadBenchFile(path string) (*BenchFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f BenchFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("obs: parse %s: %w", path, err)
	}
	if err := f.Validate(); err != nil {
		return nil, fmt.Errorf("obs: %s: %w", path, err)
	}
	return &f, nil
}

// LoadBenchPoint reads the trajectory point at path. When path is a
// directory it returns the newest of the BENCH_*.json points there — the
// one with the largest created_unix, ties going to the later file name —
// so a gate pointed at the committed trajectory compares against its
// latest point, not whichever file name sorts first. The returned path
// names the file read.
func LoadBenchPoint(path string) (*BenchFile, string, error) {
	st, err := os.Stat(path)
	if err != nil {
		return nil, "", err
	}
	if !st.IsDir() {
		f, err := ReadBenchFile(path)
		return f, path, err
	}
	files, err := filepath.Glob(filepath.Join(path, "BENCH_*.json"))
	if err != nil {
		return nil, "", err
	}
	var newest *BenchFile
	var newestPath string
	for _, p := range files { // Glob sorts, so ties resolve deterministically
		f, err := ReadBenchFile(p)
		if err != nil {
			return nil, "", err
		}
		if newest == nil || f.CreatedUnix >= newest.CreatedUnix {
			newest, newestPath = f, p
		}
	}
	if newest == nil {
		return nil, "", fmt.Errorf("obs: no BENCH_*.json trajectory point in %s", path)
	}
	return newest, newestPath, nil
}

// MeasureScenario runs one scenario warmup+reps times and digests the
// timed reps. Warmup reps are discarded (first-run effects: page-cache
// fill, JIT-free but allocator-warm heaps); each timed rep's wall time
// and allocation deltas are recorded, medians summarize. One extra
// instrumented run (never timed) fills the phase breakdown.
func MeasureScenario(s Scenario, reps, warmup int) (Measurement, error) {
	if reps < 1 {
		reps = 1
	}
	for i := 0; i < warmup; i++ {
		if _, err := s.Run(nil); err != nil {
			return Measurement{}, fmt.Errorf("obs: %s warmup: %w", s.Name, err)
		}
	}
	m := Measurement{Name: s.Name, ConfigFingerprint: s.Fingerprint, Reps: reps, Steady: s.Steady}
	var nsPerOp, allocs, bytes []float64
	var ms0, ms1 runtime.MemStats
	for i := 0; i < reps; i++ {
		runtime.GC() // start each rep from a collected heap: less GC-phase noise
		runtime.ReadMemStats(&ms0)
		start := time.Now()
		work, err := s.Run(nil)
		elapsed := time.Since(start)
		runtime.ReadMemStats(&ms1)
		if err != nil {
			return Measurement{}, fmt.Errorf("obs: %s rep %d: %w", s.Name, i, err)
		}
		if work <= 0 {
			return Measurement{}, fmt.Errorf("obs: %s rep %d reported non-positive work %v", s.Name, i, work)
		}
		m.Work = work
		nsPerOp = append(nsPerOp, float64(elapsed.Nanoseconds())/work)
		allocs = append(allocs, float64(ms1.Mallocs-ms0.Mallocs)/work)
		bytes = append(bytes, float64(ms1.TotalAlloc-ms0.TotalAlloc)/work)
	}
	m.SamplesNsPerOp = nsPerOp
	m.NsPerOp = stats.Percentile(nsPerOp, 50)
	if m.NsPerOp > 0 {
		m.OpsPerSec = 1e9 / m.NsPerOp
	}
	m.AllocsPerOp = stats.Percentile(allocs, 50)
	m.BytesPerOp = stats.Percentile(bytes, 50)
	// Instrumented pass: phase timers sample host time per hot-path
	// phase. Run separately so timer overhead never pollutes the timed
	// reps.
	pt := telemetry.NewPhaseTimers(64)
	if _, err := s.Run(pt); err != nil {
		return Measurement{}, fmt.Errorf("obs: %s instrumented run: %w", s.Name, err)
	}
	if bd := pt.Breakdown(); len(bd) > 0 && bd["step"] > 0 {
		m.PhaseNs = bd
	}
	return m, nil
}

// mad returns the median absolute deviation of vs — the robust spread
// estimate the regression gate uses as its noise floor.
func mad(vs []float64) float64 {
	if len(vs) < 2 {
		return 0
	}
	med := stats.Percentile(vs, 50)
	devs := make([]float64, len(vs))
	for i, v := range vs {
		devs[i] = math.Abs(v - med)
	}
	return stats.Percentile(devs, 50)
}
