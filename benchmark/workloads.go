package main

import (
	"fmt"
	"math"

	"ivleague/internal/config"
	"ivleague/internal/figures"
	"ivleague/internal/rng"
	"ivleague/internal/workload"
)

// refSeconds is the run length the workload sizes below are calibrated
// for: at -seconds refSeconds each workload's timed part takes about that
// long on the reference host (see README.md). Other -seconds values scale
// the work linearly, so a run is always a fixed amount of simulated work
// and wall_s is a real end-to-end time rather than the budget read back.
const refSeconds = 20

// cellSpec is one (mix, scheme, config) simulation of a workload.
type cellSpec struct {
	name   string
	mix    workload.Mix
	scheme config.Scheme
	cfg    config.Config
}

// workloadSpec is one named benchmark workload. cells builds its cell list
// from the seed and the work size (1.0 = calibrated for refSeconds).
type workloadSpec struct {
	name  string
	cells func(seed uint64, size float64) ([]cellSpec, error)
}

// workloads are the benchmark's workloads, in BENCHMARK.json's order. The
// simulator has two kinds of hot path — TreeLing allocation when pages are
// mapped, and the per-access secure path — and which one runs depends on
// the workload, so no single workload can rank the layers. Each loads one
// set of layers and leaves the others idle (README.md gives the
// predictions).
//
// The steady-state workloads run several cells with independent seeds
// derived from the workload seed: a single cell's tail windows depend on
// where its seed happens to place churn bursts, and spreading a run over
// several seeds keeps its metrics close from one workload seed to the
// next. The per-cell measured instructions are calibrated so that the
// timed part of an untraced run takes about refSeconds.
var workloads = []workloadSpec{
	{
		// Small working set in steady state: the generator, cache model and
		// TLB do the work; the secure path is light, allocation about 0.
		name: "s1-steady",
		cells: func(seed uint64, size float64) ([]cellSpec, error) {
			return seededCells("S-1", config.SchemeIvLeagueBasic, seed, 4, 0.25, scaled(11_000_000, size))
		},
	},
	{
		// LLC-miss-heavy steady state: the secure access path (Do, verify
		// and update) competes with the cache model.
		name: "l1-access",
		cells: func(seed uint64, size float64) ([]cellSpec, error) {
			return seededCells("L-1", config.SchemeIvLeagueBasic, seed, 4, 0.25, scaled(1_600_000, size))
		},
	},
	{
		// Paper-sized footprint under IvLeague-Pro: TreeLing slot
		// allocation (NFL, LMM) dominates, and the host working set exceeds
		// the host caches.
		name: "l2-alloc",
		cells: func(seed uint64, size float64) ([]cellSpec, error) {
			// Below full size the footprint shrinks with the work, since the
			// init sweep of a paper-sized footprint alone is 5.9M ops.
			scale := math.Max(0.01, math.Min(1, size))
			return seededCells("L-2", config.SchemeIvLeaguePro, seed, 1, scale, scaled(800_000, size))
		},
	},
	{
		// ivbench's short mix cells at quick scale, Baseline included:
		// machine setup and the init-sweep allocation weigh most.
		name:  "quick-cells",
		cells: quickCells,
	},
}

// seededCells returns n cells of mix under scheme at the given footprint
// scale and measured instructions per core, everything else Table I, each
// with its own seed derived from the workload seed.
func seededCells(mixName string, scheme config.Scheme, seed uint64, n int, scale float64, measure uint64) ([]cellSpec, error) {
	mix, err := workload.MixByName(mixName)
	if err != nil {
		return nil, err
	}
	cells := make([]cellSpec, n)
	for k := range cells {
		cfg := config.Default()
		cfg.Sim.Seed = rng.ForkLabel(seed, fmt.Sprintf("cell%d", k))
		cfg.Sim.FootprintScale = scale
		cfg.Sim.MeasureInstr = measure
		cells[k] = cellSpec{name: fmt.Sprintf("%s/%s#%d", mixName, scheme, k), mix: mix, scheme: scheme, cfg: cfg}
	}
	return cells, nil
}

// quickMixes are the six Table II mixes of the quick-cells workload: two of
// each footprint class. M-5 stands in for ivbench's M-1: M-1's dedup is the
// one benchmark whose two threads share a process that unmaps pages, and the
// simulator invalidates only the unmapping thread's TLB, so for some seeds
// (33, for one) the sibling thread then reads a freed frame and the cell
// fails. M-5 shares two of M-1's four benchmarks and has no such process.
var quickMixes = []string{"S-2", "S-4", "M-5", "M-3", "L-1", "L-3"}

// quickCells returns the figures.Quick() mix cells of quickMixes under the
// four performance schemes, in ivbench's mix-major order, all with the
// workload seed. The size scales the cell count (24 at 1.0), cycling
// through the list, because each cell must keep ivbench's configuration.
func quickCells(seed uint64, size float64) ([]cellSpec, error) {
	cfg := figures.Quick().Cfg
	cfg.Sim.Seed = seed
	var list []cellSpec
	for _, name := range quickMixes {
		mix, err := workload.MixByName(name)
		if err != nil {
			return nil, err
		}
		for _, scheme := range figures.PerfSchemes() {
			list = append(list, cellSpec{name: fmt.Sprintf("%s/%s", name, scheme), mix: mix, scheme: scheme, cfg: cfg})
		}
	}
	n := max(1, int(math.Round(float64(len(list))*size)))
	cells := make([]cellSpec, n)
	for i := range cells {
		cells[i] = list[i%len(list)]
	}
	return cells, nil
}

// scaled returns n×size rounded, at least 1000 instructions.
func scaled(n uint64, size float64) uint64 {
	return max(1000, uint64(math.Round(float64(n)*size)))
}

// warmupCell is the short discarded cell each process runs first: the
// first cell in a process measures slower (page faults on a fresh heap,
// cold code), so it must not be timed. It keeps the first cell's mix and
// scheme at a bounded footprint and length.
func warmupCell(c cellSpec) cellSpec {
	c.cfg.Sim.FootprintScale = math.Min(c.cfg.Sim.FootprintScale, 0.25)
	c.cfg.Sim.MeasureInstr = min(c.cfg.Sim.MeasureInstr, 50_000)
	c.name += "/warmup"
	return c
}

func workloadByName(name string) (workloadSpec, error) {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names[i] = w.name
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q (known: %v, all)", name, names)
}
