// Package figures regenerates every table and figure of the paper's
// evaluation (Section X) from the simulator, the analytical models and the
// attack module. It is the engine behind cmd/ivbench and the root-level
// benchmark harness; see DESIGN.md for the experiment index.
package figures

import (
	"context"
	"fmt"
	"io"

	"ivleague/internal/analysis"
	"ivleague/internal/attack"
	"ivleague/internal/config"
	"ivleague/internal/faults"
	"ivleague/internal/hwcost"
	"ivleague/internal/rng"
	"ivleague/internal/sim"
	"ivleague/internal/stats"
	"ivleague/internal/sweep"
	"ivleague/internal/workload"
)

// Options selects the run scale and scope of the evaluation.
type Options struct {
	Cfg     config.Config
	Schemes []config.Scheme
	Mixes   []workload.Mix
	// Trials for the Figure 22 Monte-Carlo.
	Trials int
	// Progress, when non-nil, receives one line per completed run. The
	// engine wraps it to be concurrency-safe; line order across runs is
	// scheduling-dependent, but figure tables are not.
	Progress io.Writer
	// Parallelism bounds the number of concurrent simulation runs; values
	// <= 0 mean runtime.GOMAXPROCS(0). Every run is fully isolated (its
	// own Config copy and generators), so results are byte-identical for
	// every parallelism level.
	Parallelism int
	// Inject, when non-nil, arms live fault injection on every mix run
	// (the alone runs stay clean — they are the weighted-IPC
	// denominators). A run that detects the fault is a measured outcome,
	// rendered as "deg" in the affected tables, never an error. Nil keeps
	// the exact uninstrumented simulation path.
	Inject *faults.SimInjection
	// TraceDir, when non-empty, writes one Chrome trace-event JSON file
	// per (mix, scheme) mix run into that directory (which must exist),
	// named trace_<tag>_<mix>_<scheme>.json. Empty keeps the exact
	// uninstrumented simulation path; tables are unaffected either way.
	TraceDir string
	// TraceSample records every Nth traced event (<= 0: every event).
	TraceSample int
	// Sweep is the engine every cell runs through. Its timeout, panic
	// recovery and failure budget contain each cell; a failing cell
	// within the budget renders as a "deg" table entry. An engine with a
	// cache directory also answers cells from its content-addressed
	// store and persists them the moment they complete. Cells with armed
	// injection or trace export, and the Fig. 3 attack runs, skip the
	// store. Nil attaches a dirless engine with no failure budget, so the
	// first failing cell is an error. Cached and uncached sweeps emit
	// byte-identical tables.
	Sweep *sweep.Engine
}

// PerfSchemes are the four schemes of Figures 15/16/18/19.
func PerfSchemes() []config.Scheme {
	return []config.Scheme{
		config.SchemeBaseline,
		config.SchemeIvLeagueBasic,
		config.SchemeIvLeagueInvert,
		config.SchemeIvLeaguePro,
	}
}

// Quick returns options sized for a laptop-scale regeneration pass
// (minutes); Full multiplies the run lengths for tighter statistics.
func Quick() Options {
	cfg := config.Default()
	cfg.Sim.WarmupInstr = 30_000
	cfg.Sim.MeasureInstr = 120_000
	return Options{Cfg: cfg, Schemes: PerfSchemes(), Mixes: workload.Mixes(), Trials: 300}
}

// Full returns the long-run options.
func Full() Options {
	cfg := config.Default()
	cfg.Sim.WarmupInstr = 80_000
	cfg.Sim.MeasureInstr = 400_000
	return Options{Cfg: cfg, Schemes: PerfSchemes(), Mixes: workload.Mixes(), Trials: 1000}
}

func (o *Options) progress(format string, args ...any) {
	if o.Progress != nil {
		fmt.Fprintf(o.Progress, format+"\n", args...)
	}
}

// RunSet holds the per-(mix, scheme) simulation results plus the per-
// benchmark alone-run IPCs used as the weighted-IPC denominator.
type RunSet struct {
	Options *Options
	Results map[string]map[config.Scheme]sim.Result // mix → scheme → result
	Alone   map[string]float64                      // benchmark → alone IPC
}

// Run executes every (mix, scheme) simulation once — the alone runs and
// the mix runs each fan out across Options.Parallelism workers — and
// figures 15–19 are derived from this set without re-simulation.
func Run(o Options) (*RunSet, error) {
	if err := o.begin(); err != nil {
		return nil, err
	}
	rs := &RunSet{
		Options: &o,
		Results: make(map[string]map[config.Scheme]sim.Result),
	}
	var err error
	if rs.Alone, err = aloneIPCs(&o); err != nil {
		return nil, err
	}
	jobs := mixSchemeJobs(o.Mixes, o.Schemes)
	out, err := runMixSchemes(&o, jobs, func(mixSchemeJob) config.Config { return o.Cfg }, "mix")
	if err != nil {
		return nil, err
	}
	for i, j := range jobs {
		if rs.Results[j.mix.Name] == nil {
			rs.Results[j.mix.Name] = make(map[config.Scheme]sim.Result)
		}
		rs.Results[j.mix.Name][j.scheme] = out[i]
	}
	return rs, nil
}

// weightedIPC computes Σ IPC_i/IPC_alone_i for one run. A failed run
// contributes 0; a benchmark with no recorded alone IPC is an error (the
// run set was built without its denominator).
func (rs *RunSet) weightedIPC(res sim.Result) (float64, error) {
	if res.Failed {
		return 0, nil
	}
	sum := 0.0
	for i, bench := range res.Bench {
		alone := rs.Alone[bench]
		if alone <= 0 {
			return 0, fmt.Errorf("figures: missing alone IPC for %s", bench)
		}
		sum += res.IPC[i] / alone
	}
	return sum, nil
}

// Fig15 renders the weighted-IPC comparison normalized to Baseline,
// including per-class geometric means.
func (rs *RunSet) Fig15() (*stats.Table, error) {
	t := &stats.Table{Header: []string{"mix"}}
	for _, s := range rs.Options.Schemes {
		t.Header = append(t.Header, s.String())
	}
	perClass := map[workload.Class]map[config.Scheme][]float64{}
	addGmean := func(class workload.Class, label string) {
		cells := []string{label}
		for _, s := range rs.Options.Schemes {
			cells = append(cells, fmt.Sprintf("%.3f", stats.Gmean(perClass[class][s])))
		}
		t.AddRow(cells...)
	}
	lastClass := workload.Small
	for i, mix := range rs.Options.Mixes {
		if i > 0 && mix.Class != lastClass {
			addGmean(lastClass, "gmean"+lastClass.String())
		}
		lastClass = mix.Class
		base, err := rs.weightedIPC(rs.Results[mix.Name][config.SchemeBaseline])
		if err != nil {
			return nil, fmt.Errorf("fig15 %s: %w", mix.Name, err)
		}
		cells := []string{mix.Name}
		for _, s := range rs.Options.Schemes {
			res := rs.Results[mix.Name][s]
			w, err := rs.weightedIPC(res)
			if err != nil {
				return nil, fmt.Errorf("fig15 %s: %w", mix.Name, err)
			}
			norm := 0.0
			if base > 0 {
				norm = w / base
			}
			if res.Tampered || res.Degraded {
				// The scheme detected an injected fault and halted, or the
				// sweep engine contained a persistently failing cell: a
				// degraded, not failed, measurement.
				cells = append(cells, "deg")
			} else {
				cells = append(cells, fmt.Sprintf("%.3f", norm))
			}
			if perClass[mix.Class] == nil {
				perClass[mix.Class] = map[config.Scheme][]float64{}
			}
			if norm > 0 {
				perClass[mix.Class][s] = append(perClass[mix.Class][s], norm)
			}
		}
		t.AddRow(cells...)
	}
	addGmean(lastClass, "gmean"+lastClass.String())
	return t, nil
}

// Fig16 renders the average verification path length per benchmark.
func (rs *RunSet) Fig16() *stats.Table {
	t := &stats.Table{Header: []string{"benchmark"}}
	for _, s := range rs.Options.Schemes {
		t.Header = append(t.Header, s.String())
	}
	// Average across all mixes containing the benchmark, per scheme.
	acc := map[string]map[config.Scheme]*stats.Mean{}
	order := []string{}
	for _, mix := range rs.Options.Mixes {
		for _, p := range mix.Procs {
			if acc[p.Name] == nil {
				acc[p.Name] = map[config.Scheme]*stats.Mean{}
				order = append(order, p.Name)
			}
			for _, s := range rs.Options.Schemes {
				res := rs.Results[mix.Name][s]
				if res.Failed {
					continue
				}
				if v, ok := res.PathLenMean[p.Name]; ok {
					if acc[p.Name][s] == nil {
						acc[p.Name][s] = &stats.Mean{}
					}
					acc[p.Name][s].Observe(v)
				}
			}
		}
	}
	for _, name := range order {
		cells := []string{name}
		for _, s := range rs.Options.Schemes {
			if m := acc[name][s]; m != nil {
				cells = append(cells, fmt.Sprintf("%.3f", m.Value()))
			} else {
				cells = append(cells, "-")
			}
		}
		t.AddRow(cells...)
	}
	return t
}

// Fig17a runs the NFL-vs-bit-vector ablation: the Pro scheme with its NFL
// against the BV-v1/BV-v2 allocators, reported as class-average weighted
// IPC normalized to Baseline ("x" marks failed runs, as in the paper).
// TreeLings are provisioned proportionally to the (scaled) footprints so
// that leaked slots translate into starvation as they do at full scale;
// BV-v1 runs that leak without yet starving are marked "→starves".
func Fig17a(o Options) (*stats.Table, error) {
	if err := o.begin(); err != nil {
		return nil, err
	}
	schemes := []config.Scheme{
		config.SchemeBaseline, config.SchemeIvLeaguePro,
		config.SchemeBVv1, config.SchemeBVv2,
	}
	t := &stats.Table{Header: []string{"class", "NFL(Pro)", "BV-v1", "BV-v2"}}
	perClass := map[workload.Class]map[config.Scheme][]float64{}
	fails := map[workload.Class]map[config.Scheme]bool{}
	leaks := map[workload.Class]map[config.Scheme]int{}
	rs := &RunSet{Options: &o}
	var err error
	if rs.Alone, err = aloneIPCs(&o); err != nil {
		return nil, err
	}
	jobs := mixSchemeJobs(o.Mixes, schemes)
	out, err := runMixSchemes(&o, jobs, func(j mixSchemeJob) config.Config {
		cfg := o.Cfg
		// Tight provisioning: the scaled footprint plus one spare
		// TreeLing per domain.
		pages := uint64(float64(uint64(j.mix.FootprintMB())<<20>>config.PageShift) * cfg.Sim.FootprintScale)
		need := int(pages/cfg.TreeLingPages()) + len(j.mix.Procs) + 4
		if uint64(need)*cfg.TreeLingBytes() < cfg.DRAM.SizeBytes {
			cfg.DRAM.SizeBytes = uint64(need) * cfg.TreeLingBytes()
		}
		cfg.IvLeague.TreeLingCount = need
		return cfg
	}, "fig17a")
	if err != nil {
		return nil, err
	}
	for i, j := range jobs {
		mix, s, res := j.mix, j.scheme, out[i]
		w, err := rs.weightedIPC(res)
		if err != nil {
			return nil, fmt.Errorf("fig17a %s: %w", mix.Name, err)
		}
		if s == config.SchemeBaseline {
			continue
		}
		base, err := rs.weightedIPC(out[i-i%len(schemes)]) // baseline of the same mix
		if err != nil {
			return nil, fmt.Errorf("fig17a %s: %w", mix.Name, err)
		}
		if perClass[mix.Class] == nil {
			perClass[mix.Class] = map[config.Scheme][]float64{}
			fails[mix.Class] = map[config.Scheme]bool{}
			leaks[mix.Class] = map[config.Scheme]int{}
		}
		leaks[mix.Class][s] += res.Untracked
		if res.Failed || base == 0 {
			fails[mix.Class][s] = true
			continue
		}
		perClass[mix.Class][s] = append(perClass[mix.Class][s], w/base)
	}
	for _, class := range []workload.Class{workload.Small, workload.Medium, workload.Large} {
		if perClass[class] == nil && fails[class] == nil {
			continue
		}
		cells := []string{"avg" + class.String()}
		for _, s := range schemes[1:] {
			if fails[class][s] && len(perClass[class][s]) == 0 {
				cells = append(cells, "x")
				continue
			}
			v := stats.Gmean(perClass[class][s])
			label := fmt.Sprintf("%.3f", v)
			if fails[class][s] {
				label += "(partial)"
			} else if s == config.SchemeBVv1 && leaks[class][s] > 0 {
				label += fmt.Sprintf("(leaks %d→starves)", leaks[class][s])
			}
			cells = append(cells, label)
		}
		t.AddRow(cells...)
	}
	return t, nil
}

// Fig17b renders TreeLing utilization and untracked slots per class.
func (rs *RunSet) Fig17b() *stats.Table {
	t := &stats.Table{Header: []string{"class", "utilization", "untracked-slots"}}
	for _, class := range []workload.Class{workload.Small, workload.Medium, workload.Large} {
		var um stats.Mean
		un := 0
		for _, mix := range rs.Options.Mixes {
			if mix.Class != class {
				continue
			}
			res := rs.Results[mix.Name][config.SchemeIvLeaguePro]
			if res.Failed {
				continue
			}
			um.Observe(res.Utilization)
			un += res.Untracked
		}
		t.AddRow("avg"+class.String(), fmt.Sprintf("%.5f%%", um.Value()*100), fmt.Sprintf("%d", un))
	}
	return t
}

// Fig18 renders NFLB hit rates per mix per IvLeague scheme.
func (rs *RunSet) Fig18() *stats.Table {
	t := &stats.Table{Header: []string{"mix"}}
	ivs := []config.Scheme{}
	for _, s := range rs.Options.Schemes {
		if s.IsIvLeague() {
			ivs = append(ivs, s)
			t.Header = append(t.Header, s.String())
		}
	}
	for _, mix := range rs.Options.Mixes {
		cells := []string{mix.Name}
		for _, s := range ivs {
			res := rs.Results[mix.Name][s]
			if res.Tampered || res.Degraded {
				cells = append(cells, "deg")
				continue
			}
			cells = append(cells, fmt.Sprintf("%.1f%%", res.NFLBHitRate*100))
		}
		t.AddRow(cells...)
	}
	return t
}

// Fig19 renders total memory accesses normalized to Baseline.
func (rs *RunSet) Fig19() *stats.Table {
	t := &stats.Table{Header: []string{"mix"}}
	ivs := []config.Scheme{}
	for _, s := range rs.Options.Schemes {
		if s.IsIvLeague() {
			ivs = append(ivs, s)
			t.Header = append(t.Header, s.String())
		}
	}
	for _, mix := range rs.Options.Mixes {
		base := rs.Results[mix.Name][config.SchemeBaseline].MemAccesses
		cells := []string{mix.Name}
		for _, s := range ivs {
			r := rs.Results[mix.Name][s]
			if r.Tampered || r.Degraded {
				cells = append(cells, "deg")
				continue
			}
			if base == 0 || r.Failed {
				cells = append(cells, "x")
				continue
			}
			cells = append(cells, fmt.Sprintf("%.1f%%", float64(r.MemAccesses)/float64(base)*100))
		}
		t.AddRow(cells...)
	}
	return t
}

// Fig20a sweeps the TreeLing size (height 3/4/5 ↔ 2/16/128 MiB in this
// model's geometry; the paper's 8/64/512 MB have the same ×8 ratios) and
// reports gmean IPC normalized to IvLeague-Basic at the default height.
func Fig20a(o Options) (*stats.Table, error) {
	heights := []int{3, 4, 5}
	deriveCfg := func(h int, cfg config.Config) config.Config {
		cfg.IvLeague.TreeLingHeight = h
		// Keep the forest covering memory as the TreeLing shrinks/grows.
		need := int(cfg.DRAM.SizeBytes/cfg.TreeLingBytes()) * 2
		if need < 1024 {
			need = 1024
		}
		cfg.IvLeague.TreeLingCount = need
		return cfg
	}
	label := func(h int) string {
		mb := (uint64(1) << uint(3*h)) * config.PageBytes >> 20
		return fmt.Sprintf("%dMB(h=%d)", mb, h)
	}
	return sensitivity(&o, "fig20a", "treeling", heights, deriveCfg, label, 4)
}

// Fig20b sweeps the integrity-tree metadata cache size.
func Fig20b(o Options) (*stats.Table, error) {
	sizes := []int{64 << 10, 128 << 10, 256 << 10, 512 << 10, 1 << 20}
	deriveCfg := func(size int, cfg config.Config) config.Config {
		cfg.SecureMem.TreeCache.SizeBytes = size
		return cfg
	}
	label := func(size int) string { return fmt.Sprintf("%dKB", size>>10) }
	return sensitivity(&o, "fig20b", "tree-cache", sizes, deriveCfg, label, 256<<10)
}

// sensitivity runs the Figure 20 pattern: for every point of a
// one-dimensional parameter sweep, simulate the representative mixes under
// the three IvLeague schemes (every run fanned out in parallel) and report
// per-point gmean IPC normalized to IvLeague-Basic at refPoint.
func sensitivity(o *Options, tag, axis string, points []int, deriveCfg func(int, config.Config) config.Config, label func(int) string, refPoint int) (*stats.Table, error) {
	if err := o.begin(); err != nil {
		return nil, err
	}
	schemes := []config.Scheme{config.SchemeIvLeagueBasic, config.SchemeIvLeagueInvert, config.SchemeIvLeaguePro}
	t := &stats.Table{Header: []string{axis, "Basic", "Invert", "Pro"}}
	mixes := representativeMixes(o.Mixes)
	// One job per (point, scheme, mix), point-major so the aggregation
	// below reads contiguous stripes.
	type job struct {
		pi, si, mi int
	}
	var jobs []job
	for pi := range points {
		for si := range schemes {
			for mi := range mixes {
				jobs = append(jobs, job{pi, si, mi})
			}
		}
	}
	out := make([]sim.Result, len(jobs))
	err := o.forEach(len(jobs), func(i int) error {
		j := jobs[i]
		cfg := deriveCfg(points[j.pi], o.Cfg)
		res, err := o.mixCell(tag, &cfg, mixSchemeJob{mix: mixes[j.mi], scheme: schemes[j.si]})
		if err != nil {
			return fmt.Errorf("figures: %s: %w", tag, err)
		}
		out[i] = res
		o.progress("%s %s %-4s %-16s failed=%v", tag, label(points[j.pi]), mixes[j.mi].Name, schemes[j.si], res.Failed)
		return nil
	})
	if err != nil {
		return nil, err
	}
	var baseRef float64
	rows := make([][]float64, len(points))
	for pi, p := range points {
		rows[pi] = make([]float64, len(schemes))
		for si := range schemes {
			var vals []float64
			for mi := range mixes {
				res := out[(pi*len(schemes)+si)*len(mixes)+mi]
				if res.Failed {
					continue
				}
				sum := 0.0
				for _, v := range res.IPC {
					sum += v
				}
				vals = append(vals, sum)
			}
			rows[pi][si] = stats.Gmean(vals)
			if p == refPoint && si == 0 {
				baseRef = rows[pi][si]
			}
		}
	}
	if baseRef == 0 {
		return nil, fmt.Errorf("figures: %s: every run of the reference point %s failed", tag, label(refPoint))
	}
	for pi := range points {
		cells := []string{label(points[pi])}
		for si := range schemes {
			cells = append(cells, fmt.Sprintf("%.3f", rows[pi][si]/baseRef))
		}
		t.AddRow(cells...)
	}
	return t, nil
}

// representativeMixes picks up to two mixes per class for the sensitivity
// sweeps (the paper reports class gmeans; two per class track them
// closely at a fraction of the simulation cost).
func representativeMixes(mixes []workload.Mix) []workload.Mix {
	count := map[workload.Class]int{}
	var out []workload.Mix
	for _, m := range mixes {
		if count[m.Class] < 2 {
			out = append(out, m)
			count[m.Class]++
		}
	}
	return out
}

// Fig21 renders the required-TreeLings analysis for 8 GB and 32 GB.
func Fig21() *stats.Table {
	t := &stats.Table{Header: []string{"memory", "treeling", "skew=1.0", "skew=0.5", "skew=0.1", "minimum"}}
	sizes := []int{2, 8, 32, 128, 512, 2048}
	for _, memGB := range []int{8, 32} {
		memBytes := uint64(memGB) << 30
		for _, mb := range sizes {
			cells := []string{fmt.Sprintf("%dGB", memGB), fmt.Sprintf("%dMB", mb)}
			for _, skew := range []float64{1.0, 0.5, 0.1} {
				cells = append(cells, fmt.Sprintf("%d",
					analysis.RequiredTreeLings(memBytes, analysis.MaxDomains, uint64(mb)<<20, skew)))
			}
			cells = append(cells, fmt.Sprintf("%d", (memBytes+uint64(mb)<<20-1)/(uint64(mb)<<20)))
			t.AddRow(cells...)
		}
	}
	return t
}

// fig22Rates is the cached payload of one Figure-22 Monte-Carlo point.
type fig22Rates struct {
	Static   float64
	IvLeague float64
}

// Fig22 renders the static-vs-IvLeague success-rate sweep. The grid's
// Monte-Carlo points fan out in parallel; each point's trials draw from a
// stream seeded by rng.ForkLabel on the point's own parameters, so every
// point is independent of scheduling (and of every other point — the
// previous shared-seed derivation correlated same-(D, M) points across
// utilization levels). With a sweep engine attached each point is one
// cached cell keyed by (point, trials, config), so a resumed grid only
// recomputes missing points.
func Fig22(o Options) (*stats.Table, error) {
	if err := o.begin(); err != nil {
		return nil, err
	}
	t := &stats.Table{Header: []string{"util", "domains", "memGB", "static", "ivleague"}}
	// The sorted order of the old serial sweep is exactly this grid order.
	var pts []analysis.Fig22Point
	for _, u := range []float64{0.2, 0.4, 0.6, 0.8} {
		for _, d := range []int{8, 16, 32, 64, 128} {
			for _, g := range []int{8, 32, 128, 256} {
				pts = append(pts, analysis.Fig22Point{Utilization: u, Domains: d, MemoryGB: g})
			}
		}
	}
	degraded := make([]bool, len(pts))
	err := o.forEach(len(pts), func(i int) error {
		p := &pts[i]
		pointLabel := fmt.Sprintf("fig22/u=%.2f/d=%d/g=%d", p.Utilization, p.Domains, p.MemoryGB)
		key := sweep.CellKey{
			Kind:   "fig22",
			Unit:   pointLabel,
			Extra:  fmt.Sprintf("trials=%d", o.Trials),
			Config: &o.Cfg,
		}
		rates, outcome, err := sweepCell(&o, key, true, func(context.Context) (fig22Rates, error) {
			seed := rng.ForkLabel(o.Cfg.Sim.Seed, pointLabel)
			var r fig22Rates
			r.Static, r.IvLeague = analysis.SuccessRates(analysis.ScalabilityConfig{
				TreeLingBytes: o.Cfg.TreeLingBytes(),
				Utilization:   p.Utilization,
				Domains:       p.Domains,
				MemoryBytes:   uint64(p.MemoryGB) << 30,
				Trials:        o.Trials,
				Seed:          seed,
			})
			return r, nil
		})
		if outcome == sweep.OutcomeDegraded {
			degraded[i] = true
			return nil
		}
		if err != nil {
			return err
		}
		p.Static, p.IvLeague = rates.Static, rates.IvLeague
		o.progress("fig22 u=%.0f%% D=%d %dGB static=%.2f ivleague=%.2f",
			p.Utilization*100, p.Domains, p.MemoryGB, p.Static, p.IvLeague)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, p := range pts {
		static, ivleague := fmt.Sprintf("%.2f", p.Static), fmt.Sprintf("%.2f", p.IvLeague)
		if degraded[i] {
			static, ivleague = "deg", "deg"
		}
		t.AddRow(fmt.Sprintf("%.0f%%", p.Utilization*100), fmt.Sprintf("%d", p.Domains),
			fmt.Sprintf("%d", p.MemoryGB), static, ivleague)
	}
	return t, nil
}

// Table3 renders the hardware-cost table.
func Table3(cfg *config.Config) *stats.Table {
	r := hwcost.Compute(cfg)
	t := &stats.Table{Header: []string{"component", "storage", "area(mm2)"}}
	for _, c := range r.Components {
		t.AddRow(c.Name, fmt.Sprintf("%d B", c.StorageBytes), fmt.Sprintf("%.4f", c.AreaMM2))
	}
	t.AddRow("total on-chip", "", fmt.Sprintf("%.4f", r.TotalOnChipMM2))
	t.AddRow("locked tree-cache region", fmt.Sprintf("%d B", r.LockedTreeCacheBytes), "-")
	t.AddRow("off-chip NFL", fmt.Sprintf("%d B (%.3f%%)", r.NFLMemoryBytes, r.NFLMemoryPct), "-")
	t.AddRow("off-chip TreeLing forest", fmt.Sprintf("%d B (%.2f%%)", r.TreeMemoryBytes, r.TreeMemoryPct), "-")
	t.AddRow("off-chip Baseline tree", fmt.Sprintf("%d B (%.2f%%)", r.BaselineTreeBytes, r.BaselineTreePct), "-")
	return t
}

// Fig3 runs the side-channel demonstration across schemes, one attack per
// worker. Attack cells run through the sweep engine's containment but
// never its store; a degraded one renders as a row of "deg".
func Fig3(o Options) (*stats.Table, error) {
	if err := o.begin(); err != nil {
		return nil, err
	}
	t := &stats.Table{Header: []string{"scheme", "shared-nodes", "accuracy", "lat(bit=1)", "lat(bit=0)"}}
	acfg := attack.DefaultConfig()
	acfg.KeyBits = 1024
	schemes := []config.Scheme{config.SchemeBaseline, config.SchemeIvLeagueBasic,
		config.SchemeIvLeagueInvert, config.SchemeIvLeaguePro}
	out := make([]*attack.Result, len(schemes))
	err := o.forEach(len(schemes), func(i int) error {
		cfg := o.Cfg
		cfg.DRAM.SizeBytes = 1 << 30
		cfg.IvLeague.TreeLingCount = 128
		key := sweep.CellKey{Kind: "fig3", Scheme: schemes[i].String(), Config: &cfg}
		res, outcome, err := sweepCell(&o, key, false, func(context.Context) (*attack.Result, error) {
			return attack.Run(&cfg, schemes[i], acfg)
		})
		if outcome == sweep.OutcomeDegraded {
			return nil
		}
		if err != nil {
			return fmt.Errorf("fig3 %v: %w", schemes[i], err)
		}
		out[i] = res
		o.progress("fig3 %-16s accuracy=%.1f%%", schemes[i], res.Accuracy*100)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, s := range schemes {
		res := out[i]
		if res == nil {
			t.AddRow(s.String(), "deg", "deg", "deg", "deg")
			continue
		}
		t.AddRow(s.String(), fmt.Sprintf("%v", res.SharedNodes),
			fmt.Sprintf("%.1f%%", res.Accuracy*100),
			fmt.Sprintf("%.0f", res.MeanLatencyHit), fmt.Sprintf("%.0f", res.MeanLatencyMiss))
	}
	return t, nil
}
