package obs

import (
	"fmt"

	"ivleague/internal/analysis"
	"ivleague/internal/cache"
	"ivleague/internal/config"
	"ivleague/internal/layout"
	"ivleague/internal/rng"
	"ivleague/internal/secmem"
	"ivleague/internal/sim"
	"ivleague/internal/sweep"
	"ivleague/internal/telemetry"
	"ivleague/internal/workload"
)

// perfCfg is the shared reduced-scale configuration for the curated
// scenarios — the same scale as the root bench_test.go harness, so one
// scenario run stays in the tens-of-milliseconds range and ivperf's
// median-of-N fits in a CI minute.
func perfCfg() config.Config {
	cfg := config.Default()
	cfg.Sim.WarmupInstr = 5_000
	cfg.Sim.MeasureInstr = 20_000
	cfg.Sim.FootprintScale = 0.05
	return cfg
}

// simScenario builds one simulator scenario: a full RunMix of mix under
// scheme, work counted in simulated instructions across all threads.
func simScenario(scheme config.Scheme, mixName string) (Scenario, error) {
	mix, err := workload.MixByName(mixName)
	if err != nil {
		return Scenario{}, err
	}
	cfg := perfCfg()
	fp, err := sweep.CellKey{
		Kind: "perf", Scheme: scheme.String(), Unit: mixName,
		Extra: "ivperf-v1", Config: &cfg,
	}.Fingerprint()
	if err != nil {
		return Scenario{}, err
	}
	instr := float64(cfg.Sim.WarmupInstr+cfg.Sim.MeasureInstr) * float64(len(mix.Procs))
	return Scenario{
		Name:        fmt.Sprintf("sim/%s/%s", mixName, scheme),
		Fingerprint: fp,
		Run: func(pt *telemetry.PhaseTimers) (float64, error) {
			var opts []sim.MachineOption
			if pt != nil {
				opts = append(opts, sim.WithPhaseTimers(pt))
			}
			res, err := sim.RunMix(&cfg, scheme, mix, opts...)
			if err != nil {
				return 0, err
			}
			if res.Failed {
				return 0, fmt.Errorf("%s on %s failed: %s", scheme, mixName, res.FailMsg)
			}
			return instr, nil
		},
	}, nil
}

// steadyAccessScenario builds the pure access-path scenario: a secmem
// controller under IvLeague-Pro with a mapped, fully warmed working set,
// constructed lazily on the first Run (the warmup rep) so the timed reps
// measure nothing but Do — the tree walk, counters, NFL/LMM, and hotpage
// machinery on the flat arenas. Work is counted in Do calls. The
// scenario is marked Steady: the -check gate fails any trajectory point
// where it allocates, enforcing the zero-alloc steady-state contract
// directly in CI next to the alloc regression test in internal/secmem.
func steadyAccessScenario() (Scenario, error) {
	cfg := config.Default()
	fp, err := sweep.CellKey{
		Kind: "perf", Scheme: config.SchemeIvLeaguePro.String(), Unit: "steady-access",
		Extra: "ivperf-v1", Config: &cfg,
	}.Fingerprint()
	if err != nil {
		return Scenario{}, err
	}
	const (
		pages     = 512
		rotations = 40
		basePFN   = 4096
	)
	var ctl *secmem.Controller
	now := uint64(1)
	access := func() error {
		for i := uint64(0); i < pages; i++ {
			req := secmem.AccessRequest{
				Now: now, Domain: 1,
				VPN: layout.VPN(i), PFN: layout.PFN(basePFN + i),
				Block: int(i) % config.BlocksPerPage,
				Write: i%2 == 0,
			}
			if _, err := ctl.Do(req); err != nil {
				return fmt.Errorf("steady-access Do(%d): %w", i, err)
			}
			now++
		}
		return nil
	}
	return Scenario{
		Name:        "secmem/steady-access",
		Fingerprint: fp,
		Steady:      true,
		Run: func(_ *telemetry.PhaseTimers) (float64, error) {
			if ctl == nil {
				c, err := secmem.New(&cfg, config.SchemeIvLeaguePro, 8)
				if err != nil {
					return 0, err
				}
				if err := c.CreateDomain(1); err != nil {
					return 0, err
				}
				for i := uint64(0); i < pages; i++ {
					if _, err := c.OnPageMap(now, 1, layout.VPN(i), layout.PFN(basePFN+i)); err != nil {
						return 0, fmt.Errorf("steady-access map %d: %w", i, err)
					}
					now++
				}
				ctl = c
				// Warm until the hotpage machinery and metadata caches
				// reach their fixed point on this working set.
				for r := 0; r < 8; r++ {
					if err := access(); err != nil {
						return 0, err
					}
				}
			}
			for r := 0; r < rotations; r++ {
				if err := access(); err != nil {
					return 0, err
				}
			}
			return float64(pages * rotations), nil
		},
	}, nil
}

// cacheAccessStream is the shape of the cache/access scenario's stream:
// its length, a working set four times the LLC, the generator's re-touch
// probability and ring, and the write fraction.
type cacheAccessStream struct {
	Entries, WorkingSetLines int
	ReuseProb                float64
	Ring                     int
	WriteFrac                float64
	Seed                     uint64
}

// cacheAccessScenario builds the cache-model microscenario: one core's
// config.Default() L1, L2 and LLC driven by a stream precomputed from a
// fixed seed. Like workload.Generator, 80% of entries re-touch a line of
// a 96-line ring of recent fresh draws; the rest draw uniformly from a
// working set four times the LLC. Lookups chain L1 → L2 → LLC on misses
// and dirty victims are written one level down, as in sim.Machine's step.
// The caches are built on the first Run (the warmup rep) and stay warm
// across reps. Work is counted in stream entries; the scenario is Steady.
func cacheAccessScenario() (Scenario, error) {
	cfg := config.Default()
	st := cacheAccessStream{
		Entries: 1 << 20, WorkingSetLines: 4 * cfg.L3.SizeBytes / cfg.L3.LineBytes,
		ReuseProb: 0.8, Ring: 96, WriteFrac: 0.3, Seed: 42,
	}
	fp, err := sweep.CellKey{
		Kind: "perf", Unit: "cache-access", Extra: "ivperf-v1",
		Config: []any{cfg.L1, cfg.L2, cfg.L3, cfg.Sim.Seed, st},
	}.Fingerprint()
	if err != nil {
		return Scenario{}, err
	}
	var l1, l2, l3 *cache.Cache
	var stream []uint64 // line addresses, bit 0 set for a write
	return Scenario{
		Name:        "cache/access",
		Fingerprint: fp,
		Steady:      true,
		Run: func(_ *telemetry.PhaseTimers) (float64, error) {
			if stream == nil {
				var err error
				if l1, err = cache.New(cfg.L1, cfg.Sim.Seed, 0); err != nil {
					return 0, err
				}
				if l2, err = cache.New(cfg.L2, cfg.Sim.Seed, 0); err != nil {
					return 0, err
				}
				if l3, err = cache.New(cfg.L3, cfg.Sim.Seed^0x13c3ed, 0); err != nil {
					return 0, err
				}
				r := rng.New(st.Seed)
				ring := make([]uint64, st.Ring)
				ringLen, ringPos := 0, 0
				stream = make([]uint64, st.Entries)
				for i := range stream {
					var line uint64
					if ringLen > 0 && r.Bool(st.ReuseProb) {
						line = ring[r.Intn(ringLen)]
					} else {
						line = r.Uint64n(uint64(st.WorkingSetLines))
						ring[ringPos] = line
						ringPos = (ringPos + 1) % st.Ring
						ringLen = min(ringLen+1, st.Ring)
					}
					stream[i] = line * uint64(cfg.L1.LineBytes)
					if r.Bool(st.WriteFrac) {
						stream[i] |= 1
					}
				}
			}
			for _, e := range stream {
				r1 := l1.Access(e, e&1 != 0)
				if r1.EvictedDirty {
					if r := l2.Access(r1.WritebackAddr, true); r.EvictedDirty {
						l3.Access(r.WritebackAddr, true)
					}
				}
				if r1.Hit {
					continue
				}
				r2 := l2.Access(e, false)
				if r2.EvictedDirty {
					l3.Access(r2.WritebackAddr, true)
				}
				if !r2.Hit {
					l3.Access(e, false)
				}
			}
			return float64(len(stream)), nil
		},
	}, nil
}

// mapProScenario builds the allocation-path scenario: a fresh
// IvLeague-Pro controller with one domain maps pages until they span
// mapProTreeLings TreeLings, so every conversion the Invert/Pro top-down
// fill makes consumes a slot in a domain that owns many TreeLings — the
// case a whole-space NFL scan made quadratic. Work is counted in
// OnPageMap calls.
func mapProScenario() (Scenario, error) {
	const (
		mapProTreeLings = 32
		basePFN         = 4096
	)
	cfg := config.Default()
	fp, err := sweep.CellKey{
		Kind: "perf", Scheme: config.SchemeIvLeaguePro.String(), Unit: "map-pro",
		Extra: "ivperf-v1", Config: &cfg,
	}.Fingerprint()
	if err != nil {
		return Scenario{}, err
	}
	// A full Pro TreeLing verifies a page in every leaf slot except the
	// leaves under its τhot nodes.
	perTL := int(cfg.TreeLingPages()) - cfg.IvLeague.HotRegionLeaves*cfg.SecureMem.TreeArity*cfg.SecureMem.TreeArity
	pages := mapProTreeLings * perTL
	return Scenario{
		Name:        "secmem/map-pro",
		Fingerprint: fp,
		Run: func(_ *telemetry.PhaseTimers) (float64, error) {
			ctl, err := secmem.New(&cfg, config.SchemeIvLeaguePro, 8)
			if err != nil {
				return 0, err
			}
			if err := ctl.CreateDomain(1); err != nil {
				return 0, err
			}
			for i := 0; i < pages; i++ {
				if _, err := ctl.OnPageMap(uint64(i), 1, layout.VPN(i), layout.PFN(basePFN+i)); err != nil {
					return 0, fmt.Errorf("map-pro map %d: %w", i, err)
				}
			}
			if n := len(ctl.IvLeague().TreeLingsOf(1)); n != mapProTreeLings {
				return 0, fmt.Errorf("map-pro: %d pages span %d TreeLings, want %d", pages, n, mapProTreeLings)
			}
			return float64(pages), nil
		},
	}, nil
}

// fig22Scenario builds the analytical Monte-Carlo scenario (no
// simulator involved — it tracks the analysis package's speed), work
// counted in trials.
func fig22Scenario() (Scenario, error) {
	sc := analysis.ScalabilityConfig{
		TreeLingBytes: 16 << 20,
		Utilization:   0.8, Domains: 128, MemoryBytes: 32 << 30,
		Trials: 200, Seed: 42,
	}
	fp, err := sweep.CellKey{
		Kind: "perf", Unit: "fig22", Extra: "ivperf-v1", Config: sc,
	}.Fingerprint()
	if err != nil {
		return Scenario{}, err
	}
	return Scenario{
		Name:        "analysis/fig22",
		Fingerprint: fp,
		Run: func(_ *telemetry.PhaseTimers) (float64, error) {
			s, iv := analysis.SuccessRates(sc)
			if s < 0 || s > 1 || iv < 0 || iv > 1 {
				return 0, fmt.Errorf("fig22 success rates out of range: %v, %v", s, iv)
			}
			return float64(sc.Trials), nil
		},
	}, nil
}

// Scenarios returns the curated benchmark set: a representative scheme
// spread over small, medium and large mixes, then the layer
// microscenarios and the analytical path.
func Scenarios() ([]Scenario, error) {
	specs := []struct {
		scheme config.Scheme
		mix    string
	}{
		{config.SchemeBaseline, "S-1"},
		{config.SchemeIvLeaguePro, "S-1"},
		{config.SchemeIvLeagueBasic, "M-2"},
		{config.SchemeIvLeagueInvert, "S-4"},
		{config.SchemeIvLeaguePro, "L-2"},
	}
	out := make([]Scenario, 0, len(specs)+4)
	for _, sp := range specs {
		s, err := simScenario(sp.scheme, sp.mix)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	ca, err := cacheAccessScenario()
	if err != nil {
		return nil, err
	}
	out = append(out, ca)
	steady, err := steadyAccessScenario()
	if err != nil {
		return nil, err
	}
	out = append(out, steady)
	mapPro, err := mapProScenario()
	if err != nil {
		return nil, err
	}
	out = append(out, mapPro)
	f22, err := fig22Scenario()
	if err != nil {
		return nil, err
	}
	out = append(out, f22)
	return out, nil
}
