// Package ivleague's root benchmark harness: one testing.B benchmark per
// table and figure of the paper's evaluation (the experiment index lives
// in DESIGN.md), plus the ablation benches for the design choices the
// reproduction calls out. Each benchmark regenerates its figure's data at
// a reduced scale per iteration; `go run ./cmd/ivbench` prints the full
// tables.
package ivleague_test

import (
	"runtime"
	"testing"

	"ivleague/internal/analysis"
	"ivleague/internal/attack"
	"ivleague/internal/config"
	"ivleague/internal/figures"
	"ivleague/internal/hwcost"
	"ivleague/internal/sim"
	"ivleague/internal/telemetry"
	"ivleague/internal/workload"
)

// benchCfg is a reduced-scale configuration so a single benchmark
// iteration stays in the tens-of-milliseconds range.
func benchCfg() config.Config {
	cfg := config.Default()
	cfg.Sim.WarmupInstr = 5_000
	cfg.Sim.MeasureInstr = 20_000
	cfg.Sim.FootprintScale = 0.05
	return cfg
}

func benchMix(b *testing.B, name string) workload.Mix {
	b.Helper()
	m, err := workload.MixByName(name)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// runMix executes one mix under one scheme and fails the benchmark if the
// run fails.
func runMix(b *testing.B, cfg *config.Config, scheme config.Scheme, mix workload.Mix) sim.Result {
	b.Helper()
	res, err := sim.RunMix(cfg, scheme, mix)
	if err != nil {
		b.Fatal(err)
	}
	if res.Failed && scheme != config.SchemeBVv1 {
		b.Fatalf("%v on %s failed: %s", scheme, mix.Name, res.FailMsg)
	}
	return res
}

// BenchmarkFig03Attack regenerates the side-channel demonstration: key
// recovery through shared metadata on Baseline vs chance under IvLeague.
func BenchmarkFig03Attack(b *testing.B) {
	cfg := config.Default()
	cfg.DRAM.SizeBytes = 1 << 30
	cfg.IvLeague.TreeLingCount = 128
	acfg := attack.DefaultConfig()
	acfg.KeyBits = 256
	for i := 0; i < b.N; i++ {
		base, err := attack.Run(&cfg, config.SchemeBaseline, acfg)
		if err != nil {
			b.Fatal(err)
		}
		iv, err := attack.Run(&cfg, config.SchemeIvLeaguePro, acfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(base.Accuracy*100, "baseline-acc-%")
		b.ReportMetric(iv.Accuracy*100, "ivleague-acc-%")
	}
}

// BenchmarkFig15WeightedIPC regenerates one representative mix per class
// across the four schemes, reporting IvLeague-Pro's normalized IPC.
func BenchmarkFig15WeightedIPC(b *testing.B) {
	cfg := benchCfg()
	for _, name := range []string{"S-1", "M-1", "L-1"} {
		mix := benchMix(b, name)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				base := runMix(b, &cfg, config.SchemeBaseline, mix)
				pro := runMix(b, &cfg, config.SchemeIvLeaguePro, mix)
				var bsum, psum float64
				for j := range base.IPC {
					bsum += base.IPC[j]
					psum += pro.IPC[j]
				}
				b.ReportMetric(psum/bsum, "norm-ipc")
			}
		})
	}
}

// BenchmarkFig16PathLength reports mean verification path lengths per
// scheme for one Large mix.
func BenchmarkFig16PathLength(b *testing.B) {
	cfg := benchCfg()
	mix := benchMix(b, "L-2")
	for _, s := range figures.PerfSchemes() {
		b.Run(s.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := runMix(b, &cfg, s, mix)
				var sum float64
				n := 0
				for _, v := range res.PathLenMean {
					sum += v
					n++
				}
				b.ReportMetric(sum/float64(n), "path-len")
			}
		})
	}
}

// BenchmarkFig17aNFLAblation compares the NFL against the naive bit-vector
// allocators; BV-v1 is expected to fail (starvation) on churn-heavy mixes.
func BenchmarkFig17aNFLAblation(b *testing.B) {
	cfg := benchCfg()
	mix := benchMix(b, "M-4") // churn-heavy (dedup twice-over)
	for _, s := range []config.Scheme{config.SchemeIvLeaguePro, config.SchemeBVv1, config.SchemeBVv2} {
		b.Run(s.String(), func(b *testing.B) {
			failed := 0
			for i := 0; i < b.N; i++ {
				res, err := sim.RunMix(&cfg, s, mix)
				if err != nil {
					b.Fatal(err)
				}
				if res.Failed {
					failed++
				}
			}
			b.ReportMetric(float64(failed)/float64(b.N), "fail-rate")
		})
	}
}

// BenchmarkFig17bUtilization reports TreeLing slot utilization.
func BenchmarkFig17bUtilization(b *testing.B) {
	cfg := benchCfg()
	mix := benchMix(b, "S-2")
	for i := 0; i < b.N; i++ {
		res := runMix(b, &cfg, config.SchemeIvLeaguePro, mix)
		b.ReportMetric(res.Utilization*100, "util-%")
		b.ReportMetric(float64(res.Untracked), "untracked")
	}
}

// BenchmarkFig18NFLBHitRate reports the NFL buffer hit rate.
func BenchmarkFig18NFLBHitRate(b *testing.B) {
	cfg := benchCfg()
	mix := benchMix(b, "S-4")
	for i := 0; i < b.N; i++ {
		res := runMix(b, &cfg, config.SchemeIvLeagueBasic, mix)
		b.ReportMetric(res.NFLBHitRate*100, "nflb-hit-%")
	}
}

// BenchmarkFig19MemAccesses reports extra memory accesses vs Baseline.
func BenchmarkFig19MemAccesses(b *testing.B) {
	cfg := benchCfg()
	mix := benchMix(b, "M-2")
	for i := 0; i < b.N; i++ {
		base := runMix(b, &cfg, config.SchemeBaseline, mix)
		basic := runMix(b, &cfg, config.SchemeIvLeagueBasic, mix)
		b.ReportMetric(float64(basic.MemAccesses)/float64(base.MemAccesses)*100, "mem-%of-baseline")
	}
}

// BenchmarkFig20aTreeLingSize sweeps the TreeLing height (size).
func BenchmarkFig20aTreeLingSize(b *testing.B) {
	for _, h := range []int{3, 4, 5} {
		b.Run(map[int]string{3: "2MB", 4: "16MB", 5: "128MB"}[h], func(b *testing.B) {
			cfg := benchCfg()
			cfg.IvLeague.TreeLingHeight = h
			need := int(cfg.DRAM.SizeBytes/cfg.TreeLingBytes()) * 2
			if need < 1024 {
				need = 1024
			}
			cfg.IvLeague.TreeLingCount = need
			mix := benchMix(b, "S-5")
			for i := 0; i < b.N; i++ {
				res := runMix(b, &cfg, config.SchemeIvLeaguePro, mix)
				var sum float64
				for _, v := range res.IPC {
					sum += v
				}
				b.ReportMetric(sum, "ipc-sum")
			}
		})
	}
}

// BenchmarkFig20bMetaCacheSize sweeps the tree metadata cache size.
func BenchmarkFig20bMetaCacheSize(b *testing.B) {
	for _, kb := range []int{64, 256, 1024} {
		b.Run(map[int]string{64: "64KB", 256: "256KB", 1024: "1MB"}[kb], func(b *testing.B) {
			cfg := benchCfg()
			cfg.SecureMem.TreeCache.SizeBytes = kb << 10
			mix := benchMix(b, "S-5")
			for i := 0; i < b.N; i++ {
				res := runMix(b, &cfg, config.SchemeIvLeagueBasic, mix)
				var sum float64
				for _, v := range res.IPC {
					sum += v
				}
				b.ReportMetric(sum, "ipc-sum")
			}
		})
	}
}

// BenchmarkFig21RequiredTreeLings regenerates the analytical TreeLing
// requirement curves.
func BenchmarkFig21RequiredTreeLings(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, mb := range []int{2, 8, 32, 128, 512, 2048} {
			for _, skew := range []float64{1.0, 0.5, 0.1} {
				if analysis.RequiredTreeLings(32<<30, 1<<12, uint64(mb)<<20, skew) == 0 {
					b.Fatal("zero requirement")
				}
			}
		}
	}
}

// BenchmarkFig22Scalability regenerates the success-rate surfaces.
func BenchmarkFig22Scalability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, iv := analysis.SuccessRates(analysis.ScalabilityConfig{
			TreeLings: 4096, TreeLingBytes: 16 << 20,
			Utilization: 0.8, Domains: 128, MemoryBytes: 32 << 30,
			Trials: 200, Seed: 42,
		})
		b.ReportMetric(s*100, "static-%")
		b.ReportMetric(iv*100, "ivleague-%")
	}
}

// BenchmarkTable3HWCost regenerates the hardware-cost table.
func BenchmarkTable3HWCost(b *testing.B) {
	cfg := config.Default()
	for i := 0; i < b.N; i++ {
		r := hwcost.Compute(&cfg)
		b.ReportMetric(r.TotalOnChipMM2, "area-mm2")
	}
}

// --- Ablation benches for the design choices called out in DESIGN.md ---

// BenchmarkAblationNFLBSize varies the per-domain NFL buffer entries.
func BenchmarkAblationNFLBSize(b *testing.B) {
	for _, entries := range []int{1, 2, 8} {
		b.Run(map[int]string{1: "1entry", 2: "2entries", 8: "8entries"}[entries], func(b *testing.B) {
			cfg := benchCfg()
			cfg.IvLeague.NFLBEntries = entries
			mix := benchMix(b, "S-2")
			for i := 0; i < b.N; i++ {
				res := runMix(b, &cfg, config.SchemeIvLeagueBasic, mix)
				b.ReportMetric(res.NFLBHitRate*100, "nflb-hit-%")
			}
		})
	}
}

// BenchmarkAblationHotTracker varies the hotpage tracker geometry.
func BenchmarkAblationHotTracker(b *testing.B) {
	for _, entries := range []int{32, 128, 512} {
		b.Run(map[int]string{32: "32entries", 128: "128entries", 512: "512entries"}[entries], func(b *testing.B) {
			cfg := benchCfg()
			cfg.IvLeague.HotTrackerEntries = entries
			mix := benchMix(b, "L-3")
			for i := 0; i < b.N; i++ {
				res := runMix(b, &cfg, config.SchemeIvLeaguePro, mix)
				var sum float64
				for _, v := range res.IPC {
					sum += v
				}
				b.ReportMetric(sum, "ipc-sum")
			}
		})
	}
}

// BenchmarkAblationRootLock varies how many tree-cache ways are reserved
// for pinning the levels above the TreeLing roots.
func BenchmarkAblationRootLock(b *testing.B) {
	for _, ways := range []int{0, 1, 2} {
		b.Run(map[int]string{0: "0ways", 1: "1way", 2: "2ways"}[ways], func(b *testing.B) {
			cfg := benchCfg()
			cfg.IvLeague.RootLockWays = ways
			mix := benchMix(b, "M-3")
			for i := 0; i < b.N; i++ {
				res := runMix(b, &cfg, config.SchemeIvLeagueBasic, mix)
				var sum float64
				for _, v := range res.IPC {
					sum += v
				}
				b.ReportMetric(sum, "ipc-sum")
			}
		})
	}
}

// BenchmarkAblationInvertFill contrasts Invert's top-down fill with the
// leaf-only Basic fill on a small-footprint mix (where Invert's shorter
// effective height matters most).
func BenchmarkAblationInvertFill(b *testing.B) {
	cfg := benchCfg()
	mix := benchMix(b, "S-4")
	for _, s := range []config.Scheme{config.SchemeIvLeagueBasic, config.SchemeIvLeagueInvert} {
		b.Run(s.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := runMix(b, &cfg, s, mix)
				var sum float64
				n := 0
				for _, v := range res.PathLenMean {
					sum += v
					n++
				}
				b.ReportMetric(sum/float64(n), "path-len")
			}
		})
	}
}

// BenchmarkAblationDynamicRootLock contrasts static way-partitioned root
// locking with the dynamic per-TreeLing locking alternative of Section
// VIII (which frees the reserved ways at a bounded leakage cost).
func BenchmarkAblationDynamicRootLock(b *testing.B) {
	for _, dyn := range []bool{false, true} {
		name := "static-lock"
		if dyn {
			name = "dynamic-lock"
		}
		b.Run(name, func(b *testing.B) {
			cfg := benchCfg()
			cfg.IvLeague.DynamicRootLock = dyn
			mix := benchMix(b, "M-2")
			for i := 0; i < b.N; i++ {
				res := runMix(b, &cfg, config.SchemeIvLeagueBasic, mix)
				var sum float64
				for _, v := range res.IPC {
					sum += v
				}
				b.ReportMetric(sum, "ipc-sum")
			}
		})
	}
}

// BenchmarkAblationLMMCache varies the LMM cache capacity.
func BenchmarkAblationLMMCache(b *testing.B) {
	for _, kb := range []int{128, 512, 2048} {
		b.Run(map[int]string{128: "2Kentries", 512: "8Kentries", 2048: "32Kentries"}[kb], func(b *testing.B) {
			cfg := benchCfg()
			cfg.IvLeague.LMMCache.SizeBytes = kb << 10
			mix := benchMix(b, "L-4")
			for i := 0; i < b.N; i++ {
				res := runMix(b, &cfg, config.SchemeIvLeagueBasic, mix)
				b.ReportMetric(res.LMMHitRate*100, "lmm-hit-%")
			}
		})
	}
}

// BenchmarkFiguresRunEngine measures the figure harness's run engine end
// to end (alone runs + every (mix, scheme) simulation) serially and at the
// machine's core count; on a multi-core host the per-op time drops roughly
// with min(cores, independent runs) while the resulting RunSet stays
// byte-identical.
func BenchmarkFiguresRunEngine(b *testing.B) {
	mixes := []workload.Mix{benchMix(b, "S-1"), benchMix(b, "M-1")}
	for _, j := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(map[bool]string{true: "serial", false: "allcores"}[j == 1], func(b *testing.B) {
			o := figures.Quick()
			o.Cfg = benchCfg()
			o.Mixes = mixes
			o.Parallelism = j
			for i := 0; i < b.N; i++ {
				if _, err := figures.Run(o); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPhaseTimerOverhead quantifies the hot-path cost of the phase
// timers: "off" is the default nil-timer path (one predictable nil check
// per region, expected to be indistinguishable from the pre-timer
// simulator), "sampled64" is the ivperf default, "every-op" the worst
// case (two clock reads per region on every op).
func BenchmarkPhaseTimerOverhead(b *testing.B) {
	cfg := benchCfg()
	mix := benchMix(b, "S-1")
	for _, mode := range []struct {
		name   string
		sample int // 0 = timers off
	}{{"off", 0}, {"sampled64", 64}, {"every-op", 1}} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var opts []sim.MachineOption
				if mode.sample > 0 {
					opts = append(opts, sim.WithPhaseTimers(telemetry.NewPhaseTimers(mode.sample)))
				}
				res, err := sim.RunMix(&cfg, config.SchemeIvLeaguePro, mix, opts...)
				if err != nil {
					b.Fatal(err)
				}
				if res.Failed {
					b.Fatal(res.FailMsg)
				}
			}
		})
	}
}

// BenchmarkSimulatorThroughput measures raw simulation speed
// (instructions simulated per second), a practical adoption metric.
func BenchmarkSimulatorThroughput(b *testing.B) {
	cfg := benchCfg()
	mix := benchMix(b, "S-1")
	instr := float64(cfg.Sim.WarmupInstr+cfg.Sim.MeasureInstr) * 4
	for i := 0; i < b.N; i++ {
		runMix(b, &cfg, config.SchemeIvLeaguePro, mix)
	}
	b.ReportMetric(instr*float64(b.N)/b.Elapsed().Seconds(), "instr/s")
}
