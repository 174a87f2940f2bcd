package cache

import (
	"testing"

	"ivleague/internal/config"
	"ivleague/internal/rng"
)

// TestMatchesStampedReference drives Cache and the stamped reference with
// the same random stream of accesses (30% writes), invalidations and
// probes, and requires every return value and counter to agree. Partway
// through, the reference's clock is set just below the 32-bit ceiling so
// that its stamp renumbering runs mid-stream.
func TestMatchesStampedReference(t *testing.T) {
	def := config.Default()
	geoms := []struct {
		name     string
		cfg      config.CacheConfig
		reserved int
	}{
		{"L1", def.L1, 0},
		{"L2", def.L2, 0},
		{"LLC", def.L3, 0},
		{"tree-root-lock-1", def.SecureMem.TreeCache, def.IvLeague.RootLockWays},
		{"4way-1reserved", config.CacheConfig{SizeBytes: 4 << 10, Ways: 4, LineBytes: 64, HitLatency: 5}, 1},
		{"8way-3reserved", config.CacheConfig{SizeBytes: 16 << 10, Ways: 8, LineBytes: 64, HitLatency: 5, Randomized: true}, 3},
		{"1way", config.CacheConfig{SizeBytes: 4 << 10, Ways: 1, LineBytes: 64, HitLatency: 2}, 0},
		{"32way", config.CacheConfig{SizeBytes: 32 << 10, Ways: 32, LineBytes: 64, HitLatency: 9}, 0},
	}
	const ops = 1_000_000
	for gi, g := range geoms {
		t.Run(g.name, func(t *testing.T) {
			c := mustNew(t, g.cfg, uint64(gi)+11, g.reserved)
			ref, err := newStamped(g.cfg, uint64(gi)+11, g.reserved)
			if err != nil {
				t.Fatal(err)
			}
			r := rng.New(uint64(gi) + 101)
			// Twice the lines the cache holds: enough reuse for hits,
			// enough spread for evictions in every set.
			lines := 2 * uint64(g.cfg.SizeBytes/g.cfg.LineBytes)
			const nearCeiling = 1<<32 - 1 - 50_000
			for i := 0; i < ops; i++ {
				if i == ops/2 {
					ref.tick = nearCeiling
				}
				addr := r.Uint64n(lines)*uint64(g.cfg.LineBytes) + r.Uint64n(uint64(g.cfg.LineBytes))
				switch p := r.Intn(100); {
				case p < 5:
					gp, gd := c.Invalidate(addr)
					wp, wd := ref.Invalidate(addr)
					if gp != wp || gd != wd {
						t.Fatalf("op %d: Invalidate(%#x) = %v, %v; reference %v, %v", i, addr, gp, gd, wp, wd)
					}
				case p < 15:
					if got, want := c.Probe(addr), ref.Probe(addr); got != want {
						t.Fatalf("op %d: Probe(%#x) = %v; reference %v", i, addr, got, want)
					}
				default:
					write := r.Intn(10) < 3
					if got, want := c.Access(addr, write), ref.Access(addr, write); got != want {
						t.Fatalf("op %d: Access(%#x, %v) = %+v; reference %+v", i, addr, write, got, want)
					}
				}
				if c.Hits.Value() != ref.Hits.Value() || c.Misses.Value() != ref.Misses.Value() ||
					c.Evictions.Value() != ref.Evictions.Value() {
					t.Fatalf("op %d: hits/misses/evictions %d/%d/%d; reference %d/%d/%d", i,
						c.Hits.Value(), c.Misses.Value(), c.Evictions.Value(),
						ref.Hits.Value(), ref.Misses.Value(), ref.Evictions.Value())
				}
			}
			if ref.tick >= nearCeiling {
				t.Fatalf("reference clock %d never renumbered its stamps", ref.tick)
			}
			if got, want := c.Occupancy(), ref.Occupancy(); got != want {
				t.Fatalf("Occupancy = %v; reference %v", got, want)
			}
			if got, want := c.Flush(), ref.Flush(); got != want {
				t.Fatalf("Flush = %d dirty lines; reference %d", got, want)
			}
			if c.Occupancy() != 0 {
				t.Fatalf("Occupancy after Flush = %v", c.Occupancy())
			}
		})
	}
}
