package secmem

import (
	"testing"

	"ivleague/internal/config"
	"ivleague/internal/layout"
)

// BenchmarkColdWalk times Do on reads that find the metadata caches empty,
// so every access fetches its counter and walks the whole verification
// path. The caches are shrunk to 4 KiB so that the FlushMetadata before
// each read costs little next to the walk it forces.
func BenchmarkColdWalk(b *testing.B) {
	for _, scheme := range []config.Scheme{
		config.SchemeBaseline, config.SchemeIvLeagueBasic, config.SchemeIvLeagueInvert,
	} {
		b.Run(scheme.String(), func(b *testing.B) {
			cfg := testCfg()
			cfg.SecureMem.CounterCache.SizeBytes = 4 << 10
			cfg.SecureMem.TreeCache.SizeBytes = 4 << 10
			cfg.IvLeague.LMMCache.SizeBytes = 4 << 10
			c, err := New(&cfg, scheme, 8)
			if err != nil {
				b.Fatal(err)
			}
			if err := c.CreateDomain(1); err != nil {
				b.Fatal(err)
			}
			const pages = 512
			for i := 0; i < pages; i++ {
				if _, err := c.OnPageMap(0, 1, layout.VPN(i), layout.PFN(i*61)); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.FlushMetadata()
				v := i % pages
				if _, err := c.Do(AccessRequest{Now: uint64(i), Domain: 1, VPN: layout.VPN(v), PFN: layout.PFN(v * 61)}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
