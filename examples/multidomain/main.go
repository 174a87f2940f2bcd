// Multidomain: runtime scaling of IV domains with skewed footprints.
//
// It creates many domains with a highly skewed memory distribution and
// shows IvLeague assigning TreeLings on demand with near-perfect slot
// utilization, then contrasts static partitioning, which fails as soon as
// one domain outgrows its fixed share (the Figure 22 story).
package main

import (
	"fmt"
	"log"

	"ivleague/internal/analysis"
	"ivleague/internal/config"
	"ivleague/internal/layout"
	"ivleague/internal/secmem"
)

func main() {
	cfg := config.Default()
	cfg.DRAM.SizeBytes = 2 << 30
	cfg.IvLeague.TreeLingCount = 256

	mem, err := secmem.New(&cfg, config.SchemeIvLeagueBasic, 0)
	if err != nil {
		log.Fatal(err)
	}

	// Eight domains; domain 1 takes ~70% of the allocated memory and the
	// others share the rest (skewness ≈ 0.7).
	const domains = 8
	pagesOf := map[int]uint64{1: 70000}
	for d := 2; d <= domains; d++ {
		pagesOf[d] = 3500
	}
	var now uint64
	pfn := layout.PFN(0)
	for d := 1; d <= domains; d++ {
		if err := mem.CreateDomain(d); err != nil {
			log.Fatal(err)
		}
		for v := uint64(0); v < pagesOf[d]; v++ {
			if _, err := mem.OnPageMap(now, d, layout.VPN(v), pfn); err != nil {
				log.Fatalf("domain %d page %d: %v", d, v, err)
			}
			pfn++
		}
	}
	ivc := mem.IvLeague()
	fmt.Println("domain  pages   TreeLings")
	for d := 1; d <= domains; d++ {
		fmt.Printf("%4d  %7d  %6d\n", d, pagesOf[d], len(ivc.TreeLingsOf(d)))
	}
	util, untracked := ivc.Utilization()
	fmt.Printf("TreeLings free: %d of %d; slot utilization %.5f%%, untracked slots %d\n",
		ivc.FreeTreeLings(), cfg.IvLeague.TreeLingCount, util*100, untracked)

	// Domain churn: destroy a domain and watch its TreeLings recycle.
	before := ivc.FreeTreeLings()
	if err := mem.DestroyDomain(3); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("destroyed domain 3: free TreeLings %d -> %d\n", before, ivc.FreeTreeLings())

	// The same distribution under static partitioning: each of 8 domains
	// owns 1/8 of memory; domain 1 needs 60000 pages > 65536/8-partition…
	partPages := cfg.TotalPages() / domains
	fmt.Printf("\nstatic partitioning: per-domain partition %d pages; domain 1 needs %d -> %s\n",
		partPages, pagesOf[1], verdict(pagesOf[1] <= partPages))

	// And the analytical Figure 22 view of the same story.
	s, iv := analysis.SuccessRates(analysis.ScalabilityConfig{
		TreeLingBytes: cfg.TreeLingBytes(),
		Utilization:   0.6,
		Domains:       domains,
		MemoryBytes:   cfg.DRAM.SizeBytes,
		Trials:        2000,
		Seed:          7,
	})
	fmt.Printf("Monte-Carlo (60%% utilization, random skew): static succeeds %.0f%%, IvLeague %.0f%%\n",
		s*100, iv*100)
}

func verdict(ok bool) string {
	if ok {
		return "fits"
	}
	return "FAILS (swap or reject)"
}
