// Hotpages: IvLeague-Pro's hotpage acceleration in action.
//
// A domain hammers a small set of pages against a cold background; the
// memory controller's region tracker spots them and migrates them into
// the reserved τhot region near the TreeLing root, shortening their
// verification paths.
package main

import (
	"fmt"
	"log"

	"ivleague/internal/config"
	"ivleague/internal/layout"
	"ivleague/internal/secmem"
)

func main() {
	cfg := config.Default()
	cfg.DRAM.SizeBytes = 1 << 30
	cfg.IvLeague.TreeLingCount = 128
	cfg.IvLeague.HotThreshold = 4

	mem, err := secmem.New(&cfg, config.SchemeIvLeaguePro, 0)
	if err != nil {
		log.Fatal(err)
	}
	if err := mem.CreateDomain(1); err != nil {
		log.Fatal(err)
	}

	// Map 4096 pages; pages 0..31 will be the hot set.
	const pages = 4096
	var now uint64
	for v := uint64(0); v < pages; v++ {
		if _, err := mem.OnPageMap(now, 1, layout.VPN(v), layout.PFN(v)); err != nil {
			log.Fatal(err)
		}
	}
	ivc := mem.IvLeague()
	hotSlotBefore, _ := mem.SlotOf(5)
	fmt.Printf("page 5 initially verified by %v (τhot? %v)\n",
		hotSlotBefore, ivc.IsHotSlot(hotSlotBefore))

	// Access pattern: hot pages interleaved with a cold sweep. Evictions
	// keep the hot pages missing on-chip caches, so the memory controller
	// sees (and counts) them.
	cold := uint64(32)
	for i := 0; i < 40000; i++ {
		var v uint64
		if i%2 == 0 {
			v = uint64(i/2) % 32 // hot set
		} else {
			v = cold
			cold++
			if cold >= pages {
				cold = 32
			}
		}
		mem.FlushMetadata() // keep the demo deterministic and cache-cold
		res, err := mem.Do(secmem.AccessRequest{
			Now: now, Domain: 1, VPN: layout.VPN(v), PFN: layout.PFN(v),
		})
		if err != nil {
			log.Fatal(err)
		}
		now += uint64(res.Latency)
		if ivc.Migrations.Value() > 0 && i > 2000 {
			break
		}
	}

	fmt.Printf("migrations to τhot: %d (back: %d), τhot residents: %d\n",
		ivc.Migrations.Value(), ivc.MigrationsBack.Value(), ivc.HotResident(1))
	slotAfter, _ := mem.SlotOf(5)
	fmt.Printf("page 5 now verified by %v (τhot? %v)\n", slotAfter, ivc.IsHotSlot(slotAfter))

	// Compare verification path lengths: hot page vs cold page, with
	// cold metadata caches.
	pathLen := func(v uint64) int {
		mem.FlushMetadata()
		delete(mem.PathLen, 1) // measure this one walk only
		if _, err := mem.Do(secmem.AccessRequest{
			Now: now, Domain: 1, VPN: layout.VPN(v), PFN: layout.PFN(v),
		}); err != nil {
			log.Fatal(err)
		}
		return int(mem.PathLen[1].Mean())
	}
	fmt.Printf("cold-cache verification path: hot page %d node reads, cold page %d node reads\n",
		pathLen(5), pathLen(2000))
}
