// Quickstart: the IvLeague secure-memory library in five minutes.
//
// It builds a functional IvLeague-Pro controller, creates two isolated IV
// domains, writes and reads protected data, and then demonstrates the
// three attacks the architecture defeats: data tampering (MAC), replay
// (integrity tree), and metadata side channels (isolated TreeLings).
package main

import (
	"fmt"
	"log"
	"slices"

	"ivleague/internal/config"
	"ivleague/internal/secmem"
)

func main() {
	cfg := config.Default()
	cfg.DRAM.SizeBytes = 1 << 30 // 1 GiB machine for the demo
	cfg.IvLeague.TreeLingCount = 128

	mem, err := secmem.New(&cfg, config.SchemeIvLeaguePro, 0, secmem.WithFunctional())
	if err != nil {
		log.Fatal(err)
	}

	// Two mutually distrusting domains (enclaves).
	for _, d := range []int{1, 2} {
		if err := mem.CreateDomain(d); err != nil {
			log.Fatal(err)
		}
	}

	// Map a page into domain 1 (the OS picks the frame; the hardware
	// assigns a TreeLing slot and installs the LMM entry).
	var now uint64
	const (
		dom = 1
		vpn = 0x42
		pfn = 1000
	)
	if _, err := mem.OnPageMap(now, dom, vpn, pfn); err != nil {
		log.Fatal(err)
	}
	slot, _ := mem.SlotOf(pfn)
	fmt.Printf("page mapped: domain %d vpn %#x -> pfn %d, verified by %v\n", dom, vpn, pfn, slot)

	// Protected write + read.
	secret := make([]byte, 64)
	copy(secret, []byte("the launch code is 00000000"))
	req := secmem.AccessRequest{Now: now, Domain: dom, VPN: vpn, PFN: pfn}
	res, err := mem.WriteBlock(req, secret)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("secure write: %d cycles (encrypt, MAC, counter bump, tree update)\n", res.Latency)

	got := make([]byte, config.BlockBytes)
	res, err = mem.ReadBlock(req, got)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("secure read:  %d cycles -> %q\n", res.Latency, got[:27])

	// Attack 1: flip a ciphertext bit in "off-chip memory".
	if err := mem.FlipDataBit(pfn, 0, 0); err != nil {
		log.Fatal(err)
	}
	if _, err := mem.ReadBlock(req, got); err != nil {
		fmt.Printf("tampering detected: %v\n", err)
	} else {
		log.Fatal("BUG: tampered data verified")
	}
	// Repair by rewriting.
	if _, err := mem.WriteBlock(req, secret); err != nil {
		log.Fatal(err)
	}

	// Attack 2: replay — restore an old, self-consistent snapshot.
	snap, err := mem.SnapshotBlock(pfn, 0)
	if err != nil {
		log.Fatal(err)
	}
	fresh := make([]byte, 64)
	copy(fresh, []byte("the launch code is 99999999"))
	if _, err := mem.WriteBlock(req, fresh); err != nil {
		log.Fatal(err)
	}
	mem.ReplayBlock(snap) // stale (ciphertext, MAC, counter) triple
	mem.FlushMetadata()   // force re-verification from memory
	if _, err := mem.ReadBlock(req, got); err != nil {
		fmt.Printf("replay detected:    %v\n", err)
	} else {
		log.Fatal("BUG: replayed data verified")
	}

	// Property 3: metadata isolation. Map a page in domain 2 and show its
	// verification path shares no tree-node block with domain 1's page.
	if _, err := mem.OnPageMap(now, 2, vpn, pfn+1); err != nil {
		log.Fatal(err)
	}
	s1, _ := mem.SlotOf(pfn)
	s2, _ := mem.SlotOf(pfn + 1)
	path1, err := mem.PathAddrs(pfn)
	if err != nil {
		log.Fatal(err)
	}
	path2, err := mem.PathAddrs(pfn + 1)
	if err != nil {
		log.Fatal(err)
	}
	shared := slices.ContainsFunc(path1, func(a uint64) bool { return slices.Contains(path2, a) })
	fmt.Printf("adjacent frames, different domains: TreeLings %d vs %d, shared tree nodes: %v\n",
		s1.TreeLing(), s2.TreeLing(), shared)
}
