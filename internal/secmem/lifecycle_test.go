package secmem

import (
	"testing"

	"ivleague/internal/config"
	"ivleague/internal/layout"
)

// TestDomainLifecycleRecyclesSafely exercises the runtime construction and
// destruction of IV domains (design requirement i of Section V): TreeLings
// recycled from a destroyed domain must be reusable by a new domain with
// no residual integrity state (otherwise cross-domain replay would become
// possible).
func TestDomainLifecycleRecyclesSafely(t *testing.T) {
	cfg := testCfg()
	c, err := New(&cfg, config.SchemeIvLeagueBasic, 0, WithFunctional())
	if err != nil {
		t.Fatal(err)
	}
	ivc := c.IvLeague()
	free0 := ivc.FreeTreeLings()
	for gen := 0; gen < 5; gen++ {
		dom := 10 + gen
		if err := c.CreateDomain(dom); err != nil {
			t.Fatal(err)
		}
		// Map pages, write secrets, verify.
		for p := uint64(0); p < 50; p++ {
			pfn := uint64(gen*50) + p
			if _, err := c.OnPageMap(0, dom, layout.VPN(p), layout.PFN(pfn)); err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, 64)
			buf[0] = byte(gen)
			if _, err := c.WriteBlock(AccessRequest{Domain: dom, VPN: layout.VPN(p), PFN: layout.PFN(pfn)}, buf); err != nil {
				t.Fatal(err)
			}
		}
		c.FlushMetadata()
		for p := uint64(0); p < 50; p++ {
			pfn := uint64(gen*50) + p
			got, err := readBlock(c, AccessRequest{Domain: dom, VPN: layout.VPN(p), PFN: layout.PFN(pfn)})
			if err != nil {
				t.Fatalf("gen %d page %d: %v", gen, p, err)
			}
			if got[0] != byte(gen) {
				t.Fatalf("gen %d page %d: stale data %d", gen, p, got[0])
			}
			// Unmap before destroying the domain (OS teardown order).
			c.OnPageUnmap(0, dom, layout.VPN(p), layout.PFN(pfn))
		}
		if err := c.DestroyDomain(dom); err != nil {
			t.Fatal(err)
		}
		if got := ivc.FreeTreeLings(); got != free0 {
			t.Fatalf("gen %d: %d TreeLings free, want %d (leak)", gen, got, free0)
		}
	}
}

// TestRecycledTreeLingHasCleanState verifies that a TreeLing recycled to a
// new domain carries no forest state from its previous owner.
func TestRecycledTreeLingHasCleanState(t *testing.T) {
	cfg := testCfg()
	c, err := New(&cfg, config.SchemeIvLeagueBasic, 0, WithFunctional())
	if err != nil {
		t.Fatal(err)
	}
	c.CreateDomain(1)
	if _, err := c.OnPageMap(0, 1, 0, 0); err != nil {
		t.Fatal(err)
	}
	c.WriteBlock(AccessRequest{Domain: 1}, make([]byte, 64))
	slot1, _ := c.SlotOf(0)
	tl := slot1.TreeLing()
	c.OnPageUnmap(0, 1, 0, 0)
	if err := c.DestroyDomain(1); err != nil {
		t.Fatal(err)
	}
	// The forest must have no residue for that TreeLing.
	if c.Forest().Root(tl) != 0 {
		t.Fatal("recycled TreeLing kept a root hash")
	}
	// A new domain adopting the same TreeLing starts clean.
	c.CreateDomain(2)
	if _, err := c.OnPageMap(0, 2, 9, 9); err != nil {
		t.Fatal(err)
	}
	slot2, _ := c.SlotOf(9)
	if slot2.TreeLing() != tl {
		t.Skipf("FIFO handed a different TreeLing (%d), recycling covered elsewhere", slot2.TreeLing())
	}
	c.FlushMetadata()
	if _, err := c.Do(AccessRequest{Domain: 2, VPN: 9, PFN: 9}); err != nil {
		t.Fatalf("fresh domain failed verification on recycled TreeLing: %v", err)
	}
}

// TestDynamicRootLockRuns exercises the Section VIII dynamic-locking
// alternative end to end.
func TestDynamicRootLockRuns(t *testing.T) {
	cfg := testCfg()
	cfg.IvLeague.DynamicRootLock = true
	c, err := New(&cfg, config.SchemeIvLeaguePro, 0, WithFunctional())
	if err != nil {
		t.Fatal(err)
	}
	c.CreateDomain(1)
	if _, err := c.OnPageMap(0, 1, 1, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.WriteBlock(AccessRequest{Domain: 1, VPN: 1, PFN: 1}, make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	c.FlushMetadata()
	if _, err := readBlock(c, AccessRequest{Domain: 1, VPN: 1, PFN: 1}); err != nil {
		t.Fatal(err)
	}
}

// TestRemapReadsAsNeverWritten: unmapping a page drops its encryption
// counters, so the retained ciphertext would be undecryptable garbage —
// the data plane must drop it too, and a re-mapped frame reads as
// never-written zeros instead of failing the MAC check on stale blocks.
// Found by the model checker (map, write, unmap, map, read).
func TestRemapReadsAsNeverWritten(t *testing.T) {
	cfg := testCfg()
	c, err := New(&cfg, config.SchemeIvLeagueBasic, 0, WithFunctional())
	if err != nil {
		t.Fatal(err)
	}
	const dom, vpn, pfn = 7, 3, 12
	if err := c.CreateDomain(dom); err != nil {
		t.Fatal(err)
	}
	if _, err := c.OnPageMap(0, dom, vpn, pfn); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	for i := range buf {
		buf[i] = 0xA5
	}
	if _, err := c.WriteBlock(AccessRequest{Domain: dom, VPN: layout.VPN(vpn), PFN: layout.PFN(pfn)}, buf); err != nil {
		t.Fatal(err)
	}
	if _, err := c.OnPageUnmap(0, dom, vpn, pfn); err != nil {
		t.Fatal(err)
	}
	if _, err := c.OnPageMap(0, dom, vpn, pfn); err != nil {
		t.Fatal(err)
	}
	c.FlushMetadata()
	got, err := readBlock(c, AccessRequest{Domain: dom, VPN: layout.VPN(vpn), PFN: layout.PFN(pfn)})
	if err != nil {
		t.Fatalf("read after remap: %v", err)
	}
	for i, b := range got {
		if b != 0 {
			t.Fatalf("byte %d of remapped page is stale (%#x), want zero", i, b)
		}
	}
}
