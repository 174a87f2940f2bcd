package secmem

import (
	"errors"
	"fmt"
	"testing"

	"ivleague/internal/config"
	"ivleague/internal/core"
	"ivleague/internal/layout"
	"ivleague/internal/telemetry"
)

func testCfg() config.Config {
	cfg := config.Default()
	cfg.DRAM.SizeBytes = 256 << 20
	cfg.IvLeague.TreeLingCount = 32
	return cfg
}

var allSchemes = []config.Scheme{
	config.SchemeBaseline,
	config.SchemeStaticPartition,
	config.SchemeIvLeagueBasic,
	config.SchemeIvLeagueInvert,
	config.SchemeIvLeaguePro,
}

func newCtl(t *testing.T, scheme config.Scheme, functional bool) *Controller {
	t.Helper()
	cfg := testCfg()
	var opts []Option
	if functional {
		opts = append(opts, WithFunctional())
	}
	c, err := New(&cfg, scheme, 8, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// mapPage is a test helper doing the OS+hardware page-mapping dance.
func mapPage(t *testing.T, c *Controller, domain int, vpn, pfn uint64) {
	t.Helper()
	if _, err := c.OnPageMap(0, domain, layout.VPN(vpn), layout.PFN(pfn)); err != nil {
		t.Fatalf("OnPageMap: %v", err)
	}
}

// readBlock is ReadBlock into a fresh buffer.
func readBlock(c *Controller, req AccessRequest) ([]byte, error) {
	dst := make([]byte, config.BlockBytes)
	_, err := c.ReadBlock(req, dst)
	return dst, err
}

func TestReadWriteRoundTripAllSchemes(t *testing.T) {
	for _, scheme := range allSchemes {
		t.Run(scheme.String(), func(t *testing.T) {
			c := newCtl(t, scheme, true)
			if err := c.CreateDomain(1); err != nil {
				t.Fatal(err)
			}
			mapPage(t, c, 1, 100, 100)
			msg := make([]byte, 64)
			copy(msg, []byte("attack at dawn"))
			if _, err := c.WriteBlock(AccessRequest{Now: 1, Domain: 1, VPN: 100, PFN: 100, Block: 3}, msg); err != nil {
				t.Fatal(err)
			}
			got, err := readBlock(c, AccessRequest{Now: 2, Domain: 1, VPN: 100, PFN: 100, Block: 3})
			if err != nil {
				t.Fatal(err)
			}
			if string(got[:14]) != "attack at dawn" {
				t.Fatalf("round trip corrupted: %q", got[:14])
			}
			// Unwritten block reads as zeros.
			z, err := readBlock(c, AccessRequest{Now: 3, Domain: 1, VPN: 100, PFN: 100, Block: 4})
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range z {
				if b != 0 {
					t.Fatal("unwritten block not zero")
				}
			}
		})
	}
}

func TestTamperDetectionViaMAC(t *testing.T) {
	for _, scheme := range allSchemes {
		c := newCtl(t, scheme, true)
		c.CreateDomain(1)
		mapPage(t, c, 1, 5, 5)
		c.WriteBlock(AccessRequest{Now: 1, Domain: 1, VPN: 5, PFN: 5}, make([]byte, 64))
		if err := c.FlipDataBit(5, 0, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := readBlock(c, AccessRequest{Now: 2, Domain: 1, VPN: 5, PFN: 5}); !errors.Is(err, ErrMACMismatch) {
			t.Fatalf("%v: corrupted data read returned %v", scheme, err)
		}
	}
}

func TestReplayDetectionViaTree(t *testing.T) {
	for _, scheme := range allSchemes {
		c := newCtl(t, scheme, true)
		c.CreateDomain(1)
		mapPage(t, c, 1, 7, 7)
		old := make([]byte, 64)
		copy(old, []byte("balance=1000000"))
		c.WriteBlock(AccessRequest{Now: 1, Domain: 1, VPN: 7, PFN: 7, Block: 2}, old)
		snap, err := c.SnapshotBlock(7, 2)
		if err != nil {
			t.Fatal(err)
		}
		fresh := make([]byte, 64)
		copy(fresh, []byte("balance=0"))
		c.WriteBlock(AccessRequest{Now: 2, Domain: 1, VPN: 7, PFN: 7, Block: 2}, fresh)
		// Replay the stale triple and force re-verification from memory.
		c.ReplayBlock(snap)
		c.FlushMetadata()
		if _, err := readBlock(c, AccessRequest{Now: 3, Domain: 1, VPN: 7, PFN: 7, Block: 2}); err == nil {
			t.Fatalf("%v: replayed block verified — freshness broken", scheme)
		}
		if c.TamperEvents.Value() == 0 {
			t.Fatalf("%v: tamper event not counted", scheme)
		}
	}
}

func TestVerificationWalkStopsAtCachedNode(t *testing.T) {
	c := newCtl(t, config.SchemeBaseline, false)
	c.CreateDomain(1)
	mapPage(t, c, 1, 9, 9)
	// First read: cold caches → some path read from memory.
	c.Do(AccessRequest{Domain: 1, VPN: 9, PFN: 9})
	before := c.Verifications.Value()
	accBefore := c.dram.Reads.Value()
	// Second read: counter cached → no verification at all.
	c.Do(AccessRequest{Now: 100, Domain: 1, VPN: 9, PFN: 9})
	if c.Verifications.Value() != before {
		t.Fatal("cached counter still triggered verification")
	}
	if c.dram.Reads.Value() != accBefore+1 { // only the data block
		t.Fatalf("unexpected memory reads: %d -> %d", accBefore, c.dram.Reads.Value())
	}
}

func TestPathLengthShorterForIvLeagueSmallFootprint(t *testing.T) {
	// For a small footprint, Invert should verify with a shorter path
	// than Basic, which should not exceed Baseline+1 (the extra level).
	mean := func(scheme config.Scheme) float64 {
		c := newCtl(t, scheme, false)
		c.CreateDomain(1)
		for p := uint64(0); p < 64; p++ {
			mapPage(t, c, 1, p, p)
		}
		now := uint64(0)
		// Touch pages round-robin with cold metadata caches each round.
		for round := 0; round < 10; round++ {
			c.FlushMetadata()
			for p := uint64(0); p < 64; p++ {
				res, err := c.Do(AccessRequest{Now: now, Domain: 1, VPN: layout.VPN(p), PFN: layout.PFN(p)})
				if err != nil {
					t.Fatal(err)
				}
				now += uint64(res.Latency)
			}
		}
		return c.PathLen[1].Mean()
	}
	basic := mean(config.SchemeIvLeagueBasic)
	invert := mean(config.SchemeIvLeagueInvert)
	if invert >= basic {
		t.Fatalf("Invert path %v not shorter than Basic %v", invert, basic)
	}
}

func TestMetadataIsolationIvLeague(t *testing.T) {
	// The security core: two domains must never touch a common tree node
	// block in memory. Collect the verification-path addresses of each
	// domain's pages and assert disjointness.
	c := newCtl(t, config.SchemeIvLeagueBasic, false)
	c.CreateDomain(1)
	c.CreateDomain(2)
	touched := map[int]map[uint64]bool{1: {}, 2: {}}
	for p := uint64(0); p < 200; p++ {
		dom := 1 + int(p%2)
		mapPage(t, c, dom, p, p)
		path, err := c.PathAddrs(layout.PFN(p))
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range path {
			touched[dom][a] = true
		}
	}
	for a := range touched[1] {
		if touched[2][a] {
			t.Fatalf("tree node %#x shared between domains", a)
		}
	}
}

func TestBaselineSharesMetadataAcrossDomains(t *testing.T) {
	// The vulnerability: under the global tree, adjacent frames mapped
	// into two domains share their leaf node.
	c := newCtl(t, config.SchemeBaseline, false)
	c.CreateDomain(1)
	c.CreateDomain(2)
	mapPage(t, c, 1, 0, 16)
	mapPage(t, c, 2, 0, 17)
	a, err := c.PathAddrs(16)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.PathAddrs(17)
	if err != nil {
		t.Fatal(err)
	}
	if a[0] != b[0] {
		t.Fatalf("adjacent frames in two domains verify through leaf nodes %#x and %#x, want one shared node", a[0], b[0])
	}
}

func TestStaticPartitionRange(t *testing.T) {
	c := newCtl(t, config.SchemeStaticPartition, false)
	c.CreateDomain(1)
	c.CreateDomain(2)
	lo1, hi1 := c.PartitionRange(1)
	lo2, hi2 := c.PartitionRange(2)
	if hi1 <= lo1 || hi2 <= lo2 {
		t.Fatal("empty partition")
	}
	if !(hi1 <= lo2 || hi2 <= lo1) {
		t.Fatal("partitions overlap")
	}
	// A page outside the partition incurs a swap penalty.
	lat, err := c.OnPageMap(0, 1, 0, lo2)
	if err != nil {
		t.Fatal(err)
	}
	if lat == 0 || c.SwapPenalties.Value() != 1 {
		t.Fatal("swap penalty not charged")
	}
}

func TestStaticPartitionDomainLimit(t *testing.T) {
	cfg := testCfg()
	c, err := New(&cfg, config.SchemeStaticPartition, 2)
	if err != nil {
		t.Fatal(err)
	}
	c.CreateDomain(1)
	c.CreateDomain(2)
	if err := c.CreateDomain(3); err == nil {
		t.Fatal("third domain accepted with two partitions")
	}
}

func TestStaticPartitionRejectsBadCount(t *testing.T) {
	cfg := testCfg()
	if _, err := New(&cfg, config.SchemeStaticPartition, 3); err == nil {
		t.Fatal("non-power-of-two partitions accepted")
	}
}

// TestStaticPartitionPathsDisjoint requires that no two domains' walks
// share a node block on the test geometry, whose 8,192-page partitions
// are not a power of the arity: a level-5 node covers four partitions, so
// the walks must end at level 4.
func TestStaticPartitionPathsDisjoint(t *testing.T) {
	c := newCtl(t, config.SchemeStaticPartition, false)
	owner := map[uint64]int{}
	for dom := 1; dom <= 8; dom++ {
		if err := c.CreateDomain(dom); err != nil {
			t.Fatal(err)
		}
		lo, hi := c.PartitionRange(dom)
		for _, pfn := range []layout.PFN{lo, lo + 1, (lo + hi) / 2, hi - 1} {
			addrs, err := c.PathAddrs(pfn)
			if err != nil {
				t.Fatal(err)
			}
			for _, a := range addrs {
				if d, ok := owner[a]; ok && d != dom {
					t.Fatalf("domains %d and %d both verify through node block %#x (pfn %d)", d, dom, a, uint64(pfn))
				}
				owner[a] = dom
			}
		}
	}
}

func TestStaticPartitionRejectsPartitionBelowOneLeafNode(t *testing.T) {
	cfg := testCfg()
	parts := int(cfg.TotalPages()) / cfg.SecureMem.TreeArity
	if _, err := New(&cfg, config.SchemeStaticPartition, parts); err != nil {
		t.Fatalf("%d partitions of one level-1 node each: %v", parts, err)
	}
	if _, err := New(&cfg, config.SchemeStaticPartition, 2*parts); err == nil {
		t.Fatalf("%d partitions of half a level-1 node accepted", 2*parts)
	}
}

func TestUnmapReleasesSlot(t *testing.T) {
	c := newCtl(t, config.SchemeIvLeagueBasic, false)
	c.CreateDomain(1)
	mapPage(t, c, 1, 3, 3)
	s1, ok := c.SlotOf(3)
	if !ok {
		t.Fatal("no slot after map")
	}
	c.OnPageUnmap(0, 1, 3, 3)
	if _, ok := c.SlotOf(3); ok {
		t.Fatal("slot survives unmap")
	}
	mapPage(t, c, 1, 4, 4)
	s2, _ := c.SlotOf(4)
	if s2 != s1 {
		t.Fatalf("freed slot not reused: %v vs %v", s1, s2)
	}
}

// Owner reads a frame's owner from the page metadata, and only while the
// frame is mapped: a never-mapped frame, an unmapped one and one whose map
// the scheme rejected all report nothing.
func TestOwner(t *testing.T) {
	cfg := config.Default()
	cfg.SecureMem.TreeArity = 2
	cfg.IvLeague.TreeLingHeight = 3 // 8 pages per TreeLing
	cfg.IvLeague.TreeLingCount = 2
	cfg.IvLeague.HotRegionLeaves = 1
	cfg.DRAM.SizeBytes = 2 * cfg.TreeLingBytes()
	c, err := New(&cfg, config.SchemeIvLeagueBasic, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := c.Owner(5); ok {
		t.Fatal("never-mapped frame reports an owner")
	}
	for dom := 1; dom <= 2; dom++ {
		if err := c.CreateDomain(dom); err != nil {
			t.Fatal(err)
		}
	}
	// Domain 2 takes one TreeLing, so domain 1 starves once it has filled
	// the other.
	mapPage(t, c, 2, 100, 0)
	pfn := layout.PFN(1)
	for ; ; pfn++ {
		if uint64(pfn) >= cfg.TotalPages() {
			t.Fatal("domain 1 mapped every frame without starving")
		}
		_, err := c.OnPageMap(0, 1, layout.VPN(pfn+10), pfn)
		if errors.Is(err, core.ErrStarvation) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if dom, vpn, ok := c.Owner(pfn); !ok || dom != 1 || vpn != layout.VPN(pfn+10) {
			t.Fatalf("Owner(%d) = (%d, %d, %v), want (1, %d, true)", pfn, dom, vpn, ok, pfn+10)
		}
	}
	if dom, vpn, ok := c.Owner(pfn); ok {
		t.Fatalf("frame %d whose map was rejected reports owner (%d, %d)", pfn, dom, vpn)
	}
	if _, err := c.OnPageUnmap(0, 1, 11, 1); err != nil {
		t.Fatal(err)
	}
	if dom, vpn, ok := c.Owner(1); ok {
		t.Fatalf("unmapped frame 1 reports owner (%d, %d)", dom, vpn)
	}
	if dom, vpn, ok := c.Owner(0); !ok || dom != 2 || vpn != 100 {
		t.Fatalf("Owner(0) = (%d, %d, %v), want (2, 100, true)", dom, vpn, ok)
	}
}

func TestAccessUnmappedPageFails(t *testing.T) {
	c := newCtl(t, config.SchemeIvLeagueBasic, false)
	c.CreateDomain(1)
	if _, err := c.Do(AccessRequest{Domain: 1, VPN: 99, PFN: 99}); err == nil {
		t.Fatal("access to unmapped page succeeded")
	}
}

func TestProMigrationUpdatesLMMTruth(t *testing.T) {
	cfg := testCfg()
	cfg.IvLeague.HotThreshold = 4
	c, err := New(&cfg, config.SchemeIvLeaguePro, 0)
	if err != nil {
		t.Fatal(err)
	}
	c.CreateDomain(1)
	mapPage(t, c, 1, 8, 8)
	now := uint64(0)
	for i := 0; i < 12; i++ {
		res, err := c.Do(AccessRequest{Now: now, Domain: 1, VPN: 8, PFN: 8})
		if err != nil {
			t.Fatal(err)
		}
		now += uint64(res.Latency)
	}
	slot, _ := c.SlotOf(8)
	if !c.IvLeague().IsHotSlot(slot) {
		t.Fatalf("hot page's LMM slot %v not in τhot after migration", slot)
	}
}

func TestInvertFunctionalAcrossConversions(t *testing.T) {
	// Write data to many pages under Invert (forcing conversions), then
	// read everything back with flushed caches: every page must verify
	// and decrypt, proving LMM resolution + hash relocation are coherent.
	c := newCtl(t, config.SchemeIvLeagueInvert, true)
	c.CreateDomain(1)
	const pages = 100
	for p := uint64(0); p < pages; p++ {
		mapPage(t, c, 1, p, p)
		buf := make([]byte, 64)
		buf[0] = byte(p)
		if _, err := c.WriteBlock(AccessRequest{Now: p, Domain: 1, VPN: layout.VPN(p), PFN: layout.PFN(p)}, buf); err != nil {
			t.Fatal(err)
		}
	}
	if c.IvLeague().Conversions.Value() == 0 {
		t.Fatal("expected conversions with 100 pages")
	}
	c.FlushMetadata()
	for p := uint64(0); p < pages; p++ {
		got, err := readBlock(c, AccessRequest{Now: 1000 + p, Domain: 1, VPN: layout.VPN(p), PFN: layout.PFN(p)})
		if err != nil {
			t.Fatalf("page %d: %v", p, err)
		}
		if got[0] != byte(p) {
			t.Fatalf("page %d: wrong data %d", p, got[0])
		}
	}
}

func TestWriteIncrementsCounterAndOverflowReencrypts(t *testing.T) {
	cfg := testCfg()
	cfg.SecureMem.MinorBits = 2 // overflow every 4 writes
	c, err := New(&cfg, config.SchemeBaseline, 0, WithFunctional())
	if err != nil {
		t.Fatal(err)
	}
	c.CreateDomain(1)
	mapPage(t, c, 1, 2, 2)
	buf := make([]byte, 64)
	for i := 0; i < 10; i++ {
		buf[0] = byte(i)
		if _, err := c.WriteBlock(AccessRequest{Now: uint64(i), Domain: 1, VPN: 2, PFN: 2}, buf); err != nil {
			t.Fatal(err)
		}
	}
	if c.Overflows.Value() == 0 {
		t.Fatal("no overflow with 2-bit minors and 10 writes")
	}
	got, err := readBlock(c, AccessRequest{Now: 100, Domain: 1, VPN: 2, PFN: 2})
	if err != nil || got[0] != 9 {
		t.Fatalf("read after overflow: %v %v", got[0], err)
	}
}

// TestTamperCounterWrapsMinor bumps a minor that sits at its maximum: the
// tamper wraps it to 0 within its field, leaves the major alone, and the
// next verified read still catches it.
func TestTamperCounterWrapsMinor(t *testing.T) {
	cfg := testCfg()
	cfg.SecureMem.MinorBits = 2
	c, err := New(&cfg, config.SchemeBaseline, 0, WithFunctional())
	if err != nil {
		t.Fatal(err)
	}
	c.CreateDomain(1)
	mapPage(t, c, 1, 2, 2)
	buf := make([]byte, 64)
	for i := 0; i < 3; i++ { // minor 0 reaches 3, the 2-bit maximum
		if _, err := c.WriteBlock(AccessRequest{Now: uint64(i), Domain: 1, VPN: 2, PFN: 2}, buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.TamperCounter(2, 0); err != nil {
		t.Fatal(err)
	}
	if blk := c.Counters().Snapshot(2); blk.Minors[0] != 0 || blk.Major != 0 {
		t.Fatalf("tampered block major %d, minor 0 = %d; want major 0, minor wrapped to 0", blk.Major, blk.Minors[0])
	}
	c.FlushMetadata()
	if _, err := readBlock(c, AccessRequest{Now: 10, Domain: 1, VPN: 2, PFN: 2}); err == nil {
		t.Fatal("wrapped counter tamper verified")
	}
	if err := c.TamperCounter(3, 0); !errors.Is(err, ErrNoTamperTarget) {
		t.Fatalf("tamper of a page without a counter block: %v, want ErrNoTamperTarget", err)
	}
}

func TestEvictMetadataPrimitive(t *testing.T) {
	c := newCtl(t, config.SchemeBaseline, false)
	c.CreateDomain(1)
	mapPage(t, c, 1, 4, 4)
	c.Do(AccessRequest{Domain: 1, VPN: 4, PFN: 4}) // loads tree nodes
	lay := c.Layout()
	addr, err := lay.GlobalNodeAddr(1, lay.GlobalNodeIndex(4, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !c.EvictMetadata(addr) {
		t.Fatal("leaf node was not cached after access")
	}
	if c.EvictMetadata(addr) {
		t.Fatal("double eviction reported present")
	}
}

func TestResetStats(t *testing.T) {
	c := newCtl(t, config.SchemeIvLeagueBasic, false)
	reg := telemetry.NewRegistry()
	c.RegisterMetrics(reg, "secmem")
	c.CreateDomain(1)
	mapPage(t, c, 1, 1, 1)
	c.Do(AccessRequest{Domain: 1, VPN: 1, PFN: 1})
	reg.Reset()
	if c.DataReads.Value() != 0 || c.dram.Reads.Value()+c.dram.Writes.Value() != 0 || len(c.PathLen) != 0 {
		t.Fatal("stats not reset")
	}
	// State survives: the page still reads fine.
	if _, err := c.Do(AccessRequest{Now: 10, Domain: 1, VPN: 1, PFN: 1}); err != nil {
		t.Fatal(err)
	}
}

func TestSlotIDInvalidForBaseline(t *testing.T) {
	c := newCtl(t, config.SchemeBaseline, false)
	c.CreateDomain(1)
	mapPage(t, c, 1, 1, 1)
	if _, ok := c.SlotOf(1); ok {
		// Baseline never assigns TreeLing slots.
		t.Fatal("baseline assigned a slot")
	}
	_ = core.InvalidSlot
}

// statsFingerprint reads every statistics accessor the controller and its
// subsystems expose, keyed by name so an equivalence failure names the
// stale counter.
func statsFingerprint(c *Controller) map[string]uint64 {
	fp := map[string]uint64{
		"secmem.DataReads":      c.DataReads.Value(),
		"secmem.DataWrites":     c.DataWrites.Value(),
		"secmem.Verifications":  c.Verifications.Value(),
		"secmem.Overflows":      c.Overflows.Value(),
		"secmem.SwapPenalties":  c.SwapPenalties.Value(),
		"secmem.TamperEvents":   c.TamperEvents.Value(),
		"secmem.PathLenDomains": uint64(len(c.PathLen)),
		"dram.Reads":            c.dram.Reads.Value(),
		"dram.Writes":           c.dram.Writes.Value(),
		"dram.RowHits":          c.dram.RowHits.Value(),
		"dram.RowMisses":        c.dram.RowMisses.Value(),
		"dram.TotalLatency":     c.dram.TotalLatency.Value(),
		"ctrCache.Hits":         c.counterCache.Hits.Value(),
		"ctrCache.Misses":       c.counterCache.Misses.Value(),
		"ctrCache.Evictions":    c.counterCache.Evictions.Value(),
		"treeCache.Hits":        c.treeCache.Hits.Value(),
		"treeCache.Misses":      c.treeCache.Misses.Value(),
		"treeCache.Evictions":   c.treeCache.Evictions.Value(),
		"ctr.Increments":        c.counters.Increments.Value(),
		"ctr.Overflows":         c.counters.Overflows.Value(),
	}
	if c.lmm != nil {
		s := c.lmm.Stats()
		fp["lmm.Hits"] = s.Hits.Value()
		fp["lmm.Misses"] = s.Misses.Value()
		fp["lmm.Evictions"] = s.Evictions.Value()
	}
	if c.ivc != nil {
		fp["core.Assignments"] = c.ivc.Assignments.Value()
		fp["core.Untracked"] = c.ivc.Untracked.Value()
		fp["core.Conversions"] = c.ivc.Conversions.Value()
		fp["core.Migrations"] = c.ivc.Migrations.Value()
		fp["core.MigrationsBack"] = c.ivc.MigrationsBack.Value()
		fp["core.AllocFailures"] = c.ivc.AllocFailures.Value()
		for _, id := range c.ivc.DomainIDs() {
			nflb := c.ivc.NFLBOf(id)
			fp[fmt.Sprintf("core.nflb[%d].Hits", id)] = nflb.Hits.Value()
			fp[fmt.Sprintf("core.nflb[%d].Misses", id)] = nflb.Misses.Value()
		}
	}
	return fp
}

// TestResetStatsEquivalentToFresh is the end-of-warmup contract: after
// Registry.Reset, every statistic must read as on a freshly constructed
// controller — zero. statsFingerprint reads the counter fields directly,
// so a counter added to a subsystem without being registered (or, if
// sampled, reset by its owner's hook) fails here by name, for every
// scheme.
func TestResetStatsEquivalentToFresh(t *testing.T) {
	for _, scheme := range allSchemes {
		t.Run(scheme.String(), func(t *testing.T) {
			for name, v := range statsFingerprint(newCtl(t, scheme, false)) {
				if v != 0 {
					t.Fatalf("fresh controller has %s = %d; the fingerprint must only cover stats", name, v)
				}
			}
			c := newCtl(t, scheme, false)
			reg := telemetry.NewRegistry()
			c.RegisterMetrics(reg, "secmem")
			for dom := 1; dom <= 2; dom++ {
				if err := c.CreateDomain(dom); err != nil {
					t.Fatal(err)
				}
				lo, _ := c.PartitionRange(dom)
				for v := uint64(0); v < 6; v++ {
					pfn := uint64(lo) + uint64(dom-1) + 2*v // disjoint across domains
					mapPage(t, c, dom, v, pfn)
					if _, err := c.Do(AccessRequest{Now: v, Domain: dom, VPN: layout.VPN(v), PFN: layout.PFN(pfn), Write: true}); err != nil {
						t.Fatal(err)
					}
					if _, err := c.Do(AccessRequest{Now: v + 100, Domain: dom, VPN: layout.VPN(v), PFN: layout.PFN(pfn)}); err != nil {
						t.Fatal(err)
					}
				}
			}
			c.FlushMetadata() // force re-verification traffic on the next reads
			for dom := 1; dom <= 2; dom++ {
				lo, _ := c.PartitionRange(dom)
				if _, err := c.Do(AccessRequest{Now: 500, Domain: dom, PFN: lo + layout.PFN(dom-1)}); err != nil {
					t.Fatal(err)
				}
			}
			dirty := 0
			for name, v := range statsFingerprint(c) {
				_ = name
				if v != 0 {
					dirty++
				}
			}
			if dirty < 8 {
				t.Fatalf("traffic touched only %d stats; the fingerprint is too weak", dirty)
			}
			reg.Reset()
			for name, v := range statsFingerprint(c) {
				if v != 0 {
					t.Errorf("%v: %s = %d after Registry.Reset, want 0 (fresh-construction equivalence)", scheme, name, v)
				}
			}
		})
	}
}
