package secmem

import (
	"testing"

	"ivleague/internal/config"
	"ivleague/internal/layout"
	"ivleague/internal/telemetry"
)

// access drives one timing-path access, which on a counter-cache miss
// performs the verification walk the audit observes.
func access(t *testing.T, c *Controller, domain int, vpn, pfn uint64) {
	t.Helper()
	if _, err := c.Do(AccessRequest{Domain: domain, VPN: layout.VPN(vpn), PFN: layout.PFN(pfn)}); err != nil {
		t.Fatalf("Do: %v", err)
	}
}

func TestAuditIvLeagueIsolatedController(t *testing.T) {
	c := newCtl(t, config.SchemeIvLeagueBasic, false)
	audit := telemetry.NewAudit()
	c.SetAudit(audit)
	c.CreateDomain(1)
	c.CreateDomain(2)
	for p := uint64(0); p < 128; p++ {
		dom := 1 + int(p%2)
		mapPage(t, c, dom, p, p)
		access(t, c, dom, p, p)
	}
	rep := audit.Report()
	if rep.TotalTouches == 0 {
		t.Fatal("audit recorded nothing")
	}
	if !rep.Isolated() {
		t.Fatalf("IvLeague-Basic shares metadata: %+v, keys %v",
			rep, audit.SharedKeys()[:min(5, len(audit.SharedKeys()))])
	}
}

func TestAuditBaselineShares(t *testing.T) {
	c := newCtl(t, config.SchemeBaseline, false)
	audit := telemetry.NewAudit()
	c.SetAudit(audit)
	c.CreateDomain(1)
	c.CreateDomain(2)
	// Adjacent pfns share their leaf node under the global tree (the
	// existing layout test pins this for 16/17).
	mapPage(t, c, 1, 16, 16)
	mapPage(t, c, 2, 17, 17)
	access(t, c, 1, 16, 16)
	access(t, c, 2, 17, 17)
	rep := audit.Report()
	if rep.Isolated() {
		t.Fatalf("global tree audit reported isolated: %+v", rep)
	}
	for _, k := range audit.SharedKeys() {
		if k.TreeLing != telemetry.GlobalTreeLing {
			t.Fatalf("shared node outside the global tree: %+v", k)
		}
	}
}

// TestAuditStaticPartitionOverflow is the paper's static-scheme weakness
// made measurable. With every page inside its own partition nothing is
// shared, even though a partition of the test geometry (8,192 pages) is
// not an arity-aligned subtree: each walk ends at a node inside its own
// partition. A swapped page (partition overflow) then shares the foreign
// partition's tree levels below the partition roots.
func TestAuditStaticPartitionOverflow(t *testing.T) {
	c := newCtl(t, config.SchemeStaticPartition, false)
	audit := telemetry.NewAudit()
	c.SetAudit(audit)
	c.CreateDomain(1)
	c.CreateDomain(2)
	lo1, _ := c.PartitionRange(1)
	lo2, _ := c.PartitionRange(2)
	lay := c.Layout()

	// In-partition traffic shares nothing.
	mapPage(t, c, 1, 0, uint64(lo1))
	access(t, c, 1, 0, uint64(lo1))
	mapPage(t, c, 2, 0, uint64(lo2))
	access(t, c, 2, 0, uint64(lo2))
	rep := audit.Report()
	if !rep.Isolated() {
		t.Fatalf("in-partition accesses shared metadata: %+v keys %v", rep, audit.SharedKeys())
	}

	// Overflow: domain 1 gets a frame inside partition 2 (the OS could
	// not honour the partition; secmem charges a swap penalty). Its walk
	// must now touch partition-2 tree nodes below the root level.
	over := lo2 + 1
	if lay.GlobalNodeIndex(lo2, 1) != lay.GlobalNodeIndex(over, 1) {
		t.Fatal("test pfns should share a leaf node")
	}
	swapsBefore := c.SwapPenalties.Value()
	mapPage(t, c, 1, 9, uint64(over))
	if c.SwapPenalties.Value() == swapsBefore {
		t.Fatal("overflow mapping did not charge a swap penalty")
	}
	access(t, c, 1, 9, uint64(over))

	rep = audit.Report()
	deep := false
	for _, k := range audit.SharedKeys() {
		if k.TreeLing != telemetry.GlobalTreeLing {
			t.Fatalf("shared node outside the global tree: %+v", k)
		}
		if k.Level < c.partLevel {
			deep = true
		}
	}
	if !deep {
		t.Fatalf("overflow did not share nodes below the partition root: %+v keys %v",
			rep, audit.SharedKeys())
	}
}

// TestAuditCoversNFLBlocks: IvLeague page maps consume NFL blocks, which
// are per-TreeLing metadata the audit must attribute (level LevelNFL)
// alongside the tree nodes the accesses walk.
func TestAuditCoversNFLBlocks(t *testing.T) {
	c := newCtl(t, config.SchemeIvLeagueBasic, false)
	audit := telemetry.NewAudit()
	c.SetAudit(audit)
	c.CreateDomain(1)
	for p := uint64(0); p < 64; p++ {
		mapPage(t, c, 1, p, p)
		access(t, c, 1, p, p)
	}
	levels := map[int]uint64{}
	for _, rec := range audit.Export() {
		levels[rec.Key.Level] += rec.Count
	}
	if levels[telemetry.LevelNFL] == 0 {
		t.Fatalf("no NFL-block touches recorded (levels: %v)", levels)
	}
	if levels[1] == 0 {
		t.Fatalf("no leaf-level tree touches recorded (levels: %v)", levels)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
