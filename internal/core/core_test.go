package core

import (
	"errors"
	"testing"
	"testing/quick"

	"ivleague/internal/config"
	"ivleague/internal/layout"
	"ivleague/internal/stats"
	"ivleague/internal/tree"
)

// testConfig returns a shrunken configuration (256 MiB memory, 32
// TreeLings) so tests run fast while keeping the default geometry.
func testConfig() config.Config {
	cfg := config.Default()
	cfg.DRAM.SizeBytes = 256 << 20
	cfg.IvLeague.TreeLingCount = 32
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return cfg
}

func newCtrl(t *testing.T, mode Mode, functional bool) (*Controller, *layout.Layout) {
	t.Helper()
	cfg := testConfig()
	lay := layout.New(&cfg)
	var f *tree.Forest
	if functional {
		f = tree.NewForest(lay)
	}
	c, err := NewController(&cfg, lay, mode, f)
	if err != nil {
		t.Fatal(err)
	}
	return c, lay
}

// mustCtrl unwraps NewController's (controller, error) result.
func mustCtrl(t *testing.T) func(*Controller, error) *Controller {
	return func(c *Controller, err error) *Controller {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
}

func TestSlotIDRoundTrip(t *testing.T) {
	f := func(tl uint16, node uint16, slot uint8) bool {
		n := int(node) % (1 << 24)
		s := MakeSlot(int(tl), n, int(slot))
		return s.TreeLing() == int(tl) && s.Node() == n && s.Slot() == int(slot)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCreateDestroyDomain(t *testing.T) {
	c, _ := newCtrl(t, ModeBasic, false)
	if _, err := c.CreateDomain(1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateDomain(1); err == nil {
		t.Fatal("duplicate domain accepted")
	}
	var ops OpList
	if _, err := c.AllocPage(1, 0, &ops); err != nil {
		t.Fatal(err)
	}
	before := c.FreeTreeLings()
	if err := c.DestroyDomain(1, &ops); err != nil {
		t.Fatal(err)
	}
	if c.FreeTreeLings() != before+1 {
		t.Fatal("TreeLing not recycled on destroy")
	}
	if err := c.DestroyDomain(1, &ops); err == nil {
		t.Fatal("double destroy accepted")
	}
}

func TestBasicAllocUsesLeafLevelOnly(t *testing.T) {
	c, lay := newCtrl(t, ModeBasic, false)
	c.CreateDomain(1)
	var ops OpList
	for i := 0; i < 100; i++ {
		s, err := c.AllocPage(1, layout.PFN(i), &ops)
		if err != nil {
			t.Fatal(err)
		}
		if lay.LevelOf(s.Node()) != 1 {
			t.Fatalf("Basic allocated non-leaf node at level %d", lay.LevelOf(s.Node()))
		}
	}
	if c.MappedPages(1) != 100 {
		t.Fatalf("mapped = %d", c.MappedPages(1))
	}
}

func TestBasicAllocDistinctSlots(t *testing.T) {
	c, lay := newCtrl(t, ModeBasic, false)
	c.CreateDomain(1)
	var ops OpList
	seen := map[SlotID]bool{}
	n := lay.TreeLingPages() + 10 // force a second TreeLing
	for i := 0; i < n; i++ {
		s, err := c.AllocPage(1, layout.PFN(i), &ops)
		if err != nil {
			t.Fatal(err)
		}
		if seen[s] {
			t.Fatalf("slot %v handed out twice", s)
		}
		seen[s] = true
	}
	if got := len(c.TreeLingsOf(1)); got != 2 {
		t.Fatalf("expected 2 TreeLings, got %d", got)
	}
}

func TestFreeThenReuse(t *testing.T) {
	c, _ := newCtrl(t, ModeBasic, false)
	c.CreateDomain(1)
	var ops OpList
	s1, _ := c.AllocPage(1, 10, &ops)
	if err := c.FreePage(1, 10, s1, &ops); err != nil {
		t.Fatal(err)
	}
	s2, _ := c.AllocPage(1, 11, &ops)
	if s2 != s1 {
		t.Fatalf("freed slot not reused: freed %v, got %v", s1, s2)
	}
	if c.MappedPages(1) != 1 {
		t.Fatalf("mapped = %d", c.MappedPages(1))
	}
}

// The core NFL invariant: alloc/free sequences never hand out a slot that
// is already occupied, and (almost) never exhaust a TreeLing while free
// slots remain tracked.
func TestNFLAllocFreeInvariant(t *testing.T) {
	for _, mode := range []Mode{ModeBasic, ModeInvert, ModePro} {
		c, _ := newCtrl(t, mode, false)
		c.CreateDomain(1)
		var ops OpList
		occupied := map[SlotID]layout.PFN{}
		bySlot := map[layout.PFN]SlotID{}
		rng := uint64(12345)
		next := func(n uint64) uint64 { rng = rng*6364136223846793005 + 1442695040888963407; return (rng >> 33) % n }
		for i := uint64(0); i < 20000; i++ {
			if len(bySlot) > 0 && next(3) == 0 {
				// Free a pseudo-random mapped page.
				var pfn layout.PFN
				k := next(uint64(len(bySlot)))
				for p := range bySlot {
					if k == 0 {
						pfn = p
						break
					}
					k--
				}
				s := bySlot[pfn]
				if err := c.FreePage(1, pfn, s, &ops); err != nil {
					t.Fatal(err)
				}
				delete(occupied, s)
				delete(bySlot, pfn)
				continue
			}
			pfn := layout.PFN(i)
			s, err := c.AllocPage(1, pfn, &ops)
			if err != nil {
				t.Fatalf("mode %v: alloc failed at %d: %v", mode, i, err)
			}
			if old, dup := occupied[s]; dup {
				t.Fatalf("mode %v: slot %v double-allocated (pfns %d,%d)", mode, s, old, pfn)
			}
			occupied[s] = pfn
			bySlot[pfn] = s
			ops.Reset()
		}
		if int(c.MappedPages(1)) != len(bySlot) {
			t.Fatalf("mode %v: mapped count %d != %d", mode, c.MappedPages(1), len(bySlot))
		}
		util, _ := c.Utilization()
		if util < 0.995 {
			t.Fatalf("mode %v: utilization %v below 99.5%%", mode, util)
		}
	}
}

func TestInvertStartsAtRoot(t *testing.T) {
	c, lay := newCtrl(t, ModeInvert, false)
	c.CreateDomain(1)
	var ops OpList
	s, _ := c.AllocPage(1, 0, &ops)
	if lay.LevelOf(s.Node()) != lay.TreeLingHeight {
		t.Fatalf("first Invert allocation at level %d, want root level %d",
			lay.LevelOf(s.Node()), lay.TreeLingHeight)
	}
}

func TestInvertConversionAndResolve(t *testing.T) {
	c, lay := newCtrl(t, ModeInvert, true)
	c.CreateDomain(1)
	var ops OpList
	arity := lay.Arity
	slots := make([]SlotID, 0, arity+2)
	pfns := make([]uint64, 0, arity+2)
	// Fill the root (arity slots), then allocate more to force conversion.
	for i := 0; i < arity+2; i++ {
		s, err := c.AllocPage(1, layout.PFN(i), &ops)
		if err != nil {
			t.Fatal(err)
		}
		slots = append(slots, s)
		pfns = append(pfns, uint64(i))
	}
	if c.Conversions.Value() == 0 {
		t.Fatal("no conversions after overflowing the root")
	}
	// The first page's original slot (root slot 0) must now be a parent
	// slot, and Resolve must follow it to a deeper slot.
	if !c.IsParentSlot(1, slots[0]) {
		t.Fatalf("root slot 0 not converted: %v", slots[0])
	}
	r, changed := c.Resolve(1, slots[0])
	if !changed || r == slots[0] {
		t.Fatal("Resolve did not follow the conversion chain")
	}
	if lay.LevelOf(r.Node()) >= lay.TreeLingHeight {
		t.Fatal("resolved slot not below the root")
	}
	if !c.IsOccupied(1, r) {
		t.Fatal("resolved slot not occupied by the relocated page")
	}
	// Later pages' slots resolve to themselves.
	r2, changed2 := c.Resolve(1, slots[arity+1])
	if changed2 || r2 != slots[arity+1] {
		t.Fatal("unconverted slot should resolve to itself")
	}
}

func TestInvertEffectivePathShorterThanBasic(t *testing.T) {
	depth := func(mode Mode) float64 {
		c, lay := newCtrl(t, mode, false)
		c.CreateDomain(1)
		var ops OpList
		total := 0
		const pages = 300
		for i := 0; i < pages; i++ {
			s, err := c.AllocPage(1, layout.PFN(i), &ops)
			if err != nil {
				t.Fatal(err)
			}
			r, _ := c.Resolve(1, s)
			total += lay.TreeLingHeight - lay.LevelOf(r.Node()) + 1
		}
		return float64(total) / pages
	}
	b, iv := depth(ModeBasic), depth(ModeInvert)
	if iv >= b {
		t.Fatalf("Invert mean path %v not shorter than Basic %v", iv, b)
	}
}

func TestProMigratesHotPage(t *testing.T) {
	cfg := testConfig()
	cfg.IvLeague.HotThreshold = 4
	lay := layout.New(&cfg)
	c := mustCtrl(t)(NewController(&cfg, lay, ModePro, nil))
	c.CreateDomain(1)
	var ops OpList
	slot, err := c.AllocPage(1, 77, &ops)
	if err != nil {
		t.Fatal(err)
	}
	cur := slot
	migrated := false
	for i := 0; i < 10; i++ {
		ns, m := c.OnAccess(1, 77, cur, &ops)
		if m {
			migrated = true
			cur = ns
		}
	}
	if !migrated {
		t.Fatal("hot page never migrated")
	}
	if !c.IsHotSlot(cur) {
		t.Fatalf("migrated slot %v not in τhot", cur)
	}
	if c.HotResident(1) != 1 {
		t.Fatalf("hot resident = %d", c.HotResident(1))
	}
	if c.Migrations.Value() != 1 {
		t.Fatalf("migrations = %d", c.Migrations.Value())
	}
	// Slot occupancy must have moved.
	if c.IsOccupied(1, slot) || !c.IsOccupied(1, cur) {
		t.Fatal("occupancy did not move with the migration")
	}
}

func TestProLazyReclaimWhenHotRegionFull(t *testing.T) {
	cfg := testConfig()
	cfg.IvLeague.HotThreshold = 1
	cfg.IvLeague.HotRegionPagesLog2 = 0 // region == page
	cfg.IvLeague.HotRegionLeaves = 1    // τhot: one node, 8 slots
	cfg.IvLeague.HotClearInterval = 4   // residents go cold quickly
	lay := layout.New(&cfg)
	c := mustCtrl(t)(NewController(&cfg, lay, ModePro, nil))
	c.CreateDomain(1)
	var ops OpList
	const pages = 9 // one more than τhot capacity
	slots := map[layout.PFN]SlotID{}
	for p := layout.PFN(0); p < pages; p++ {
		s, err := c.AllocPage(1, p, &ops)
		if err != nil {
			t.Fatal(err)
		}
		slots[p] = s
	}
	// Round-robin accesses: the migration engine (rate-limited) fills all
	// 8 τhot slots, then the 9th migration must lazily reclaim one.
	for i := 0; i < 400; i++ {
		p := layout.PFN(i % pages)
		ns, migrated := c.OnAccess(1, p, slots[p], &ops)
		if migrated {
			slots[p] = ns
		}
	}
	if c.Migrations.Value() < 9 {
		t.Fatalf("only %d migrations", c.Migrations.Value())
	}
	if c.MigrationsBack.Value() == 0 {
		t.Fatal("τhot overflow never reclaimed a resident")
	}
	if got := c.HotResident(1); got > 8 {
		t.Fatalf("hot residents %d exceed τhot capacity", got)
	}
}

func TestProHotRegionExcludedFromRegularAlloc(t *testing.T) {
	c, lay := newCtrl(t, ModePro, false)
	c.CreateDomain(1)
	var ops OpList
	// Allocate a full TreeLing worth of pages; none may land in τhot.
	n := lay.TreeLingSlots() / 2
	for i := 0; i < n; i++ {
		s, err := c.AllocPage(1, layout.PFN(i), &ops)
		if err != nil {
			break
		}
		if c.IsHotSlot(s) {
			t.Fatalf("regular allocation %v landed in τhot", s)
		}
	}
}

func TestStarvationReported(t *testing.T) {
	cfg := testConfig()
	lay := layout.New(&cfg)
	c := mustCtrl(t)(NewController(&cfg, lay, ModeBasic, nil))
	c.CreateDomain(1)
	var ops OpList
	total := lay.TreeLingPages() * 32 // all TreeLings
	var err error
	for i := 0; i <= total; i++ {
		_, err = c.AllocPage(1, layout.PFN(i), &ops)
		if err != nil {
			break
		}
		ops.Reset()
	}
	if !errors.Is(err, ErrStarvation) {
		t.Fatalf("expected starvation, got %v", err)
	}
	if c.AllocFailures.Value() == 0 {
		t.Fatal("failure not counted")
	}
}

func TestBVv1LeaksCrossTreeLingFrees(t *testing.T) {
	c, lay := newCtrl(t, ModeBVv1, false)
	c.CreateDomain(1)
	var ops OpList
	// Fill the first TreeLing fully so allocation moves to a second one.
	n := lay.TreeLingPages()
	slots := make([]SlotID, 0, n+1)
	for i := 0; i <= n; i++ {
		s, err := c.AllocPage(1, layout.PFN(i), &ops)
		if err != nil {
			t.Fatal(err)
		}
		slots = append(slots, s)
	}
	first := slots[0]
	if err := c.FreePage(1, 0, first, &ops); err != nil {
		t.Fatal(err)
	}
	if c.Untracked.Value() == 0 {
		t.Fatal("BV-v1 cross-TreeLing free was not leaked")
	}
	// The freed slot must NOT be reused.
	s, err := c.AllocPage(1, layout.PFN(n+5), &ops)
	if err != nil {
		t.Fatal(err)
	}
	if s == first {
		t.Fatal("BV-v1 reused a cross-TreeLing freed slot")
	}
}

func TestBVv2ReusesCrossTreeLingFrees(t *testing.T) {
	c, lay := newCtrl(t, ModeBVv2, false)
	c.CreateDomain(1)
	var ops OpList
	n := lay.TreeLingPages()
	slots := make([]SlotID, 0, n+1)
	for i := 0; i <= n; i++ {
		s, err := c.AllocPage(1, layout.PFN(i), &ops)
		if err != nil {
			t.Fatal(err)
		}
		slots = append(slots, s)
	}
	first := slots[0]
	c.FreePage(1, 0, first, &ops)
	// Fill the second TreeLing so the cross-TreeLing search kicks in.
	for i := n + 1; i < 2*n; i++ {
		if _, err := c.AllocPage(1, layout.PFN(i), &ops); err != nil {
			t.Fatal(err)
		}
	}
	ops.Reset()
	s, err := c.AllocPage(1, layout.PFN(2*n+5), &ops)
	if err != nil {
		t.Fatal(err)
	}
	if s != first {
		t.Fatalf("BV-v2 did not reuse freed slot: got %v want %v", s, first)
	}
	// And the cross search must have cost bit-vector block reads.
	reads := 0
	for _, op := range ops.Ops {
		if !op.Write {
			reads++
		}
	}
	if reads < 1 {
		t.Fatalf("BV-v2 cross search charged only %d reads", reads)
	}
}

func TestBVMoreExpensiveThanNFL(t *testing.T) {
	cost := func(mode Mode) int {
		c, lay := newCtrl(t, mode, false)
		c.CreateDomain(1)
		var ops OpList
		n := lay.TreeLingPages() * 3 / 2
		for i := 0; i < n; i++ {
			if _, err := c.AllocPage(1, layout.PFN(i), &ops); err != nil {
				t.Fatal(err)
			}
		}
		// Free/realloc churn across TreeLings.
		for i := 0; i < n; i += 7 {
			// approximate: free then realloc via the controller API is
			// exercised in the invariant test; here just count alloc ops.
			_ = i
		}
		return len(ops.Ops)
	}
	if bv, nfl := cost(ModeBVv2), cost(ModeBasic); bv <= nfl {
		t.Fatalf("BV-v2 ops %d not above NFL ops %d", bv, nfl)
	}
}

func TestNFLBHitRateHighForSequentialAlloc(t *testing.T) {
	c, lay := newCtrl(t, ModeBasic, false)
	c.CreateDomain(1)
	var ops OpList
	for i := 0; i < lay.TreeLingPages(); i++ {
		c.AllocPage(1, layout.PFN(i), &ops)
		ops.Reset()
	}
	b := c.NFLBOf(1)
	if hr := stats.Ratio(b.Hits.Value(), b.Hits.Value()+b.Misses.Value()); hr < 0.9 {
		t.Fatalf("NFLB hit rate %v too low for sequential allocation", hr)
	}
}

func TestFunctionalForestTracksConversions(t *testing.T) {
	cfg := testConfig()
	lay := layout.New(&cfg)
	forest := tree.NewForest(lay)
	c := mustCtrl(t)(NewController(&cfg, lay, ModeInvert, forest))
	c.CreateDomain(1)
	var ops OpList
	// Map the first page and give it a recognizable hash.
	s0, _ := c.AllocPage(1, 0, &ops)
	forest.SetSlot(s0.TreeLing(), s0.Node(), s0.Slot(), 0xdeadbeef)
	// Force conversion of the root slots.
	arity := lay.Arity
	for i := 1; i <= arity+1; i++ {
		if _, err := c.AllocPage(1, layout.PFN(i), &ops); err != nil {
			t.Fatal(err)
		}
	}
	r, changed := c.Resolve(1, s0)
	if !changed {
		t.Fatal("expected page 0 to be relocated")
	}
	if got := forest.Slot(r.TreeLing(), r.Node(), r.Slot()); got != 0xdeadbeef {
		t.Fatalf("relocated hash lost: got %#x", got)
	}
	// Verification of the relocated hash must succeed from its new slot.
	if err := forest.Verify(r.TreeLing(), r.Node(), r.Slot(), 0xdeadbeef); err != nil {
		t.Fatalf("verify after relocation: %v", err)
	}
}

func TestUtilizationEmpty(t *testing.T) {
	c, _ := newCtrl(t, ModeBasic, false)
	util, leaked := c.Utilization()
	if util != 1 || leaked != 0 {
		t.Fatalf("empty utilization %v/%d", util, leaked)
	}
}

func TestOpListReadWrite(t *testing.T) {
	var o OpList
	o.Read(1, nil)
	o.Write(2, nil)
	if len(o.Ops) != 2 || o.Ops[0].Write || !o.Ops[1].Write {
		t.Fatalf("ops: %+v", o.Ops)
	}
	o.Reset()
	if len(o.Ops) != 0 || o.Err() != nil {
		t.Fatal("reset failed")
	}
}

func TestOpListLatchesFirstError(t *testing.T) {
	var o OpList
	errA := errors.New("bad addr A")
	o.Read(1, nil)
	o.Write(0, errA)
	o.Write(3, nil)                     // dropped: error already latched
	o.Read(0, errors.New("bad addr B")) // must not replace the first error
	if o.Err() != errA {
		t.Fatalf("Err() = %v, want first error", o.Err())
	}
	if len(o.Ops) != 1 {
		t.Fatalf("appends after an error must be dropped, got %d ops", len(o.Ops))
	}
	o.Reset()
	if o.Err() != nil {
		t.Fatal("Reset did not clear the latched error")
	}
}

func TestLMMCache(t *testing.T) {
	cfg := testConfig()
	l, err := NewLMMCache(cfg.IvLeague.LMMCache, 7)
	if err != nil {
		t.Fatal(err)
	}
	if l.Access(1, 100, false) {
		t.Fatal("cold LMM access hit")
	}
	if !l.Access(1, 100, false) {
		t.Fatal("warm LMM access missed")
	}
	// Different domains must not alias.
	if l.Access(2, 100, false) {
		t.Fatal("cross-domain LMM aliasing")
	}
	l.Invalidate(1, 100)
	if l.Access(1, 100, false) {
		t.Fatal("invalidated entry still present")
	}
}
