package cache

import (
	"testing"
	"testing/quick"

	"ivleague/internal/config"
)

func smallCfg(randomized bool) config.CacheConfig {
	return config.CacheConfig{SizeBytes: 4 << 10, Ways: 4, LineBytes: 64, HitLatency: 5, Randomized: randomized}
}

func mustNew(t *testing.T, cfg config.CacheConfig, seed uint64, reserved int) *Cache {
	t.Helper()
	c, err := New(cfg, seed, reserved)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestHitAfterFill(t *testing.T) {
	c := mustNew(t, smallCfg(false), 1, 0)
	if r := c.Access(0x1000, false); r.Hit {
		t.Fatal("cold access hit")
	}
	if r := c.Access(0x1000, false); !r.Hit {
		t.Fatal("second access missed")
	}
	if r := c.Access(0x1010, false); !r.Hit {
		t.Fatal("same-line offset missed")
	}
	if c.Hits.Value() != 2 || c.Misses.Value() != 1 {
		t.Fatalf("stats hits=%d misses=%d", c.Hits.Value(), c.Misses.Value())
	}
}

func TestLRUEviction(t *testing.T) {
	c := mustNew(t, smallCfg(false), 1, 0)
	sets := uint64(c.Config().Sets())
	// Fill one set with Ways+1 distinct lines mapping to set 0.
	for i := uint64(0); i < 5; i++ {
		c.Access(i*sets*64, false)
	}
	// The first line must have been evicted (LRU).
	if c.Probe(0) {
		t.Fatal("LRU line not evicted")
	}
	if !c.Probe(1 * sets * 64) {
		t.Fatal("recent line evicted")
	}
}

func TestDirtyWriteback(t *testing.T) {
	c := mustNew(t, smallCfg(false), 1, 0)
	sets := uint64(c.Config().Sets())
	c.Access(0, true) // dirty
	var wb Result
	for i := uint64(1); i <= 4; i++ {
		wb = c.Access(i*sets*64, false)
	}
	if !wb.Evicted || !wb.EvictedDirty || wb.WritebackAddr != 0 {
		t.Fatalf("expected dirty writeback of addr 0, got %+v", wb)
	}
}

func TestInvalidate(t *testing.T) {
	c := mustNew(t, smallCfg(false), 1, 0)
	c.Access(0x40, true)
	present, dirty := c.Invalidate(0x40)
	if !present || !dirty {
		t.Fatalf("invalidate: present=%v dirty=%v", present, dirty)
	}
	if c.Probe(0x40) {
		t.Fatal("line still present after invalidate")
	}
	if p, _ := c.Invalidate(0x40); p {
		t.Fatal("double invalidate reported present")
	}
}

// Reserved ways model the capacity root locking takes: no fill ever lands
// in them, so with 1 of 4 ways reserved a thrashed set holds 3 lines.
func TestReservedWaysNeverTakeFills(t *testing.T) {
	c := mustNew(t, smallCfg(false), 1, 1)
	sets := uint64(c.Config().Sets())
	held := 0
	for i := uint64(0); i < 100; i++ {
		c.Access(i*sets*64, false)
	}
	for i := uint64(0); i < 100; i++ {
		if c.Probe(i * sets * 64) {
			held++
		}
	}
	if held != 3 {
		t.Fatalf("thrashed set holds %d lines, want 3 (4 ways, 1 reserved)", held)
	}
}

func TestNewRejectsBadGeometry(t *testing.T) {
	bad := smallCfg(false)
	bad.Ways = 3 // sets would not be a power of two
	if _, err := New(bad, 1, 0); err == nil {
		t.Fatal("New accepted a non-power-of-two set count")
	}
	if _, err := New(smallCfg(false), 1, 5); err == nil {
		t.Fatal("New accepted reserved ways exceeding associativity")
	}
}

func TestRandomizedIndexDiffersFromDirect(t *testing.T) {
	direct := mustNew(t, smallCfg(false), 7, 0)
	rand1 := mustNew(t, smallCfg(true), 7, 0)
	rand2 := mustNew(t, smallCfg(true), 8, 0)
	differ12 := false
	for i := uint64(0); i < 64; i++ {
		la := i
		if rand1.index(la) != rand2.index(la) {
			differ12 = true
		}
		_ = direct
	}
	if !differ12 {
		t.Fatal("different keys produced identical randomized mappings")
	}
}

func TestFlush(t *testing.T) {
	c := mustNew(t, smallCfg(false), 1, 0)
	c.Access(0, true)
	c.Access(64, false)
	if d := c.Flush(); d != 1 {
		t.Fatalf("flush dropped %d dirty lines, want 1", d)
	}
	if c.Probe(0) || c.Probe(64) {
		t.Fatal("lines survived flush")
	}
}

func TestOccupancy(t *testing.T) {
	c := mustNew(t, smallCfg(false), 1, 0)
	if c.Occupancy() != 0 {
		t.Fatal("empty cache occupancy must be 0")
	}
	for i := uint64(0); i < 64; i++ {
		c.Access(i*64, false)
	}
	if c.Occupancy() != 1 {
		t.Fatalf("full cache occupancy = %v", c.Occupancy())
	}
}

// Property: after accessing an address, an immediate probe always hits,
// for both direct and randomized indexing.
func TestAccessThenProbeProperty(t *testing.T) {
	direct := mustNew(t, smallCfg(false), 3, 0)
	random := mustNew(t, smallCfg(true), 3, 0)
	f := func(addr uint64) bool {
		direct.Access(addr, false)
		random.Access(addr, false)
		return direct.Probe(addr) && random.Probe(addr)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: total lines valid never exceeds capacity regardless of the
// access pattern.
func TestCapacityInvariant(t *testing.T) {
	c := mustNew(t, smallCfg(true), 9, 0)
	f := func(addrs []uint64) bool {
		for _, a := range addrs {
			c.Access(a, a%3 == 0)
		}
		return c.Occupancy() <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestHitRateAndReset(t *testing.T) {
	c := mustNew(t, smallCfg(false), 1, 0)
	c.Access(0, false)
	c.Access(0, false)
	if c.Hits.Value() != 1 || c.Misses.Value() != 1 {
		t.Fatalf("hits %d, misses %d, want 1 and 1", c.Hits.Value(), c.Misses.Value())
	}
	c.ResetStats()
	if c.Hits.Value() != 0 || c.Misses.Value() != 0 {
		t.Fatal("ResetStats did not clear counters")
	}
	if !c.Probe(0) {
		t.Fatal("ResetStats cleared contents")
	}
}
