package dram

import (
	"testing"

	"ivleague/internal/config"
	"ivleague/internal/telemetry"
)

func testCfg() config.DRAMConfig {
	return config.Default().DRAM
}

func TestRowBufferLocality(t *testing.T) {
	m := New(testCfg())
	// First access opens the row; the next access to the same row (same
	// bank) must be a row hit and strictly faster.
	l1 := m.Access(0, 0x100000, false)
	l2 := m.Access(10000, 0x100040, false)
	if l2 >= l1 {
		t.Fatalf("row hit latency %d not below row miss %d", l2, l1)
	}
	if m.RowHits.Value() != 1 || m.RowMisses.Value() != 1 {
		t.Fatalf("rowHits=%d rowMisses=%d", m.RowHits.Value(), m.RowMisses.Value())
	}
}

func TestBankConflictAddsWait(t *testing.T) {
	cfg := testCfg()
	m := New(cfg)
	// Two back-to-back accesses to different rows of the same bank: the
	// second waits for the bank.
	rowStride := uint64(cfg.RowBytes) * uint64(cfg.Channels*cfg.RanksPerChannel*cfg.BanksPerRank)
	l1 := m.Access(0, 0, false)
	l2 := m.Access(0, rowStride, false)
	if l2 <= l1 {
		t.Fatalf("conflicting access %d not slower than first %d", l2, l1)
	}
}

func TestWritePosted(t *testing.T) {
	m := New(testCfg())
	lat := m.Access(0, 0x2000, true)
	if lat > m.Config().QueuePenalty*m.Config().QueueDepth {
		t.Fatalf("posted write latency %d too high", lat)
	}
	if m.Writes.Value() != 1 || m.Reads.Value() != 0 {
		t.Fatal("write not counted")
	}
}

func TestQueuePressureGrows(t *testing.T) {
	m := New(testCfg())
	// Hammer one channel at the same instant: queue penalty accumulates.
	first := m.Access(0, 0, false)
	var last int
	for i := 0; i < 20; i++ {
		// Same channel: block addresses stride by Channels blocks.
		last = m.Access(0, uint64(i*2*64*1024), false)
	}
	if last <= first {
		t.Fatalf("queue pressure did not grow: first=%d last=%d", first, last)
	}
}

func TestQueueDrainsOverTime(t *testing.T) {
	m := New(testCfg())
	for i := 0; i < 30; i++ {
		m.Access(0, uint64(i*2*64*1024), false)
	}
	loaded := m.Access(0, 1<<30, false)
	// Far in the future the queue has drained and the same kind of access
	// is cheaper.
	relaxed := m.Access(1_000_000, 1<<29, false)
	if relaxed >= loaded {
		t.Fatalf("queue never drained: loaded=%d relaxed=%d", loaded, relaxed)
	}
}

func TestChannelInterleavingByBlock(t *testing.T) {
	m := New(testCfg())
	ch0, _, _ := m.mapAddr(0)
	ch1, _, _ := m.mapAddr(64)
	if ch0 == ch1 {
		t.Fatal("adjacent blocks map to the same channel")
	}
}

func TestStatsAndReset(t *testing.T) {
	m := New(testCfg())
	reg := telemetry.NewRegistry()
	m.RegisterMetrics(reg, "dram")
	m.Access(0, 0, false)
	m.Access(100, 64, false)
	snap := reg.Snapshot()
	if got := snap.Counter("dram.reads"); got != 2 {
		t.Fatalf("reads %d, want 2", got)
	}
	if snap.Ratio("dram.read_latency", "dram.reads") <= 0 {
		t.Fatal("mean latency not tracked")
	}
	reg.Reset()
	snap = reg.Snapshot()
	for _, name := range snap.CounterNames() {
		if v := snap.Counter(name); v != 0 {
			t.Fatalf("%s = %d after Reset, want 0", name, v)
		}
	}
	// Reset clears statistics only: the row opened by the first access is
	// still open, so reading it again is a row hit.
	m.Access(10_000, 0, false)
	if m.RowHits.Value() != 1 || m.RowMisses.Value() != 0 {
		t.Fatalf("row hits %d, misses %d after Reset; bank state was lost", m.RowHits.Value(), m.RowMisses.Value())
	}
}

func TestWaitCapBounds(t *testing.T) {
	m := New(testCfg())
	// Saturate one bank; latency must stay bounded by the cap.
	var maxLat int
	for i := 0; i < 100; i++ {
		l := m.Access(0, 0, false)
		if l > maxLat {
			maxLat = l
		}
	}
	cfg := m.Config()
	bound := 4*cfg.RowMissLatency + cfg.RowMissLatency + cfg.QueuePenalty*cfg.QueueDepth
	if maxLat > bound {
		t.Fatalf("latency %d exceeds bound %d", maxLat, bound)
	}
}
