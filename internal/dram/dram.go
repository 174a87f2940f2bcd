// Package dram models main-memory timing: channels, ranks and banks with
// open-row policy, per-bank busy tracking, and FR-FCFS-like queueing cost.
//
// The model is cycle-accounting rather than event-driven: each access is
// presented with the requester's current cycle and the model returns the
// access latency, internally advancing the owning bank's busy horizon. This
// reproduces bank conflicts, row-buffer locality and queue pressure — the
// DRAM effects the paper's results depend on — at trace-replay speed.
package dram

import (
	"ivleague/internal/config"
	"ivleague/internal/stats"
	"ivleague/internal/telemetry"
)

type bank struct {
	openRow   uint64
	rowValid  bool
	busyUntil uint64
}

// Model is the DRAM timing model. It is not safe for concurrent use; the
// simulation kernel serializes accesses.
type Model struct {
	cfg    config.DRAMConfig
	banks  []bank
	nbanks uint64
	// Power-of-two fast path for mapAddr (set when channels, row size and
	// bank count are all powers of two, which every shipped config is).
	pow2      bool
	chMask    uint64
	rowShift  uint
	bankMask  uint64
	bankShift uint
	// queue pressure: outstanding requests per channel with decay.
	queueLen   []int
	queueDecay []uint64 // cycle at which queueLen was last decayed

	Reads     stats.Counter
	Writes    stats.Counter
	RowHits   stats.Counter
	RowMisses stats.Counter
	// TotalLatency accumulates read latencies for mean-latency reporting.
	TotalLatency stats.Counter

	// Trace, when non-nil, observes every transaction (addr, write).
	Trace func(addr uint64, write bool)
}

// New builds a DRAM model from its configuration.
func New(cfg config.DRAMConfig) *Model {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	n := cfg.Channels * cfg.RanksPerChannel * cfg.BanksPerRank
	m := &Model{
		cfg:        cfg,
		banks:      make([]bank, n),
		nbanks:     uint64(n),
		queueLen:   make([]int, cfg.Channels),
		queueDecay: make([]uint64, cfg.Channels),
	}
	pow2 := func(v uint64) (uint, bool) {
		if v == 0 || v&(v-1) != 0 {
			return 0, false
		}
		s := uint(0)
		for 1<<s < v {
			s++
		}
		return s, true
	}
	chShift, chOK := pow2(uint64(cfg.Channels))
	rowShift, rowOK := pow2(uint64(cfg.RowBytes))
	bankShift, bankOK := pow2(m.nbanks)
	if chOK && rowOK && bankOK {
		m.pow2 = true
		m.chMask = 1<<chShift - 1
		m.rowShift = rowShift
		m.bankMask = 1<<bankShift - 1
		m.bankShift = bankShift
	}
	return m
}

// Config returns the model's configuration.
func (m *Model) Config() config.DRAMConfig { return m.cfg }

// mapAddr decomposes a physical byte address into channel, bank index and
// row. Channel interleaving is at block granularity; banks interleave at
// row granularity, which gives streaming accesses row locality.
func (m *Model) mapAddr(addr uint64) (channel int, bankIdx uint64, row uint64) {
	blk := addr >> config.BlockShift
	if m.pow2 {
		channel = int(blk & m.chMask)
		rowGlobal := addr >> m.rowShift
		return channel, rowGlobal & m.bankMask, rowGlobal >> m.bankShift
	}
	channel = int(blk % uint64(m.cfg.Channels))
	rowGlobal := addr / uint64(m.cfg.RowBytes)
	bankIdx = rowGlobal % m.nbanks
	row = rowGlobal / m.nbanks
	return
}

// serviceTime is the bank occupancy per request (data burst + overhead).
const serviceTime = 24

// Trace, when non-nil, observes every transaction (diagnostics and the
// attack module's bus-visibility checks).
//
// Access performs one memory transaction at time now, returning its latency
// in cycles. Write requests are posted (they occupy the bank but complete
// off the critical path, so their returned latency is the queueing delay
// only).
func (m *Model) Access(now uint64, addr uint64, write bool) int {
	if m.Trace != nil {
		m.Trace(addr, write)
	}
	ch, bi, row := m.mapAddr(addr)
	b := &m.banks[bi]

	// Queue pressure: decay one entry per serviceTime cycles elapsed.
	if m.queueLen[ch] > 0 {
		elapsed := now - m.queueDecay[ch]
		drained := int(elapsed / serviceTime)
		if drained > 0 {
			m.queueLen[ch] -= drained
			if m.queueLen[ch] < 0 {
				m.queueLen[ch] = 0
			}
			m.queueDecay[ch] = now
		}
	} else {
		m.queueDecay[ch] = now
	}
	queueWait := m.queueLen[ch] * m.cfg.QueuePenalty
	if m.queueLen[ch] < m.cfg.QueueDepth {
		m.queueLen[ch]++
	}

	// Bank availability.
	wait := 0
	if b.busyUntil > now {
		wait = int(b.busyUntil - now)
		// Cap pathological waits: FR-FCFS would reorder around a hot bank.
		if wait > 4*m.cfg.RowMissLatency {
			wait = 4 * m.cfg.RowMissLatency
		}
	}

	access := m.cfg.RowMissLatency
	if b.rowValid && b.openRow == row {
		access = m.cfg.RowHitLatency
		m.RowHits.Inc()
	} else {
		m.RowMisses.Inc()
	}
	b.openRow = row
	b.rowValid = true
	start := now + uint64(wait+queueWait)
	b.busyUntil = start + serviceTime

	lat := wait + queueWait + access
	if write {
		m.Writes.Inc()
		// Posted write: critical-path cost is the queue interaction only.
		return queueWait
	}
	m.Reads.Inc()
	m.TotalLatency.Add(uint64(lat))
	return lat
}

// RegisterMetrics registers the model's counters with a telemetry
// registry; Snapshot ratios rebuild the mean-read-latency and row-hit-rate
// metrics from them. Registry.Reset zeroes the counters and keeps bank
// state: the end-of-warmup boundary wants clean numbers over a warm memory
// system.
func (m *Model) RegisterMetrics(r *telemetry.Registry, prefix string) {
	r.RegisterCounter(prefix+".reads", &m.Reads)
	r.RegisterCounter(prefix+".writes", &m.Writes)
	r.RegisterCounter(prefix+".row_hits", &m.RowHits)
	r.RegisterCounter(prefix+".row_misses", &m.RowMisses)
	r.RegisterCounter(prefix+".read_latency", &m.TotalLatency)
}
