// Package cache implements the set-associative cache model used for the
// data hierarchy (L1/L2/LLC) and for the secure-memory metadata caches
// (encryption-counter cache, integrity-tree cache, LMM cache).
//
// Two properties needed by the paper's evaluation are supported beyond a
// plain LRU cache:
//
//   - Randomized indexing (Randomized in the config): a keyed hash maps a
//     line address to its set, standing in for MIRAGE-style randomized
//     caches that the baseline integrates to defeat conflict-based attacks.
//   - Way partitioning: a number of ways per set can be reserved so that
//     normal fills never use them, modelling the capacity IvLeague's root
//     locking takes for the tree levels above the TreeLing roots.
//
// Each set is a run of uint64 entries kept in recency order: entry 0 is
// the most recently used line, valid entries precede empty ones, and the
// last valid entry is the LRU victim. An entry packs the line address
// and the dirty bit (lineAddr<<1 | dirty), so a set of the 16-way LLC is
// 128 bytes and one of the 8-way L1 is a single 64-byte host line. A hit
// moves its entry to the front; a miss evicts the last entry and shifts
// the set down by one. The order is the whole replacement state.
// Reserved ways never hold a line, so they take no storage (DESIGN.md
// §16).
package cache

import (
	"fmt"

	"ivleague/internal/config"
	"ivleague/internal/stats"
	"ivleague/internal/telemetry"
)

// invalidTag marks an empty entry. A line address is a byte address >>
// lineShift, so below 2^58 with 64-byte lines: no entry can equal the
// sentinel, and invalidTag>>1 matches no line, so the hit test needs no
// validity check.
const invalidTag = ^uint64(0)

// Result describes the outcome of a cache access.
type Result struct {
	Hit bool
	// Evicted reports that a valid line was displaced by the fill.
	Evicted bool
	// WritebackAddr is the byte address of the displaced dirty line;
	// meaningful only when EvictedDirty is true.
	WritebackAddr uint64
	EvictedDirty  bool
	// Latency is the hit latency of this cache in cycles (the caller adds
	// lower-level latency on a miss).
	Latency int
}

// Cache is a single-level set-associative cache model. It tracks only tags
// and replacement state (no data contents); functional data lives in the
// memory model.
type Cache struct {
	cfg       config.CacheConfig
	ways      int      // entries per set: the ways that take fills
	setShift  uint     // log2 of the padded entries per set
	data      []uint64 // nsets << setShift entries, each set in recency order
	setMask   uint64
	lineShift uint
	key       uint64 // randomized-indexing key

	Hits      stats.Counter
	Misses    stats.Counter
	Evictions stats.Counter
}

// New builds a cache from its configuration. seed keys the randomized index
// hash (ignored for non-randomized caches). reservedWays ways per set are
// held back from fills; pass 0 for a normal cache. The geometry is
// validated up front so every later access is total.
func New(cfg config.CacheConfig, seed uint64, reservedWays int) (*Cache, error) {
	if err := cfg.Validate("cache"); err != nil {
		return nil, err
	}
	if reservedWays < 0 || reservedWays >= cfg.Ways {
		return nil, fmt.Errorf("cache: reservedWays %d must leave at least one normal way of %d", reservedWays, cfg.Ways)
	}
	nsets := cfg.Sets()
	c := &Cache{
		cfg:     cfg,
		ways:    cfg.Ways - reservedWays,
		setMask: uint64(nsets - 1),
		key:     seed ^ 0x9e3779b97f4a7c15,
	}
	for 1<<c.lineShift < cfg.LineBytes {
		c.lineShift++
	}
	// Pad each set to a power of two entries so that no set straddles
	// more 64-byte host lines than its size needs.
	for 1<<c.setShift < c.ways {
		c.setShift++
	}
	c.data = make([]uint64, nsets<<c.setShift)
	for i := range c.data {
		c.data[i] = invalidTag
	}
	return c, nil
}

// Config returns the cache's configuration.
func (c *Cache) Config() config.CacheConfig { return c.cfg }

func (c *Cache) index(lineAddr uint64) uint64 {
	if !c.cfg.Randomized {
		return lineAddr & c.setMask
	}
	// A keyed mix standing in for the randomized address-to-set mapping of
	// MIRAGE-style caches.
	x := lineAddr ^ c.key
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 29
	x *= 0x94d049bb133111eb
	x ^= x >> 32
	return x & c.setMask
}

// set returns the recency-ordered entries of lineAddr's set.
func (c *Cache) set(lineAddr uint64) []uint64 {
	base := int(c.index(lineAddr)) << c.setShift
	return c.data[base : base+c.ways]
}

// Access looks up addr (a byte address), filling on a miss. write marks the
// line dirty on hit or fill.
//
//ivlint:hotpath
func (c *Cache) Access(addr uint64, write bool) Result {
	lineAddr := addr >> c.lineShift
	set := c.set(lineAddr)
	var dirty uint64
	if write {
		dirty = 1
	}
	res := Result{Latency: c.cfg.HitLatency}
	for i, e := range set {
		if e>>1 == lineAddr {
			copy(set[1:i+1], set[:i])
			set[0] = e | dirty
			res.Hit = true
			c.Hits.Inc()
			return res
		}
	}
	c.Misses.Inc()
	if lru := set[len(set)-1]; lru != invalidTag {
		res.Evicted = true
		c.Evictions.Inc()
		if lru&1 != 0 {
			res.EvictedDirty = true
			res.WritebackAddr = lru >> 1 << c.lineShift
		}
	}
	copy(set[1:], set)
	set[0] = lineAddr<<1 | dirty
	return res
}

// Probe reports whether addr is present without changing any state.
func (c *Cache) Probe(addr uint64) bool {
	lineAddr := addr >> c.lineShift
	for _, e := range c.set(lineAddr) {
		if e>>1 == lineAddr {
			return true
		}
	}
	return false
}

// Invalidate removes addr from the cache, reporting whether it was present
// and whether it was dirty.
func (c *Cache) Invalidate(addr uint64) (present, dirty bool) {
	lineAddr := addr >> c.lineShift
	set := c.set(lineAddr)
	for i, e := range set {
		if e>>1 == lineAddr {
			copy(set[i:], set[i+1:])
			set[len(set)-1] = invalidTag
			return true, e&1 != 0
		}
	}
	return false, false
}

// Flush invalidates every line, returning the number of dirty lines dropped.
func (c *Cache) Flush() int {
	dirty := 0
	for i, e := range c.data {
		if e != invalidTag && e&1 != 0 {
			dirty++
		}
		c.data[i] = invalidTag
	}
	return dirty
}

// ResetStats clears the counters but keeps cache contents. Registry.Reset
// does the same for a registered cache.
func (c *Cache) ResetStats() {
	c.Hits.Reset()
	c.Misses.Reset()
	c.Evictions.Reset()
}

// RegisterMetrics registers the cache's counters with a telemetry registry
// under "<prefix>.hits" / ".misses" / ".evictions"; Snapshot.HitRate then
// derives the hit rate every consumer previously hand-computed.
func (c *Cache) RegisterMetrics(r *telemetry.Registry, prefix string) {
	r.RegisterCounter(prefix+".hits", &c.Hits)
	r.RegisterCounter(prefix+".misses", &c.Misses)
	r.RegisterCounter(prefix+".evictions", &c.Evictions)
}

// Occupancy returns the fraction of lines currently valid, over all
// cfg.Ways ways of every set (reserved ways count as empty).
func (c *Cache) Occupancy() float64 {
	valid := 0
	for _, e := range c.data {
		if e != invalidTag {
			valid++
		}
	}
	return float64(valid) / float64(c.cfg.Sets()*c.cfg.Ways)
}
