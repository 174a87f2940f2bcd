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
// The replacement state lives in one flat uint64 arena with each set's
// block laid out contiguously: the way tags first, then the last-use
// stamps packed two-per-word as uint32 halves, then one word of dirty
// bits. The tag-match loop — the hottest loop in the whole simulator —
// thus scans ways*8 contiguous bytes, the LRU victim scan stays inside
// the same one or two host cache lines, and invalid ways carry a sentinel
// tag so the hit path needs no validity check.
package cache

import (
	"fmt"
	"sort"

	"ivleague/internal/config"
	"ivleague/internal/stats"
	"ivleague/internal/telemetry"
)

// invalidTag marks an empty way. Real tags are line addresses
// (byte address >> lineShift, so at most 2^58 with 64-byte lines) and can
// never collide with it.
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
	ways      int
	stride    int      // uint64 words per set block (64-byte aligned)
	luOff     int      // word offset of the packed last-use stamps
	flagsOff  int      // word offset of the dirty-bit word
	data      []uint64 // nsets * stride words
	setMask   uint64
	lineShift uint
	key       uint64 // randomized-indexing key
	tick      uint64
	reserved  int // ways [0,reserved) never take a fill

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
	if cfg.Ways > 32 {
		return nil, fmt.Errorf("cache: %d ways exceed the 32-way bit-mask limit", cfg.Ways)
	}
	nsets := cfg.Sets()
	c := &Cache{
		cfg:      cfg,
		ways:     cfg.Ways,
		setMask:  uint64(nsets - 1),
		key:      seed ^ 0x9e3779b97f4a7c15,
		reserved: reservedWays,
	}
	shift := uint(0)
	for 1<<shift < cfg.LineBytes {
		shift++
	}
	c.lineShift = shift
	c.luOff = c.ways
	c.flagsOff = c.luOff + (c.ways+1)/2
	c.stride = c.flagsOff + 1
	// Round the block up to a whole number of 64-byte lines so sets never
	// share a host cache line.
	if r := c.stride % 8; r != 0 {
		c.stride += 8 - r
	}
	c.data = make([]uint64, nsets*c.stride)
	for set := 0; set < nsets; set++ {
		base := set * c.stride
		for w := 0; w < c.ways; w++ {
			c.data[base+w] = invalidTag
		}
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

// lastUse reads way i's last-use stamp in the set block at base.
func (c *Cache) lastUse(base, i int) uint64 {
	return c.data[base+c.luOff+i/2] >> (uint(i&1) * 32) & 0xffffffff
}

// setLastUse stores way i's last-use stamp in the set block at base.
func (c *Cache) setLastUse(base, i int, v uint64) {
	w := &c.data[base+c.luOff+i/2]
	sh := uint(i&1) * 32
	*w = *w&^(0xffffffff<<sh) | v<<sh
}

// tickNext advances the replacement clock. Stamps are stored as uint32, so
// when the clock reaches the 32-bit ceiling every stored stamp is
// renumbered by rank — an order-preserving compaction that leaves all
// future LRU decisions exactly as they would have been with unbounded
// stamps.
func (c *Cache) tickNext() uint64 {
	if c.tick == 1<<32-1 {
		c.renormalize()
	}
	c.tick++
	return c.tick
}

func (c *Cache) renormalize() {
	type stamp struct {
		base, way int
		v         uint64
	}
	var all []stamp
	nsets := int(c.setMask) + 1
	for set := 0; set < nsets; set++ {
		base := set * c.stride
		for w := 0; w < c.ways; w++ {
			if v := c.lastUse(base, w); v != 0 {
				all = append(all, stamp{base, w, v})
			}
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].v < all[j].v })
	for rank, s := range all {
		c.setLastUse(s.base, s.way, uint64(rank)+1)
	}
	c.tick = uint64(len(all))
}

// Access looks up addr (a byte address), filling on a miss. write marks the
// line dirty on hit or fill.
//
//ivlint:hotpath
func (c *Cache) Access(addr uint64, write bool) Result {
	now := c.tickNext()
	lineAddr := addr >> c.lineShift
	base := int(c.index(lineAddr)) * c.stride
	tags := c.data[base : base+c.ways]
	res := Result{Latency: c.cfg.HitLatency}
	for i, t := range tags {
		if t == lineAddr {
			c.setLastUse(base, i, now)
			if write {
				c.data[base+c.flagsOff] |= 1 << uint(i)
			}
			res.Hit = true
			c.Hits.Inc()
			return res
		}
	}
	c.Misses.Inc()
	// Fill: choose an invalid or LRU way among the non-reserved ways. New
	// guarantees reserved < ways, so the first candidate always exists and
	// victim selection is total.
	victim := c.reserved
	vLU := c.lastUse(base, victim)
	for i := c.reserved; i < len(tags); i++ {
		if tags[i] == invalidTag {
			victim = i
			break
		}
		if lu := c.lastUse(base, i); lu < vLU {
			victim, vLU = i, lu
		}
	}
	flags := &c.data[base+c.flagsOff]
	dirtyBit := uint64(1) << uint(victim)
	if tags[victim] != invalidTag {
		res.Evicted = true
		c.Evictions.Inc()
		if *flags&dirtyBit != 0 {
			res.EvictedDirty = true
			res.WritebackAddr = tags[victim] << c.lineShift
		}
	}
	tags[victim] = lineAddr
	c.setLastUse(base, victim, now)
	*flags &^= dirtyBit
	if write {
		*flags |= dirtyBit
	}
	return res
}

// Probe reports whether addr is present without changing any state.
func (c *Cache) Probe(addr uint64) bool {
	lineAddr := addr >> c.lineShift
	base := int(c.index(lineAddr)) * c.stride
	for _, t := range c.data[base : base+c.ways] {
		if t == lineAddr {
			return true
		}
	}
	return false
}

// Invalidate removes addr from the cache, reporting whether it was present
// and whether it was dirty.
func (c *Cache) Invalidate(addr uint64) (present, dirty bool) {
	lineAddr := addr >> c.lineShift
	base := int(c.index(lineAddr)) * c.stride
	for i, t := range c.data[base : base+c.ways] {
		if t == lineAddr {
			bit := uint64(1) << uint(i)
			present, dirty = true, c.data[base+c.flagsOff]&bit != 0
			c.data[base+i] = invalidTag
			c.setLastUse(base, i, 0)
			c.data[base+c.flagsOff] &^= bit
			return
		}
	}
	return
}

// Flush invalidates every line, returning the number of dirty lines dropped.
func (c *Cache) Flush() int {
	dirty := 0
	nsets := int(c.setMask) + 1
	for set := 0; set < nsets; set++ {
		base := set * c.stride
		flags := c.data[base+c.flagsOff]
		for w := 0; w < c.ways; w++ {
			if c.data[base+w] != invalidTag && flags&(1<<uint(w)) != 0 {
				dirty++
			}
			c.data[base+w] = invalidTag
		}
		for w := c.luOff; w < c.stride; w++ {
			c.data[base+w] = 0
		}
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

// Occupancy returns the fraction of lines currently valid.
func (c *Cache) Occupancy() float64 {
	valid := 0
	nsets := int(c.setMask) + 1
	for set := 0; set < nsets; set++ {
		base := set * c.stride
		for w := 0; w < c.ways; w++ {
			if c.data[base+w] != invalidTag {
				valid++
			}
		}
	}
	return float64(valid) / float64(nsets*c.ways)
}
