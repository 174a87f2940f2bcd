package cache

import (
	"fmt"
	"sort"

	"ivleague/internal/config"
	"ivleague/internal/stats"
)

// stampedCache is the cache model as it stood before sets were kept in
// recency order: per-way tags, 32-bit last-use stamps drawn from a
// replacement clock that is renumbered by rank at the 32-bit ceiling,
// and a dirty-bit word per set. It is kept only as the reference the
// differential test compares Cache against.
type stampedCache struct {
	cfg       config.CacheConfig
	ways      int
	stride    int // uint64 words per set block (64-byte aligned)
	luOff     int // word offset of the packed last-use stamps
	flagsOff  int // word offset of the dirty-bit word
	data      []uint64
	setMask   uint64
	lineShift uint
	key       uint64
	tick      uint64
	reserved  int // ways [0,reserved) never take a fill

	Hits      stats.Counter
	Misses    stats.Counter
	Evictions stats.Counter
}

func newStamped(cfg config.CacheConfig, seed uint64, reservedWays int) (*stampedCache, error) {
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
	c := &stampedCache{
		cfg:      cfg,
		ways:     cfg.Ways,
		setMask:  uint64(nsets - 1),
		key:      seed ^ 0x9e3779b97f4a7c15,
		reserved: reservedWays,
	}
	for 1<<c.lineShift < cfg.LineBytes {
		c.lineShift++
	}
	c.luOff = c.ways
	c.flagsOff = c.luOff + (c.ways+1)/2
	c.stride = c.flagsOff + 1
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

func (c *stampedCache) index(lineAddr uint64) uint64 {
	if !c.cfg.Randomized {
		return lineAddr & c.setMask
	}
	x := lineAddr ^ c.key
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 29
	x *= 0x94d049bb133111eb
	x ^= x >> 32
	return x & c.setMask
}

func (c *stampedCache) lastUse(base, i int) uint64 {
	return c.data[base+c.luOff+i/2] >> (uint(i&1) * 32) & 0xffffffff
}

func (c *stampedCache) setLastUse(base, i int, v uint64) {
	w := &c.data[base+c.luOff+i/2]
	sh := uint(i&1) * 32
	*w = *w&^(0xffffffff<<sh) | v<<sh
}

func (c *stampedCache) tickNext() uint64 {
	if c.tick == 1<<32-1 {
		c.renormalize()
	}
	c.tick++
	return c.tick
}

// renormalize renumbers every stored stamp by rank, an order-preserving
// compaction run when the clock reaches the 32-bit ceiling.
func (c *stampedCache) renormalize() {
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

func (c *stampedCache) Access(addr uint64, write bool) Result {
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
	// The victim is the first invalid way, or else the way with the
	// smallest stamp, among the non-reserved ways.
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

func (c *stampedCache) Probe(addr uint64) bool {
	lineAddr := addr >> c.lineShift
	base := int(c.index(lineAddr)) * c.stride
	for _, t := range c.data[base : base+c.ways] {
		if t == lineAddr {
			return true
		}
	}
	return false
}

func (c *stampedCache) Invalidate(addr uint64) (present, dirty bool) {
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

func (c *stampedCache) Flush() int {
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

func (c *stampedCache) Occupancy() float64 {
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
