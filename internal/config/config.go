// Package config defines the architecture, secure-memory and IvLeague
// configuration used across the simulator. The defaults mirror Table I of
// the paper; see DESIGN.md for the places where our model geometry deviates
// (and why the deviation is behaviour-preserving).
package config

import (
	"errors"
	"fmt"
	"strings"
)

// Memory geometry constants shared by every component. A cache/memory block
// is 64 bytes and a page is 4 KiB, as in the paper.
const (
	BlockBytes     = 64
	PageBytes      = 4096
	BlocksPerPage  = PageBytes / BlockBytes
	BlockShift     = 6
	PageShift      = 12
	BlockPageShift = PageShift - BlockShift

	// MaxMinorBits is the widest minor counter: a page's counter block is
	// one block, and 64 minors of 7 bits fill the 448 bits it has after
	// the 64-bit major counter.
	MaxMinorBits = (BlockBytes*8 - 64) / BlocksPerPage
)

// Scheme identifies one of the evaluated secure-memory schemes.
type Scheme int

// The schemes evaluated in the paper, plus the two naive free-node-tracking
// ablation variants of Figure 17a.
const (
	// SchemeBaseline is the insecure-to-metadata-leakage baseline: a
	// globally shared 8-ary Bonsai Merkle Tree with static addressing.
	SchemeBaseline Scheme = iota
	// SchemeStaticPartition statically splits the global tree into one
	// fixed-size partition per domain.
	SchemeStaticPartition
	// SchemeIvLeagueBasic is IvLeague with leaf-only page mapping.
	SchemeIvLeagueBasic
	// SchemeIvLeagueInvert adds top-down intermediate-node mapping.
	SchemeIvLeagueInvert
	// SchemeIvLeaguePro adds the reserved hot region and hotpage tracking.
	SchemeIvLeaguePro
	// SchemeBVv1 replaces the NFL with a per-TreeLing bit vector whose head
	// only reacts to deallocations in the currently active TreeLing.
	SchemeBVv1
	// SchemeBVv2 replaces the NFL with bit vectors tracked across TreeLings
	// (cross-TreeLing sequential scan on allocation).
	SchemeBVv2
)

// String returns the scheme name as used in figures.
func (s Scheme) String() string {
	switch s {
	case SchemeBaseline:
		return "Baseline"
	case SchemeStaticPartition:
		return "StaticPartition"
	case SchemeIvLeagueBasic:
		return "IvLeague-Basic"
	case SchemeIvLeagueInvert:
		return "IvLeague-Invert"
	case SchemeIvLeaguePro:
		return "IvLeague-Pro"
	case SchemeBVv1:
		return "BV-v1"
	case SchemeBVv2:
		return "BV-v2"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// ParseScheme resolves a scheme name as the command-line tools and
// counterexample scripts spell it, ignoring case: baseline, static
// (static-partition), basic, invert and pro (each also with an ivleague-
// prefix), bv-v1 and bv-v2.
func ParseScheme(name string) (Scheme, error) {
	switch strings.ToLower(name) {
	case "baseline":
		return SchemeBaseline, nil
	case "static", "static-partition":
		return SchemeStaticPartition, nil
	case "basic", "ivleague-basic":
		return SchemeIvLeagueBasic, nil
	case "invert", "ivleague-invert":
		return SchemeIvLeagueInvert, nil
	case "pro", "ivleague-pro":
		return SchemeIvLeaguePro, nil
	case "bv-v1":
		return SchemeBVv1, nil
	case "bv-v2":
		return SchemeBVv2, nil
	}
	return 0, fmt.Errorf("config: unknown scheme %q", name)
}

// IsIvLeague reports whether the scheme uses TreeLings with dynamic
// page-to-node mapping (including the BV ablation variants).
func (s Scheme) IsIvLeague() bool {
	switch s {
	case SchemeIvLeagueBasic, SchemeIvLeagueInvert, SchemeIvLeaguePro, SchemeBVv1, SchemeBVv2:
		return true
	}
	return false
}

// CacheConfig describes one set-associative cache.
type CacheConfig struct {
	SizeBytes  int  // total capacity
	Ways       int  // associativity
	LineBytes  int  // line size
	HitLatency int  // cycles
	Randomized bool // MIRAGE-style randomized indexing
}

// Sets returns the number of sets implied by the geometry.
func (c CacheConfig) Sets() int { return c.SizeBytes / (c.Ways * c.LineBytes) }

// Validate checks the geometry is internally consistent.
func (c CacheConfig) Validate(name string) error {
	if c.SizeBytes <= 0 || c.Ways <= 0 || c.LineBytes <= 0 {
		return fmt.Errorf("config: %s cache has non-positive geometry", name)
	}
	if c.SizeBytes%(c.Ways*c.LineBytes) != 0 {
		return fmt.Errorf("config: %s cache size %d not divisible by ways*line", name, c.SizeBytes)
	}
	s := c.Sets()
	if s&(s-1) != 0 {
		return fmt.Errorf("config: %s cache set count %d not a power of two", name, s)
	}
	return nil
}

// DRAMConfig describes the main-memory timing model.
type DRAMConfig struct {
	SizeBytes       uint64 // total physical memory
	Channels        int
	RanksPerChannel int
	BanksPerRank    int
	RowBytes        int // row-buffer size per bank
	QueueDepth      int // per-channel read/write queue entries
	// Latencies in core cycles.
	RowHitLatency  int // ACT already open: CAS + bus
	RowMissLatency int // PRE+ACT+CAS + bus
	QueuePenalty   int // added cycles per queued request ahead of us
}

// Validate checks the DRAM geometry.
func (d DRAMConfig) Validate() error {
	if d.SizeBytes == 0 || d.Channels <= 0 || d.RanksPerChannel <= 0 || d.BanksPerRank <= 0 {
		return errors.New("config: DRAM has non-positive geometry")
	}
	if d.RowBytes <= 0 || d.RowBytes%BlockBytes != 0 {
		return errors.New("config: DRAM row size must be a positive multiple of the block size")
	}
	if d.RowHitLatency <= 0 || d.RowMissLatency < d.RowHitLatency {
		return errors.New("config: DRAM latencies inconsistent")
	}
	return nil
}

// CoreConfig describes the simple core timing model. Cores are modelled as
// in-order issue with a memory-level-parallelism factor applied to overlap
// part of each miss latency, which is sufficient to reproduce the paper's
// relative (normalized) performance results.
type CoreConfig struct {
	Count       int
	BaseCPI     float64 // CPI of non-memory instructions
	MLP         float64 // fraction of memory latency hidden by overlap [0,1)
	L1Latency   int
	L2Latency   int
	L3Latency   int
	TLBEntries  int
	PTWalkCost  int // cycles per page-table level on a TLB miss (cache-resident walk)
	TLBPenality int // fixed TLB-miss handling overhead
}

// CryptoConfig describes the encryption/authentication engine model.
type CryptoConfig struct {
	AESLatency  int // counter-mode pad generation, cycles
	MACLatency  int // MAC check/generate, cycles
	HashLatency int // one tree-node hash, cycles
}

// SecureMemConfig describes the scheme-independent secure-memory metadata.
type SecureMemConfig struct {
	CounterCache CacheConfig // encryption-counter cache
	TreeCache    CacheConfig // integrity-tree metadata cache
	TreeArity    int         // hashes per tree node (8-ary BMT)
	MinorBits    int         // minor counter width
}

// IvLeagueConfig describes the IvLeague-specific structures.
type IvLeagueConfig struct {
	// TreeLingHeight is the number of tree levels inside a TreeLing,
	// counting the root. A TreeLing of height H with arity A covers A^H
	// pages (one counter block per page); H=4, A=8 covers 16 MiB.
	TreeLingHeight int
	// TreeLingCount is the number of TreeLings provisioned in the system
	// (#τ). Table I uses 4K.
	TreeLingCount int
	// MaxDomains is the maximum number of IV domains (2^12 in the paper).
	MaxDomains int
	// NFLBEntries is the per-domain on-chip NFL buffer size (CAM entries).
	NFLBEntries int
	// NFLEntriesPerBlock is how many NFL entries fit one 64-byte memory
	// block (8 in the paper: 56-bit tag + 8-bit availability vector).
	NFLEntriesPerBlock int
	// LMMCache is the on-chip leaf-mapping-metadata cache (16-way 204KB).
	LMMCache CacheConfig
	// RootLockWays is the number of tree-cache ways reserved (way
	// partitioning) to pin TreeLing roots on-chip.
	RootLockWays int
	// DynamicRootLock enables the Section VIII alternative: only the
	// upper-level nodes of *allocated* TreeLings are pinned, freeing the
	// reserved ways for general metadata. This trades a bounded
	// coarse-grained allocation-activity channel (cf. Untangle) for
	// lower cache pressure.
	DynamicRootLock bool
	// Hot region (IvLeague-Pro).
	HotTrackerEntries int // per-domain access-frequency tracker entries
	HotCounterBits    int // tracker counter width
	HotThreshold      uint32
	HotClearInterval  uint64 // accesses between tracker clears
	HotRegionLeaves   int    // leaf-level nodes reserved per TreeLing for τhot
}

// SimConfig controls run length and reproducibility.
type SimConfig struct {
	Seed         uint64
	WarmupInstr  uint64 // per-core instructions before stats collection
	MeasureInstr uint64 // per-core measured instructions
	// FootprintScale shrinks workload footprints so trace-driven runs
	// finish quickly while preserving the Small/Medium/Large ordering
	// and metadata-pressure differences. 1.0 = paper-sized footprints.
	FootprintScale float64
	// InitFrac is the fraction of each process's footprint touched by an
	// initialization sweep (in virtual-address order) before steady
	// state, decorrelating page hotness from allocation order as in real
	// programs. The sweep runs inside the warmup window.
	InitFrac float64
}

// Config is the complete simulator configuration.
type Config struct {
	Core      CoreConfig
	L1        CacheConfig
	L2        CacheConfig
	L3        CacheConfig
	DRAM      DRAMConfig
	Crypto    CryptoConfig
	SecureMem SecureMemConfig
	IvLeague  IvLeagueConfig
	Sim       SimConfig
}

// Default returns the Table I configuration (with the geometry notes from
// DESIGN.md) and quick-run simulation lengths.
func Default() Config {
	return Config{
		Core: CoreConfig{
			Count:       8,
			BaseCPI:     0.5,
			MLP:         0.7,
			L1Latency:   4,
			L2Latency:   14,
			L3Latency:   40,
			TLBEntries:  1024,
			PTWalkCost:  20,
			TLBPenality: 10,
		},
		L1: CacheConfig{SizeBytes: 32 << 10, Ways: 8, LineBytes: BlockBytes, HitLatency: 4},
		L2: CacheConfig{SizeBytes: 1 << 20, Ways: 4, LineBytes: BlockBytes, HitLatency: 14},
		L3: CacheConfig{SizeBytes: 8 << 20, Ways: 16, LineBytes: BlockBytes, HitLatency: 40, Randomized: true},
		DRAM: DRAMConfig{
			SizeBytes:       32 << 30,
			Channels:        2,
			RanksPerChannel: 2,
			BanksPerRank:    8,
			RowBytes:        8 << 10,
			QueueDepth:      64,
			RowHitLatency:   110,
			RowMissLatency:  160,
			QueuePenalty:    4,
		},
		Crypto: CryptoConfig{AESLatency: 20, MACLatency: 20, HashLatency: 20},
		SecureMem: SecureMemConfig{
			CounterCache: CacheConfig{SizeBytes: 256 << 10, Ways: 8, LineBytes: BlockBytes, HitLatency: 5, Randomized: true},
			TreeCache:    CacheConfig{SizeBytes: 256 << 10, Ways: 8, LineBytes: BlockBytes, HitLatency: 5, Randomized: true},
			TreeArity:    8,
			MinorBits:    7,
		},
		IvLeague: IvLeagueConfig{
			TreeLingHeight:     4,
			TreeLingCount:      4096,
			MaxDomains:         1 << 12,
			NFLBEntries:        2,
			NFLEntriesPerBlock: 8,
			// The paper's LMM cache is 16-way, 204 KB ≈ 8K entries of 25.5
			// bytes. The model tracks entries (8192 lines of 64 B for set
			// indexing); internal/hwcost reports the true 204 KB storage.
			LMMCache:          CacheConfig{SizeBytes: 512 << 10, Ways: 16, LineBytes: BlockBytes, HitLatency: 3, Randomized: true},
			RootLockWays:      1,
			HotTrackerEntries: 128,
			HotCounterBits:    8,
			HotThreshold:      32,
			HotClearInterval:  1 << 17,
			HotRegionLeaves:   8,
		},
		Sim: SimConfig{
			Seed:           42,
			WarmupInstr:    100_000,
			MeasureInstr:   400_000,
			FootprintScale: 0.25,
			InitFrac:       0.5,
		},
	}
}

// TreeLingPages returns the number of 4 KiB pages one TreeLing covers.
func (c *Config) TreeLingPages() uint64 {
	pages := uint64(1)
	for i := 0; i < c.IvLeague.TreeLingHeight; i++ {
		pages *= uint64(c.SecureMem.TreeArity)
	}
	return pages
}

// TreeLingBytes returns the memory coverage of one TreeLing in bytes.
func (c *Config) TreeLingBytes() uint64 { return c.TreeLingPages() * PageBytes }

// TotalPages returns the number of physical pages in the system.
func (c *Config) TotalPages() uint64 { return c.DRAM.SizeBytes / PageBytes }

// Validate checks the whole configuration for internal consistency.
func (c *Config) Validate() error {
	if c.Core.Count <= 0 {
		return errors.New("config: core count must be positive")
	}
	if c.Core.BaseCPI <= 0 {
		return errors.New("config: BaseCPI must be positive")
	}
	if c.Core.MLP < 0 || c.Core.MLP >= 1 {
		return errors.New("config: MLP must be in [0,1)")
	}
	for _, v := range []struct {
		name string
		cc   CacheConfig
	}{
		{"L1", c.L1}, {"L2", c.L2}, {"L3", c.L3},
		{"counter", c.SecureMem.CounterCache},
		{"tree", c.SecureMem.TreeCache},
		{"LMM", c.IvLeague.LMMCache},
	} {
		if err := v.cc.Validate(v.name); err != nil {
			return err
		}
	}
	if err := c.DRAM.Validate(); err != nil {
		return err
	}
	a := c.SecureMem.TreeArity
	if a < 2 || a&(a-1) != 0 {
		return errors.New("config: tree arity must be a power of two >= 2")
	}
	if a > 256 {
		// SlotID packs the within-node slot index into 8 bits.
		return fmt.Errorf("config: tree arity %d exceeds the SlotID slot field (max 256)", a)
	}
	if w := c.SecureMem.MinorBits; w < 1 || w > MaxMinorBits {
		return fmt.Errorf("config: MinorBits %d must be in [1,%d]", w, MaxMinorBits)
	}
	iv := c.IvLeague
	if iv.TreeLingHeight < 2 || iv.TreeLingHeight > 8 {
		return errors.New("config: TreeLing height must be in [2,8]")
	}
	if iv.TreeLingCount <= 0 {
		return errors.New("config: TreeLing count must be positive")
	}
	// SlotID packs the top-down node index into 24 bits; bound the TreeLing
	// node count so every reachable slot identifier is representable.
	nodes := 0
	cnt := 1
	for level := iv.TreeLingHeight; level >= 1; level-- {
		nodes += cnt
		cnt *= a
	}
	if nodes >= 1<<24 {
		return fmt.Errorf("config: %d nodes per TreeLing exceed the SlotID node field (max %d)", nodes, 1<<24-1)
	}
	if iv.MaxDomains <= 0 {
		return errors.New("config: MaxDomains must be positive")
	}
	if iv.NFLBEntries <= 0 || iv.NFLEntriesPerBlock <= 0 {
		return errors.New("config: NFL geometry must be positive")
	}
	if iv.RootLockWays < 0 || iv.RootLockWays >= c.SecureMem.TreeCache.Ways {
		return errors.New("config: RootLockWays must leave at least one unlocked tree-cache way")
	}
	if iv.HotTrackerEntries < 1 {
		return errors.New("config: HotTrackerEntries must be at least 1")
	}
	if iv.HotCounterBits < 1 || iv.HotCounterBits > 32 {
		return fmt.Errorf("config: HotCounterBits %d must be in [1,32]", iv.HotCounterBits)
	}
	if iv.HotRegionLeaves < 0 {
		return errors.New("config: HotRegionLeaves must be non-negative")
	}
	leafNodes := 1
	for i := 0; i < iv.TreeLingHeight-1; i++ {
		leafNodes *= a
	}
	if iv.HotRegionLeaves >= leafNodes {
		return fmt.Errorf("config: HotRegionLeaves %d must be smaller than the %d leaf nodes of a TreeLing", iv.HotRegionLeaves, leafNodes)
	}
	if c.TreeLingBytes()*uint64(iv.TreeLingCount) < c.DRAM.SizeBytes {
		return fmt.Errorf("config: %d TreeLings of %d bytes cannot cover %d bytes of memory",
			iv.TreeLingCount, c.TreeLingBytes(), c.DRAM.SizeBytes)
	}
	if c.Sim.MeasureInstr == 0 {
		return errors.New("config: measured instruction count must be positive")
	}
	if c.Sim.FootprintScale <= 0 || c.Sim.FootprintScale > 1 {
		return errors.New("config: FootprintScale must be in (0,1]")
	}
	if c.Sim.InitFrac < 0 || c.Sim.InitFrac > 1 {
		return errors.New("config: InitFrac must be in [0,1]")
	}
	return nil
}
