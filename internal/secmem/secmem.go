// Package secmem implements the secure memory controller: counter-mode
// encryption, MAC authentication and tree-based integrity verification over
// a DRAM timing model, with pluggable metadata schemes — the globally
// shared Bonsai Merkle Tree baseline, static per-domain tree partitioning,
// and the three IvLeague variants (plus the BV ablations) built on
// internal/core.
//
// The controller exposes one timing entry point, Do (taking an
// AccessRequest), which models the full secure-memory path of an LLC miss
// (data fetch, counter fetch and verification walk, metadata-management
// traffic), and functional entry points used by the tamper-detection tests
// and examples.
package secmem

import (
	"fmt"

	"ivleague/internal/arena"
	"ivleague/internal/cache"
	"ivleague/internal/config"
	"ivleague/internal/core"
	"ivleague/internal/crypto"
	"ivleague/internal/ctr"
	"ivleague/internal/dram"
	"ivleague/internal/layout"
	"ivleague/internal/pagetable"
	"ivleague/internal/stats"
	"ivleague/internal/telemetry"
	"ivleague/internal/tree"
)

// pageMeta is the extended-PTE state the controller keeps per frame, in
// two words (DESIGN.md §17). The Phoenix-style crash image persists it as
// is, and StateDigest reads it.
//
//   - lmm holds the page's TreeLing slot plus one, 0 meaning no slot: the
//     LMM truth, the Leaf ID the paper keeps in the extended PTE. A zeroed
//     chunk reads "no slot", and core.InvalidSlot encodes as 0.
//   - owner holds the VPN in bits 0–35, the owning domain in bits 36–62
//     and the mapped flag in bit 63: the inverse mapping Pro migration
//     needs for its out-of-band LMM update, and the owner that fault and
//     recovery attribution read.
type pageMeta struct {
	lmm   uint64
	owner uint64
}

// The owner word's fields. OnPageMap rejects a VPN or domain that does
// not fit.
const (
	ownerVPNBits = pagetable.VPNBits
	ownerDomBits = 63 - ownerVPNBits
	ownerMapped  = 1 << 63
)

// slot returns the page's TreeLing slot; ok is false, and the slot 0,
// when it has none.
func (pm *pageMeta) slot() (s core.SlotID, ok bool) {
	if pm.lmm == 0 {
		return 0, false
	}
	return core.SlotID(pm.lmm - 1), true
}

// setSlot records slot as the page's TreeLing slot.
func (pm *pageMeta) setSlot(slot core.SlotID) { pm.lmm = uint64(slot) + 1 }

// mapped reports whether the frame is mapped.
func (pm *pageMeta) mapped() bool { return pm.owner&ownerMapped != 0 }

// dom returns the domain the frame was last mapped into.
func (pm *pageMeta) dom() int { return int(pm.owner >> ownerVPNBits & (1<<ownerDomBits - 1)) }

// vpn returns the VPN the frame was last mapped at.
func (pm *pageMeta) vpn() layout.VPN { return layout.VPN(pm.owner & (1<<ownerVPNBits - 1)) }

// Controller is the secure memory controller for one simulated machine.
// It is not safe for concurrent use; the simulation kernel serializes
// accesses.
type Controller struct {
	// cfg is a private copy: retaining the caller's *config.Config would
	// let later caller-side mutations leak into this machine (the
	// configaliasing hazard), breaking run-to-run reproducibility.
	cfg        config.Config
	scheme     config.Scheme
	lay        *layout.Layout
	dram       *dram.Model
	engine     *crypto.Engine
	counters   *ctr.Store
	functional bool

	counterCache *cache.Cache
	treeCache    *cache.Cache

	// IvLeague state (nil for Baseline/StaticPartition).
	ivc *core.Controller
	lmm *core.LMMCache

	// Functional integrity state.
	global *tree.Global // Baseline & StaticPartition
	forest *tree.Forest // IvLeague schemes

	// pages is the per-frame metadata: TreeLing slot (the system's LMM
	// truth — the paper stores it in extended PTEs; the timing of PTE
	// residency is modelled through the LMM cache and PTE-region DRAM
	// accesses), inverse VPN and owning domain.
	pages arena.Chunked[pageMeta]

	// Static partitioning state.
	partOf    map[int]int // domainID → partition index
	partCount int
	partLevel int // tree level at which a partition's subtree roots sit

	ops core.OpList

	// Observability (nil by default; attached via SetTracer/SetAudit/
	// SetPhaseTimers).
	// Every use is behind a nil check so a plain run pays nothing.
	tracer *telemetry.Tracer
	audit  *telemetry.Audit
	phases *telemetry.PhaseTimers

	// Functional data plane (WithFunctional only): one page of
	// ciphertext + MAC per block for each written frame.
	data arena.Chunked[*dataPage]

	// Statistics.
	DataReads     stats.Counter
	DataWrites    stats.Counter
	Verifications stats.Counter
	Overflows     stats.Counter
	SwapPenalties stats.Counter
	PathLen       map[int]*stats.Histogram // per-domain verification path
	TamperEvents  stats.Counter
}

// Option configures a Controller.
type Option func(*Controller)

// WithFunctional enables the functional crypto/integrity layer (real
// hashes and counters maintained and verified on every access). Slower;
// used by examples and integrity tests.
func WithFunctional() Option { return func(c *Controller) { c.functional = true } }

// New builds a controller for the given scheme. partitions is only used by
// SchemeStaticPartition (number of equal partitions the memory and tree
// are split into).
func New(cfg *config.Config, scheme config.Scheme, partitions int, opts ...Option) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	lay := layout.New(cfg)
	c := &Controller{
		cfg:      *cfg,
		scheme:   scheme,
		lay:      lay,
		dram:     dram.New(cfg.DRAM),
		engine:   crypto.NewEngine(cfg.Crypto, cfg.Sim.Seed),
		counters: ctr.NewStore(cfg.SecureMem.MinorBits),
		PathLen:  make(map[int]*stats.Histogram),
	}
	for _, o := range opts {
		o(c)
	}
	var err error
	c.counterCache, err = cache.New(cfg.SecureMem.CounterCache, cfg.Sim.Seed^1, 0)
	if err != nil {
		return nil, err
	}
	reserved := 0
	if scheme.IsIvLeague() && !cfg.IvLeague.DynamicRootLock {
		// Static root locking: way-partition the tree cache for the
		// levels above the TreeLing roots. With DynamicRootLock only the
		// live TreeLings' upper nodes are pinned, which fits the normal
		// ways and frees the reserved region (Section VIII).
		reserved = cfg.IvLeague.RootLockWays
	}
	c.treeCache, err = cache.New(cfg.SecureMem.TreeCache, cfg.Sim.Seed^2, reserved)
	if err != nil {
		return nil, err
	}

	switch {
	case scheme.IsIvLeague():
		if c.functional {
			c.forest = tree.NewForest(lay)
		}
		mode, err := ivMode(scheme)
		if err != nil {
			return nil, err
		}
		c.ivc, err = core.NewController(cfg, lay, mode, c.forest)
		if err != nil {
			return nil, err
		}
		c.ivc.SetLeafUpdater(leafUpdater{c})
		c.lmm, err = core.NewLMMCache(cfg.IvLeague.LMMCache, cfg.Sim.Seed^3)
		if err != nil {
			return nil, err
		}
	case scheme == config.SchemeStaticPartition:
		if partitions <= 0 || partitions&(partitions-1) != 0 {
			return nil, fmt.Errorf("secmem: partition count %d must be a positive power of two", partitions)
		}
		// A walk ends at the highest level whose node covers at most one
		// partition, so no node it reads spans two domains' frames; each
		// partition keeps partPages/arity^partLevel subtree roots on-chip.
		partPages := lay.Pages / uint64(partitions)
		arity := uint64(lay.Arity)
		if partPages < arity {
			return nil, fmt.Errorf("secmem: %d partitions of %d pages: a partition is smaller than one level-1 tree node (%d pages)",
				partitions, partPages, arity)
		}
		c.partCount = partitions
		c.partOf = make(map[int]int)
		c.partLevel = 1
		for cover := arity * arity; cover <= partPages && c.partLevel < lay.GlobalLevels; cover *= arity {
			c.partLevel++
		}
		if c.functional {
			c.global = tree.NewGlobal(lay)
		}
	default: // Baseline
		if c.functional {
			c.global = tree.NewGlobal(lay)
		}
	}
	return c, nil
}

func ivMode(s config.Scheme) (core.Mode, error) {
	switch s {
	case config.SchemeIvLeagueBasic:
		return core.ModeBasic, nil
	case config.SchemeIvLeagueInvert:
		return core.ModeInvert, nil
	case config.SchemeIvLeaguePro:
		return core.ModePro, nil
	case config.SchemeBVv1:
		return core.ModeBVv1, nil
	case config.SchemeBVv2:
		return core.ModeBVv2, nil
	default:
		return 0, fmt.Errorf("secmem: %v is not an IvLeague scheme", s)
	}
}

// leafUpdater routes out-of-band LMM updates (Pro migrations) back into
// the controller's page-slot table and LMM cache.
type leafUpdater struct{ c *Controller }

// UpdateLeaf implements core.LeafUpdater.
func (u leafUpdater) UpdateLeaf(domainID int, pfn layout.PFN, slot core.SlotID) {
	pm := u.c.pages.Ensure(pfn)
	pm.setSlot(slot)
	if pm.mapped() {
		u.c.lmm.Access(domainID, pm.vpn(), true)
	}
}

// Scheme returns the controller's scheme.
func (c *Controller) Scheme() config.Scheme { return c.scheme }

// Layout exposes the address map (used by the attack module and tests).
func (c *Controller) Layout() *layout.Layout { return c.lay }

// DRAM exposes the memory model's statistics.
//
//ivlint:allow nocaller — sim's result cross-check reads the raw counters, and a test outside package secmem cannot reach a _test.go helper
func (c *Controller) DRAM() *dram.Model { return c.dram }

// TreeCache exposes the integrity-tree metadata cache.
//
//ivlint:allow nocaller — tests outside package secmem (sim's result cross-check) read its counters, and TestPathAddrsMatchReference stays as it was
func (c *Controller) TreeCache() *cache.Cache { return c.treeCache }

// CounterCache exposes the encryption-counter cache.
func (c *Controller) CounterCache() *cache.Cache { return c.counterCache }

// IvLeague returns the domain controller, or nil for non-IvLeague schemes.
func (c *Controller) IvLeague() *core.Controller { return c.ivc }

// LMM returns the LMM cache, or nil for non-IvLeague schemes.
//
//ivlint:allow nocaller — sim's result cross-check reads the raw counters, and a test outside package secmem cannot reach a _test.go helper
func (c *Controller) LMM() *core.LMMCache { return c.lmm }

// Counters exposes the functional counter store.
func (c *Controller) Counters() *ctr.Store { return c.counters }

// GlobalTree returns the functional global tree (Baseline/StaticPartition,
// functional mode only).
func (c *Controller) GlobalTree() *tree.Global { return c.global }

// Forest returns the functional TreeLing forest (IvLeague, functional
// mode only).
func (c *Controller) Forest() *tree.Forest { return c.forest }

// SlotOf returns the current TreeLing slot verifying pfn (IvLeague only).
func (c *Controller) SlotOf(pfn layout.PFN) (core.SlotID, bool) {
	pm := c.pages.Get(pfn)
	if pm == nil {
		return 0, false
	}
	return pm.slot()
}

// Owner returns the domain and VPN a frame is mapped to; ok is false while
// the frame is not mapped (never mapped, unmapped, or its map rejected).
//
//ivlint:hotpath
func (c *Controller) Owner(pfn layout.PFN) (domain int, vpn layout.VPN, ok bool) {
	pm := c.pages.Get(pfn)
	if pm == nil || !pm.mapped() {
		return 0, 0, false
	}
	return pm.dom(), pm.vpn(), true
}

// Functional reports whether the functional crypto/integrity layer is on.
func (c *Controller) Functional() bool { return c.functional }

// PageRef identifies one mapped page frame and its owner, the unit the
// fault injector picks targets from.
type PageRef struct {
	Domain int
	VPN    layout.VPN
	PFN    layout.PFN
}

// MappedPages returns every mapped frame in ascending PFN order.
func (c *Controller) MappedPages() []PageRef {
	var refs []PageRef
	c.pages.Each(func(pfn layout.PFN, pm *pageMeta) {
		if pm.mapped() {
			refs = append(refs, PageRef{Domain: pm.dom(), VPN: pm.vpn(), PFN: pfn})
		}
	})
	return refs
}

// CreateDomain registers a new IV domain with the scheme.
func (c *Controller) CreateDomain(id int) error {
	switch {
	case c.ivc != nil:
		_, err := c.ivc.CreateDomain(id)
		return err
	case c.scheme == config.SchemeStaticPartition:
		if _, ok := c.partOf[id]; ok {
			return fmt.Errorf("secmem: domain %d exists", id)
		}
		if len(c.partOf) >= c.partCount {
			return fmt.Errorf("secmem: all %d static partitions in use", c.partCount)
		}
		c.partOf[id] = len(c.partOf)
		return nil
	default:
		return nil // Baseline: domains share everything
	}
}

// DestroyDomain releases a domain's metadata.
func (c *Controller) DestroyDomain(id int) error {
	switch {
	case c.ivc != nil:
		tls := c.ivc.TreeLingsOf(id)
		c.ops.Reset()
		err := c.ivc.DestroyDomain(id, &c.ops)
		if _, rerr := c.replayOps(0, id); rerr != nil && err == nil {
			err = rerr
		}
		if err == nil && c.audit != nil {
			// The domain's TreeLings were hardware-reset and returned to
			// the FIFO; start a fresh audit epoch for each so legitimate
			// reuse by a later domain is not reported as sharing.
			for _, tl := range tls {
				c.audit.Recycle(tl)
			}
		}
		return err
	case c.scheme == config.SchemeStaticPartition:
		delete(c.partOf, id)
		return nil
	default:
		return nil
	}
}

// PartitionRange returns the frame range [lo, hi) a domain may use under
// static partitioning; under other schemes it returns the whole memory.
func (c *Controller) PartitionRange(domainID int) (lo, hi layout.PFN) {
	if c.scheme != config.SchemeStaticPartition {
		return 0, layout.PFN(c.lay.Pages)
	}
	p, ok := c.partOf[domainID]
	if !ok {
		return 0, 0
	}
	size := c.lay.Pages / uint64(c.partCount)
	return layout.PFN(uint64(p) * size), layout.PFN(uint64(p+1) * size)
}

// SetTracer attaches an event tracer; verification walks and page
// map/unmap operations are emitted as events. Nil detaches.
func (c *Controller) SetTracer(t *telemetry.Tracer) { c.tracer = t }

// SetAudit attaches an isolation audit that accounts every integrity-
// metadata touch by (domain, TreeLing, level, node). Nil detaches.
func (c *Controller) SetAudit(a *telemetry.Audit) { c.audit = a }

// SetPhaseTimers attaches sampled hot-path phase timers; tree walks,
// crypto work, metadata-cache lookups and NFL/LMM management accrue
// host time into them. Nil (the default) keeps the timer calls no-ops.
func (c *Controller) SetPhaseTimers(t *telemetry.PhaseTimers) { c.phases = t }

// RegisterMetrics registers every statistic the controller and its
// subcomponents maintain — DRAM, the metadata caches, the counter store,
// the domain controller (with per-domain NFLB counters), the LMM cache,
// the functional trees and the per-domain path-length histograms — so
// Registry.Reset is the single warmup boundary. The registry zeroes the
// counters itself; the controller's reset hook drops the sampled
// histograms.
func (c *Controller) RegisterMetrics(r *telemetry.Registry, prefix string) {
	r.RegisterCounter(prefix+".data_reads", &c.DataReads)
	r.RegisterCounter(prefix+".data_writes", &c.DataWrites)
	r.RegisterCounter(prefix+".verifications", &c.Verifications)
	r.RegisterCounter(prefix+".overflows", &c.Overflows)
	r.RegisterCounter(prefix+".swap_penalties", &c.SwapPenalties)
	r.RegisterCounter(prefix+".tamper_events", &c.TamperEvents)
	c.dram.RegisterMetrics(r, prefix+".dram")
	c.counterCache.RegisterMetrics(r, prefix+".ctr_cache")
	c.treeCache.RegisterMetrics(r, prefix+".tree_cache")
	c.counters.RegisterMetrics(r, prefix+".ctr")
	if c.ivc != nil {
		c.ivc.RegisterMetrics(r, prefix+".core")
	}
	if c.lmm != nil {
		c.lmm.RegisterMetrics(r, prefix+".lmm")
	}
	if c.forest != nil {
		c.forest.RegisterMetrics(r, prefix+".forest")
	}
	if c.global != nil {
		c.global.RegisterMetrics(r, prefix+".global_tree")
	}
	// PathLen histograms appear per domain as verification walks happen;
	// sample them dynamically rather than binding names at registration.
	r.RegisterSampler(func(s *telemetry.Sample) {
		for _, dom := range stats.SortedKeys(c.PathLen) {
			h := c.PathLen[dom]
			base := fmt.Sprintf("%s.pathlen.d%d", prefix, dom)
			s.Counter(base+".count", h.Count())
			s.Gauge(base+".mean", h.Mean())
		}
	})
	r.RegisterReset(func() { c.PathLen = make(map[int]*stats.Histogram) })
}

// pathHist returns the per-domain verification path histogram.
func (c *Controller) pathHist(domain int) *stats.Histogram {
	h := c.PathLen[domain]
	if h == nil {
		h = stats.NewHistogram(16)
		c.PathLen[domain] = h
	}
	return h
}
