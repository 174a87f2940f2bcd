package core

import (
	"errors"
	"fmt"

	"ivleague/internal/config"
	"ivleague/internal/layout"
	"ivleague/internal/stats"
	"ivleague/internal/telemetry"
	"ivleague/internal/tree"
)

// Mode selects the TreeLing management variant.
type Mode int

// The IvLeague variants plus the bit-vector ablation allocators.
const (
	ModeBasic Mode = iota
	ModeInvert
	ModePro
	ModeBVv1
	ModeBVv2
)

// ErrStarvation is returned when no TreeLing is available for a new page
// even though physical memory may remain (TreeLing starvation, Section
// VI-D2).
var ErrStarvation = errors.New("core: TreeLing starvation")

// LeafUpdater receives out-of-band leaf re-mappings (IvLeague-Pro hotpage
// migration updates a page's LMM without the page being accessed).
type LeafUpdater interface {
	UpdateLeaf(domainID int, pfn layout.PFN, slot SlotID)
}

// Controller is the IV Domain Controller: it owns the Unassigned-TreeLing
// FIFO and the Assignment Table, and performs all dynamic page-to-node
// mapping on behalf of the (trusted) memory controller.
type Controller struct {
	mode   Mode
	lay    *layout.Layout
	cfg    config.IvLeagueConfig
	arity  int
	forest *tree.Forest // optional functional layer (nil = timing only)
	leaf   LeafUpdater  // optional; used by ModePro migration

	unassigned []int // FIFO of TreeLing IDs
	fifoHead   int
	domains    map[int]*Domain

	// Per-TreeLing metadata lives in controller-level flat arenas indexed
	// by TreeLing ID: the parent (ρ) and occupied bitmaps are one byte per
	// node in a single contiguous allocation, and tlDom records the owning
	// domain (-1 = unassigned). This preserves the semantics of the old
	// per-domain map — a slot naming a TreeLing the domain does not own
	// (possible only through a corrupted LMM entry) finds no metadata —
	// while keeping the per-access bookkeeping free of map lookups.
	nodesPerTL int
	tlDom      []int
	parentBits []uint8
	occBits    []uint8
	leakCount  []int32
	bvStates   []*bvState

	// NFL lookup index tables, built once: the regular and τhot tracking
	// orders with their inverses, and each one's TreeLing → region table
	// (one flat arena, two halves). See nflIndex.
	nfl, hotNFL *nflIndex

	// Statistics used by the evaluation figures.
	Assignments    stats.Counter // TreeLing→domain assignments
	Untracked      stats.Counter // slots leaked by NFL in-place tracking
	Conversions    stats.Counter // Invert slot→parent conversions
	Migrations     stats.Counter // Pro page→τhot migrations
	MigrationsBack stats.Counter // Pro τhot→τreg migrations
	AllocFailures  stats.Counter
}

// Domain is one IV domain's state in the Assignment Table.
type Domain struct {
	id        int
	treelings []int // assignment order
	space     *nflSpace
	hotSpace  *nflSpace
	bvCur     int // BV modes: index of the active TreeLing
	nflb      *NFLB
	hot       *hotTracker
	hotPages  *hotPageTable // pfn → τhot slot (Pro only)
	hotOrder  []layout.PFN  // migration order (FIFO reclaim); head at hotHead
	hotHead   int
	sinceMig  uint64 // accesses since the last migration
	mapped    uint64
}

// tlMeta is the persist-image form of one TreeLing's bookkeeping: which
// slots are converted to parent slots (ρ) and which are occupied by a page
// mapping. The live controller keeps this state in its flat arenas; the
// crash image (recover.go) snapshots it per TreeLing in this shape.
type tlMeta struct {
	parent   []uint8 // per-node bitmask of parent slots
	occupied []uint8 // per-node bitmask of page-mapped slots
	leaked   int     // slots lost to untracked deallocations
}

// NewController builds the domain controller. forest may be nil to run
// timing-only. The mode is validated here so the per-access dispatch paths
// never meet an unknown variant.
func NewController(cfg *config.Config, lay *layout.Layout, mode Mode, forest *tree.Forest) (*Controller, error) {
	switch mode {
	case ModeBasic, ModeInvert, ModePro, ModeBVv1, ModeBVv2:
	default:
		return nil, fmt.Errorf("core: unknown mode %d", mode)
	}
	c := &Controller{
		mode:       mode,
		lay:        lay,
		cfg:        cfg.IvLeague,
		arity:      cfg.SecureMem.TreeArity,
		forest:     forest,
		domains:    make(map[int]*Domain),
		nodesPerTL: lay.NodesPerTreeLing,
		tlDom:      make([]int, lay.TreeLingCount),
		parentBits: make([]uint8, lay.TreeLingCount*lay.NodesPerTreeLing),
		occBits:    make([]uint8, lay.TreeLingCount*lay.NodesPerTreeLing),
		leakCount:  make([]int32, lay.TreeLingCount),
		bvStates:   make([]*bvState, lay.TreeLingCount),
	}
	for i := range c.tlDom {
		c.tlDom[i] = -1
	}
	regions := make([]int32, 2*lay.TreeLingCount)
	c.nfl = newNFLIndex(c.trackedNodes(), lay.NodesPerTreeLing, regions[:lay.TreeLingCount])
	c.hotNFL = newNFLIndex(c.hotNodes(), lay.NodesPerTreeLing, regions[lay.TreeLingCount:])
	c.unassigned = make([]int, lay.TreeLingCount)
	for i := range c.unassigned {
		c.unassigned[i] = i
	}
	return c, nil
}

// ownsTL reports whether TreeLing tl is currently assigned to domain d.
// Out-of-range IDs (reachable only via a corrupted LMM entry) are foreign.
func (c *Controller) ownsTL(d *Domain, tl int) bool {
	return tl >= 0 && tl < len(c.tlDom) && c.tlDom[tl] == d.id
}

// parentOf returns TreeLing tl's per-node parent-slot (ρ) bitmap.
func (c *Controller) parentOf(tl int) []uint8 {
	base := tl * c.nodesPerTL
	return c.parentBits[base : base+c.nodesPerTL]
}

// occupiedOf returns TreeLing tl's per-node occupied bitmap.
func (c *Controller) occupiedOf(tl int) []uint8 {
	base := tl * c.nodesPerTL
	return c.occBits[base : base+c.nodesPerTL]
}

// SetLeafUpdater installs the out-of-band LMM update callback.
func (c *Controller) SetLeafUpdater(u LeafUpdater) { c.leaf = u }

// FreeTreeLings returns how many TreeLings remain unassigned.
func (c *Controller) FreeTreeLings() int { return len(c.unassigned) - c.fifoHead }

// CreateDomain registers a new IV domain.
func (c *Controller) CreateDomain(id int) (*Domain, error) {
	if id < 0 {
		return nil, fmt.Errorf("core: domain id %d must be non-negative", id)
	}
	if _, ok := c.domains[id]; ok {
		return nil, fmt.Errorf("core: domain %d already exists", id)
	}
	if len(c.domains) >= c.cfg.MaxDomains {
		return nil, fmt.Errorf("core: domain limit %d reached", c.cfg.MaxDomains)
	}
	d := &Domain{
		id:    id,
		space: newNFLSpace(c.cfg.NFLEntriesPerBlock, c.nfl),
		nflb:  newNFLB(c.cfg.NFLBEntries),
	}
	if c.mode == ModePro {
		d.hotSpace = newNFLSpace(c.cfg.NFLEntriesPerBlock, c.hotNFL)
		d.hot = newHotTracker(c.cfg.HotTrackerEntries, c.cfg.HotCounterBits, c.cfg.HotThreshold, c.cfg.HotClearInterval)
		d.hotPages = newHotPageTable()
	}
	c.domains[id] = d
	return d, nil
}

// DestroyDomain tears a domain down, returning its TreeLings to the FIFO.
// The functional forest state of each TreeLing is reset, modelling the
// hardware re-initialization that prevents cross-domain replay.
func (c *Controller) DestroyDomain(id int, ops *OpList) error {
	d := c.domains[id]
	if d == nil {
		return fmt.Errorf("core: domain %d does not exist", id)
	}
	d.nflb.FlushDomain(c.lay, ops)
	for _, tl := range d.treelings {
		if c.forest != nil {
			c.forest.ResetTreeLing(tl)
		}
		c.tlDom[tl] = -1
		c.bvStates[tl] = nil
		c.recycle(tl)
	}
	delete(c.domains, id)
	return nil
}

// recycle returns a TreeLing to the unassigned FIFO.
func (c *Controller) recycle(tl int) {
	if c.fifoHead > 0 {
		c.fifoHead--
		c.unassigned[c.fifoHead] = tl
		return
	}
	c.unassigned = append(c.unassigned, tl)
}

// popTreeLing removes the next unassigned TreeLing from the FIFO.
func (c *Controller) popTreeLing() (int, bool) {
	if c.fifoHead >= len(c.unassigned) {
		return 0, false
	}
	tl := c.unassigned[c.fifoHead]
	c.fifoHead++
	return tl, true
}

// fullAvail is the availability mask for a node with all arity slots free.
func (c *Controller) fullAvail() uint8 {
	return uint8(1<<uint(c.arity) - 1)
}

// trackedNodes returns the NFL tracking order of every TreeLing under the
// controller's mode: leaf nodes only for Basic (and the BV variants), all
// nodes top-down for Invert, and top-down minus the hot region for Pro.
func (c *Controller) trackedNodes() []int32 {
	switch c.mode {
	case ModeBasic, ModeBVv1, ModeBVv2:
		off := c.lay.LevelOffset(1)
		n := c.lay.LevelNodeCount(1)
		out := make([]int32, n)
		for i := range out {
			out[i] = int32(off + i)
		}
		return out
	case ModeInvert:
		out := make([]int32, c.lay.NodesPerTreeLing)
		for i := range out {
			out[i] = int32(i)
		}
		return out
	case ModePro:
		skip := c.hotExcluded()
		out := make([]int32, 0, c.lay.NodesPerTreeLing)
		for i := 0; i < c.lay.NodesPerTreeLing; i++ {
			if !skip[i] {
				out = append(out, int32(i))
			}
		}
		return out
	default:
		//ivlint:allow panicpath — NewController validates the mode; an unknown mode here is construction-state corruption
		panic("core: unknown mode")
	}
}

// hotNodeCount returns the effective τhot node count per TreeLing.
func (c *Controller) hotNodeCount() int {
	if c.mode != ModePro || c.lay.TreeLingHeight < 3 {
		return 0
	}
	n := c.cfg.HotRegionLeaves
	if cnt := c.lay.LevelNodeCount(2); n > cnt/2 {
		n = cnt / 2
	}
	return n
}

// hotNodes returns the top-down indices of the τhot region: the first
// hotNodeCount nodes of level 2 (their leaf children are discarded, which
// is what shortens the hot verification path).
func (c *Controller) hotNodes() []int32 {
	n := c.hotNodeCount()
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(c.lay.NodeIndex(2, i))
	}
	return out
}

// hotExcluded marks the nodes excluded from the regular NFL under Pro:
// the hot nodes themselves and their (discarded) leaf children.
func (c *Controller) hotExcluded() []bool {
	skip := make([]bool, c.lay.NodesPerTreeLing)
	for _, hn := range c.hotNodes() {
		skip[hn] = true
		for s := 0; s < c.arity; s++ {
			if child, ok := c.lay.Child(int(hn), s); ok {
				skip[child] = true
			}
		}
	}
	return skip
}

// isHotNode reports whether a top-down node index is in the τhot region.
func (c *Controller) isHotNode(node int) bool {
	n := c.hotNodeCount()
	if n == 0 {
		return false
	}
	off := c.lay.LevelOffset(2)
	return node >= off && node < off+n
}

// assignTreeLing pops a TreeLing for domain d, initializes its NFL region
// in memory (charged as writes of every NFL block) and the per-TreeLing
// metadata. Under Pro the hot parents are pre-converted.
func (c *Controller) assignTreeLing(d *Domain, ops *OpList) error {
	tl, ok := c.popTreeLing()
	if !ok {
		c.AllocFailures.Inc()
		return ErrStarvation
	}
	c.Assignments.Inc()
	//ivlint:allow hotalloc — per-TreeLing-assignment event, not per access; bounded by the domain's footprint
	d.treelings = append(d.treelings, tl)
	c.tlDom[tl] = d.id
	parent, occupied := c.parentOf(tl), c.occupiedOf(tl)
	for i := range parent {
		parent[i] = 0
	}
	for i := range occupied {
		occupied[i] = 0
	}
	c.leakCount[tl] = 0
	if c.mode == ModeBVv1 || c.mode == ModeBVv2 {
		bv := newBVState(c.lay)
		c.bvStates[tl] = bv
		d.bvCur = len(d.treelings) - 1
		for b := 0; b < bv.nBlocks; b++ {
			ops.Write(c.lay.NFLBlockAddr(tl, b))
		}
		return nil
	}
	r := d.space.addRegion(tl, c.fullAvail(), 0)
	for b := 0; b < r.nBlocks; b++ {
		ops.Write(c.lay.NFLBlockAddr(tl, b))
	}
	if c.mode == ModePro {
		// Hot NFL blocks live after the regular NFL blocks in the
		// TreeLing's NFL address range.
		hr := d.hotSpace.addRegion(tl, c.fullAvail(), r.nBlocks)
		for b := 0; b < hr.nBlocks; b++ {
			ops.Write(c.lay.NFLBlockAddr(tl, r.nBlocks+b))
		}
		// Pre-convert the full parent chain covering each hot node, up to
		// the TreeLing root, so Invert allocation never hands any slot on
		// a τhot verification path out as a page slot. Stopping at the
		// immediate parents would let a page occupy the root slot over a
		// hot subtree; the first hotpage migration's rehash would then
		// overwrite that page's hash with a node hash (the strict
		// top-down fill assumed by Figure 12 is bypassed under τhot, so
		// the chain must be rooted eagerly, while the TreeLing is empty).
		for _, hn := range c.hotNFL.tracked {
			for node := int(hn); ; {
				p, slot, okp := c.lay.Parent(node)
				if !okp || parent[p]&(1<<uint(slot)) != 0 {
					break // root reached, or shared ancestor already converted
				}
				parent[p] |= 1 << uint(slot)
				d.space.clearSlot(tl, p, slot)
				c.Conversions.Inc()
				node = p
			}
		}
	}
	return nil
}

// AllocPage assigns a TreeLing slot for a newly mapped page of the domain,
// extending the domain with a fresh TreeLing when the NFL frontier is
// exhausted. The returned SlotID must be stored in the page's extended PTE
// (the LMM) by the caller.
func (c *Controller) AllocPage(domainID int, pfn layout.PFN, ops *OpList) (SlotID, error) {
	d := c.domains[domainID]
	if d == nil {
		return InvalidSlot, fmt.Errorf("core: unknown domain %d", domainID)
	}
	if c.mode == ModeBVv1 || c.mode == ModeBVv2 {
		return c.bvAlloc(d, ops)
	}
	slot, err := c.allocSlot(d, ops)
	if err != nil {
		return InvalidSlot, err
	}
	d.mapped++
	c.markOccupied(d, slot)
	return slot, nil
}

// allocSlot implements the paper's allocation algorithm: serve from the
// frontier block, advancing the head when the block is fully mapped, and
// assigning a fresh TreeLing when the whole space is exhausted. Under
// Invert/Pro the claimed node's parent slot is converted first.
func (c *Controller) allocSlot(d *Domain, ops *OpList) (SlotID, error) {
	invert := c.mode == ModeInvert || c.mode == ModePro
	for {
		if d.space.exhausted() {
			if err := c.assignTreeLing(d, ops); err != nil {
				return InvalidSlot, err
			}
		}
		r, b := d.space.frontier()
		d.nflb.Access(c.lay, r.tl, r.blockBase+b, false, ops)
		for {
			tag, ok := d.space.peek(r, b)
			if !ok {
				break // block fully mapped
			}
			tl, node := unpackTag(tag)
			if invert {
				c.ensureParentConverted(d, tl, node, ops)
			}
			slot, ok := d.space.take(r, b, tag)
			if !ok {
				// Conversion consumed the entry's last free slot; retry
				// with the next entry in this block.
				continue
			}
			// Cross-check against the per-TreeLing metadata: the NFL and
			// the occupied bitmap are redundant views of the same state, so
			// an availability bit naming an occupied slot means the NFL
			// image in memory was tampered with (a stale or flipped entry).
			if c.ownsTL(d, tl) && c.occupiedOf(tl)[node]&(1<<uint(slot)) != 0 {
				return InvalidSlot, &tree.IntegrityError{
					Class:    tree.ViolationNFL,
					Domain:   d.id,
					TreeLing: tl,
					Level:    c.lay.LevelOf(node),
					Node:     node,
					Slot:     slot,
					Addr:     c.nflBlockAddr(r.tl, r.blockBase+b),
					Detail:   "NFL offers a slot the assignment metadata records as occupied",
				}
			}
			d.nflb.Access(c.lay, r.tl, r.blockBase+b, true, ops)
			return MakeSlot(tl, node, slot), nil
		}
		d.space.advance()
	}
}

// nflBlockAddr resolves an NFL block address for diagnostics, swallowing
// the (impossible for tracked regions) range error.
func (c *Controller) nflBlockAddr(tl, block int) uint64 {
	a, err := c.lay.NFLBlockAddr(tl, block)
	if err != nil {
		return 0
	}
	return a
}

// markOccupied records a page mapping in the per-TreeLing metadata. A slot
// naming a TreeLing the domain does not own (possible only with a
// corrupted LMM entry) is ignored: tamper must surface as a verification
// error, never as a crash.
func (c *Controller) markOccupied(d *Domain, slot SlotID) {
	if tl := slot.TreeLing(); c.ownsTL(d, tl) {
		c.occupiedOf(tl)[slot.Node()] |= 1 << uint(slot.Slot())
	}
}

// clearOccupied removes a page mapping record (tolerating foreign
// TreeLings like markOccupied).
func (c *Controller) clearOccupied(d *Domain, slot SlotID) {
	if tl := slot.TreeLing(); c.ownsTL(d, tl) {
		c.occupiedOf(tl)[slot.Node()] &^= 1 << uint(slot.Slot())
	}
}

// leakSlot accounts an untrackable slot deallocation.
func (c *Controller) leakSlot(d *Domain, tl int) {
	if c.ownsTL(d, tl) {
		c.leakCount[tl]++
	}
	c.Untracked.Inc()
}

// FreePage releases a page's slot on deallocation using the NFL in-place
// tracking algorithm of Figure 8. Slots that cannot be re-tracked are
// leaked and counted (Figure 17b's "untracked TreeLing slots"). The slot
// must be the page's *effective* slot (after Resolve under Invert).
func (c *Controller) FreePage(domainID int, pfn layout.PFN, slot SlotID, ops *OpList) error {
	d := c.domains[domainID]
	if d == nil {
		return fmt.Errorf("core: unknown domain %d", domainID)
	}
	if slot == InvalidSlot {
		return errors.New("core: freeing invalid slot")
	}
	d.mapped--
	c.clearOccupied(d, slot)
	if c.forest != nil {
		c.forest.SetSlot(slot.TreeLing(), slot.Node(), slot.Slot(), 0)
	}
	if c.mode == ModeBVv1 || c.mode == ModeBVv2 {
		c.bvFree(d, slot, ops)
		return nil
	}
	if c.mode == ModePro {
		// Drop the τhot residency record unconditionally: a ρ-conversion
		// can relocate a resident's hash into the regular region, and a
		// record left behind would later migrate the freed frame's slot.
		// The frame's tracker entry stays and ages out.
		d.hotPages.del(pfn)
		if c.isHotNode(slot.Node()) {
			c.releaseHot(d, slot, ops)
			return nil
		}
	}
	c.releaseRegular(d, slot, ops)
	return nil
}

// releaseRegular returns a regular-region slot to the domain's NFL at the
// frontier, per Figure 8d–8f: tag match or entry repurposing at the
// frontier block, else rewind the head one block (possibly into the
// previous TreeLing's NFL) and repurpose there.
func (c *Controller) releaseRegular(d *Domain, slot SlotID, ops *OpList) {
	tag := packTag(slot.TreeLing(), slot.Node())
	ri, b := d.space.clampedFrontier()
	r := d.space.regions[ri]
	d.nflb.Access(c.lay, r.tl, r.blockBase+b, true, ops)
	if d.space.release(r, b, tag, slot.Slot()) {
		// If the space had run past the end, pull the frontier back so
		// allocation finds the freed slot.
		if d.space.exhausted() {
			d.space.fRegion, d.space.fBlock = ri, b
		}
		return
	}
	// One-step head rewind (Figure 8f); the block before the frontier is
	// fully mapped by the algorithm's invariant, so repurposing succeeds
	// unless we are at the very first block of the first TreeLing.
	if d.space.exhausted() {
		d.space.fRegion, d.space.fBlock = ri, b
	}
	if d.space.rewind() {
		r2, b2 := d.space.frontier()
		d.nflb.Access(c.lay, r2.tl, r2.blockBase+b2, true, ops)
		if d.space.release(r2, b2, tag, slot.Slot()) {
			return
		}
	}
	c.leakSlot(d, slot.TreeLing())
}

// releaseHot returns a τhot slot to its TreeLing's hot NFL.
func (c *Controller) releaseHot(d *Domain, slot SlotID, ops *OpList) {
	tag := packTag(slot.TreeLing(), slot.Node())
	if hr := d.hotSpace.regionOf(slot.TreeLing()); hr != nil {
		for b := 0; b < hr.nBlocks; b++ {
			d.nflb.Access(c.lay, hr.tl, hr.blockBase+b, true, ops)
			if d.hotSpace.release(hr, b, tag, slot.Slot()) {
				return
			}
		}
	}
	c.leakSlot(d, slot.TreeLing())
}

// TreeLingsOf returns the TreeLings assigned to a domain (in order).
func (c *Controller) TreeLingsOf(domainID int) []int {
	if d := c.domains[domainID]; d != nil {
		return append([]int(nil), d.treelings...)
	}
	return nil
}

// NFLBOf returns a domain's NFL buffer (for statistics).
func (c *Controller) NFLBOf(domainID int) *NFLB {
	if d := c.domains[domainID]; d != nil {
		return d.nflb
	}
	return nil
}

// Utilization returns, across all currently assigned TreeLings of all
// domains, the fraction of slots still usable (1 − leaked/total tracked
// slots) and the total number of leaked (untracked) slots, matching the
// Figure 17b metrics.
func (c *Controller) Utilization() (util float64, untracked int) {
	totalSlots := 0
	leaked := 0
	// Integer sums are order-independent, but iterate in sorted domain
	// order anyway: the determinism contract bans raw map iteration in
	// result-producing paths wholesale rather than auditing each case.
	for _, id := range stats.SortedKeys(c.domains) {
		d := c.domains[id]
		for _, tl := range d.treelings {
			leaked += int(c.leakCount[tl])
			if bv := c.bvStates[tl]; bv != nil {
				totalSlots += bv.slots
			}
		}
		if d.space != nil {
			totalSlots += d.space.trackedSlotCapacity(c.arity)
		}
		if d.hotSpace != nil {
			totalSlots += d.hotSpace.trackedSlotCapacity(c.arity)
		}
	}
	if totalSlots == 0 {
		return 1, leaked
	}
	return 1 - float64(leaked)/float64(totalSlots), leaked
}

// DomainIDs returns the live domain IDs in ascending order.
func (c *Controller) DomainIDs() []int { return stats.SortedKeys(c.domains) }

// RegisterMetrics registers the controller's event counters, a sampler
// contributing every live domain's NFLB hit/miss counts (the domain set
// can grow after registration, so these are sampled rather than bound),
// a reset hook that zeroes those sampled counts, and the Figure 17b
// utilization gauges.
func (c *Controller) RegisterMetrics(r *telemetry.Registry, prefix string) {
	r.RegisterCounter(prefix+".assignments", &c.Assignments)
	r.RegisterCounter(prefix+".untracked_slots", &c.Untracked)
	r.RegisterCounter(prefix+".conversions", &c.Conversions)
	r.RegisterCounter(prefix+".migrations", &c.Migrations)
	r.RegisterCounter(prefix+".migrations_back", &c.MigrationsBack)
	r.RegisterCounter(prefix+".alloc_failures", &c.AllocFailures)
	r.RegisterSampler(func(s *telemetry.Sample) {
		for _, id := range stats.SortedKeys(c.domains) {
			nflb := c.domains[id].nflb
			s.Counter(fmt.Sprintf("%s.nflb.d%d.hits", prefix, id), nflb.Hits.Value())
			s.Counter(fmt.Sprintf("%s.nflb.d%d.misses", prefix, id), nflb.Misses.Value())
		}
	})
	r.RegisterReset(func() {
		for _, id := range stats.SortedKeys(c.domains) {
			nflb := c.domains[id].nflb
			nflb.Hits.Reset()
			nflb.Misses.Reset()
		}
	})
	r.RegisterGauge(prefix+".utilization", func() float64 {
		util, _ := c.Utilization()
		return util
	})
	r.RegisterGauge(prefix+".untracked", func() float64 {
		_, untracked := c.Utilization()
		return float64(untracked)
	})
}

// UnassignedTreeLings returns the TreeLing IDs currently in the
// unassigned FIFO, in pop order.
func (c *Controller) UnassignedTreeLings() []int {
	return append([]int(nil), c.unassigned[c.fifoHead:]...)
}

// TamperNFLAvail flips one availability bit in a domain's in-memory NFL
// image — the fault injector's model of a corrupted or stale NFL entry.
// With set=true it re-offers a slot the metadata records as occupied
// (detected at the next allocation by the allocSlot cross-check); with
// set=false it hides a free slot (undetectable by design: the slot is
// merely lost capacity). Candidates are enumerated deterministically from
// the frontier block forward so the corruption sits where allocation will
// actually look; pick indexes into that candidate list. It returns a
// description of the flipped bit, or ok=false when the domain has no
// matching candidate (e.g. no occupied slots yet).
func (c *Controller) TamperNFLAvail(domainID int, set bool, pick uint64) (tl, node, slot int, ok bool) {
	d := c.domains[domainID]
	if d == nil || d.space == nil || len(d.space.regions) == 0 {
		return 0, 0, 0, false
	}
	type cand struct {
		e        *nflEntry
		slotBit  int
		tl, node int
	}
	var cands []cand
	ri, fb := d.space.clampedFrontier()
	for ; ri < len(d.space.regions); ri, fb = ri+1, 0 {
		r := d.space.regions[ri]
		for b := fb; b < r.nBlocks; b++ {
			es := d.space.block(r, b)
			for i := range es {
				e := &es[i]
				if e.tag < 0 {
					continue
				}
				etl, enode := unpackTag(e.tag)
				if !c.ownsTL(d, etl) {
					continue
				}
				occ := c.occupiedOf(etl)
				for s := 0; s < c.arity; s++ {
					bit := uint8(1) << uint(s)
					occupied := occ[enode]&bit != 0
					avail := e.avail&bit != 0
					if (set && occupied && !avail) || (!set && avail) {
						cands = append(cands, cand{e, s, etl, enode})
					}
				}
			}
		}
	}
	if len(cands) == 0 {
		return 0, 0, 0, false
	}
	ch := cands[pick%uint64(len(cands))]
	if set {
		ch.e.avail |= 1 << uint(ch.slotBit)
	} else {
		ch.e.avail &^= 1 << uint(ch.slotBit)
	}
	return ch.tl, ch.node, ch.slotBit, true
}
