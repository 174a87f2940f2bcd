package core

import "ivleague/internal/layout"

// hotTracker is the per-domain n-entry access-frequency table integrated
// into the memory controller (Figure 14a). Hardware matches a key against
// every entry with one CAM lookup; here an open-addressed index maps each
// tracked key to its entry. Replacement takes the first invalid entry,
// else the lowest-index entry with the smallest counter: a binary
// min-heap of entry indices under that order keeps the pick at its root,
// so a miss reads it in O(1) instead of scanning (DESIGN.md §15).
type hotTracker struct {
	entries  []hotEntry
	index    u64table // key → index of the valid entry tracking it
	heap     []int32  // entry indices, a min-heap under lessEntry
	pos      []int32  // pos[i] is entry i's position in heap
	max      uint32   // counter saturation value
	thresh   uint32
	interval uint64
	accesses uint64
}

type hotEntry struct {
	pfn   uint64
	count uint32
	valid bool
}

func newHotTracker(n, counterBits int, thresh uint32, interval uint64) *hotTracker {
	if n <= 0 {
		panic("core: hot tracker needs at least one entry")
	}
	t := &hotTracker{
		entries:  make([]hotEntry, n),
		index:    newU64Table(n),
		heap:     make([]int32, n),
		pos:      make([]int32, n),
		max:      1<<uint(counterBits) - 1,
		thresh:   thresh,
		interval: interval,
	}
	// Every entry starts invalid, so index order is already heap order.
	for i := range t.heap {
		t.heap[i] = int32(i)
		t.pos[i] = int32(i)
	}
	return t
}

// lessEntry orders entries for replacement: invalid before valid, then
// the smaller counter, then the lower index.
func (t *hotTracker) lessEntry(a, b int32) bool {
	ea, eb := &t.entries[a], &t.entries[b]
	if ea.valid != eb.valid {
		return !ea.valid
	}
	if ea.count != eb.count {
		return ea.count < eb.count
	}
	return a < b
}

// siftDown restores the heap order below heap position p after the entry
// there moved later in the replacement order.
func (t *hotTracker) siftDown(p int) {
	h := t.heap
	x := h[p]
	for {
		c := 2*p + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && t.lessEntry(h[c+1], h[c]) {
			c++
		}
		if !t.lessEntry(h[c], x) {
			break
		}
		h[p] = h[c]
		t.pos[h[p]] = int32(p)
		p = c
	}
	h[p] = x
	t.pos[x] = int32(p)
}

// observe records an access to key and reports whether key's counter is
// at or above the hot threshold after it.
func (t *hotTracker) observe(key uint64) bool {
	t.accesses++
	if t.interval > 0 && t.accesses%t.interval == 0 {
		// Periodic counter clear (Section VII-B): hot pages must keep
		// earning their residency.
		for i := range t.entries {
			t.entries[i].count = 0
		}
		for p := len(t.heap)/2 - 1; p >= 0; p-- {
			t.siftDown(p)
		}
	}
	if i, ok := t.index.get(key); ok {
		e := &t.entries[i]
		if e.count < t.max {
			e.count++
			t.siftDown(int(t.pos[i]))
		}
		return e.count >= t.thresh
	}
	// Insert: first invalid entry, else Misra-Gries-style replacement —
	// decrement the smallest counter and only take its entry once it
	// reaches zero, so recurring warm pages survive one-shot traffic.
	// (A "more advanced hotpage detection mechanism" per Section VII-B.)
	r := t.heap[0]
	e := &t.entries[r]
	if e.valid {
		if e.count > 1 {
			// A smaller counter keeps the root the minimum.
			e.count--
			return false // newcomer not admitted this time
		}
		t.index.del(e.pfn)
	}
	*e = hotEntry{pfn: key, count: 1, valid: true}
	t.index.set(key, uint64(r))
	t.siftDown(0)
	return e.count >= t.thresh
}

// atThreshold reports whether key's counter has reached the hot threshold.
func (t *hotTracker) atThreshold(key uint64) bool {
	if i, ok := t.index.get(key); ok {
		return t.entries[i].count >= t.thresh
	}
	return false
}

// hotPageTable maps PFN → τhot slot. It is sized by its residents — at
// most the τhot slots of the domain's TreeLings — not by the highest PFN
// the domain ever migrated.
type hotPageTable struct{ tab u64table }

func newHotPageTable() *hotPageTable { return &hotPageTable{tab: newU64Table(0)} }

// get returns pfn's τhot slot, if resident.
func (h *hotPageTable) get(pfn layout.PFN) (SlotID, bool) {
	s, ok := h.tab.get(uint64(pfn))
	if !ok {
		return InvalidSlot, false
	}
	return SlotID(s), true
}

// set records pfn as resident in slot s.
func (h *hotPageTable) set(pfn layout.PFN, s SlotID) { h.tab.set(uint64(pfn), uint64(s)) }

// del drops pfn's residency record, if any.
func (h *hotPageTable) del(pfn layout.PFN) { h.tab.del(uint64(pfn)) }

// n returns the number of resident pages.
func (h *hotPageTable) n() int { return h.tab.n }

// forEach visits the resident pages in ascending PFN order — the canonical
// enumeration the state digest and the persist image rely on.
func (h *hotPageTable) forEach(fn func(pfn layout.PFN, s SlotID)) {
	for _, k := range h.tab.sortedKeys() {
		s, _ := h.tab.get(k)
		fn(layout.PFN(k), SlotID(s))
	}
}

// hotQueueLen returns the number of pages in the migration FIFO.
func (d *Domain) hotQueueLen() int { return len(d.hotOrder) - d.hotHead }

// hotQueuePush appends pfn to the migration FIFO, compacting the backing
// array in place (no allocation) when the popped head space can be reused.
func (d *Domain) hotQueuePush(pfn layout.PFN) {
	if len(d.hotOrder) == cap(d.hotOrder) && d.hotHead > 0 {
		n := copy(d.hotOrder, d.hotOrder[d.hotHead:])
		d.hotOrder = d.hotOrder[:n]
		d.hotHead = 0
	}
	//ivlint:allow hotalloc — FIFO ring compacts in place above; capacity stops growing at the τhot size
	d.hotOrder = append(d.hotOrder, pfn)
}

// hotQueuePop removes and returns the FIFO head.
func (d *Domain) hotQueuePop() layout.PFN {
	pfn := d.hotOrder[d.hotHead]
	d.hotHead++
	if d.hotHead == len(d.hotOrder) {
		d.hotOrder = d.hotOrder[:0]
		d.hotHead = 0
	}
	return pfn
}

// OnAccess feeds the IvLeague-Pro hotpage machinery with one page access.
// When the page becomes hot it is migrated into the τhot region; when a
// tracked page is evicted while resident in τhot it is migrated back to
// the regular region. The page's (possibly new) verification slot is
// returned; migrated reports whether the caller must refresh the LMM/PTE.
// For non-Pro modes this is a no-op.
//
//ivlint:hotpath
func (c *Controller) OnAccess(domainID int, pfn layout.PFN, slot SlotID, ops *OpList) (SlotID, bool) {
	if c.mode != ModePro {
		return slot, false
	}
	d := c.domains[domainID]
	if d == nil {
		return slot, false
	}
	hot := d.hot.observe(uint64(pfn))
	d.sinceMig++
	// The migration engine is rate-limited (one relocation per several
	// memory-controller accesses) so τhot residency favours genuinely
	// recurring pages instead of thrashing on one-shot traffic.
	if hot && d.sinceMig >= 8 {
		if _, already := d.hotPages.get(pfn); !already && !c.isHotNode(slot.Node()) {
			if ns, ok := c.migrateToHot(d, pfn, slot, ops); ok {
				d.sinceMig = 0
				return ns, true
			}
		}
	}
	return slot, false
}

// reclaimHot migrates the oldest τhot resident that is no longer tracked
// back to the regular region, freeing a hot slot. Reclamation is lazy —
// pages stay in τhot after leaving the tracker until the region fills —
// which keeps τhot near capacity and maximizes the hotpage acceleration.
func (c *Controller) reclaimHot(d *Domain, ops *OpList) bool {
	requeued := 0
	for d.hotQueueLen() > 0 && requeued <= d.hotQueueLen() {
		pfn := d.hotQueuePop()
		slot, ok := d.hotPages.get(pfn)
		if !ok {
			continue // freed or already reclaimed
		}
		// A ρ-conversion may have relocated the resident's hash since it
		// migrated (the parents of the topmost regular nodes are τhot
		// nodes, so claiming such a node converts a hot slot). Chase the
		// flags before touching the slot: moving from the recorded slot
		// would copy the child-node hash and zero a live parent link.
		if rs, changed := c.Resolve(d.id, slot); changed {
			if !c.isHotNode(rs.Node()) {
				// The relocation already pushed the page out of τhot;
				// there is nothing to migrate back, just drop the record.
				d.hotPages.del(pfn)
				continue
			}
			d.hotPages.set(pfn, rs)
			slot = rs
		}
		if d.hot.atThreshold(uint64(pfn)) {
			// It is still actively hot: keep it resident.
			d.hotQueuePush(pfn)
			requeued++
			continue
		}
		c.migrateBack(d, pfn, slot, ops)
		return true
	}
	return false
}

// migrateToHot moves a page's verification hash into the τhot region:
// find a reserved slot via the hot NFL (trying the page's own TreeLing
// first), copy the hash (one node read + one node write), release the old
// slot through the regular NFL path, and update the LMM.
func (c *Controller) migrateToHot(d *Domain, pfn layout.PFN, old SlotID, ops *OpList) (SlotID, bool) {
	own := d.hotSpace.regionOf(old.TreeLing())
	for attempt := 0; attempt < 2; attempt++ {
		// The page's own TreeLing first, then the others in assignment
		// order.
		ns, ok := c.claimHot(d, own, ops)
		for i := 0; !ok && i < len(d.hotSpace.regions); i++ {
			if hr := d.hotSpace.regions[i]; hr != own {
				ns, ok = c.claimHot(d, hr, ops)
			}
		}
		if ok {
			c.moveHash(d, old, ns, ops)
			c.clearOccupied(d, old)
			c.releaseRegular(d, old, ops) // the regular slot becomes free
			c.markOccupied(d, ns)
			d.hotPages.set(pfn, ns)
			d.hotQueuePush(pfn)
			c.Migrations.Inc()
			if c.leaf != nil {
				c.leaf.UpdateLeaf(d.id, pfn, ns)
			}
			return ns, true
		}
		// τhot full: lazily reclaim an inactive resident and retry.
		if !c.reclaimHot(d, ops) {
			break
		}
	}
	return InvalidSlot, false // τhot saturated with actively hot pages
}

// claimHot claims the first free slot of τhot region hr (nil: none).
func (c *Controller) claimHot(d *Domain, hr *nflRegion, ops *OpList) (SlotID, bool) {
	if hr == nil {
		return InvalidSlot, false
	}
	for b := 0; b < hr.nBlocks; b++ {
		tag, ok := d.hotSpace.peek(hr, b)
		if !ok {
			continue
		}
		d.nflb.Access(c.lay, hr.tl, hr.blockBase+b, false, ops)
		sl, ok := d.hotSpace.take(hr, b, tag)
		if !ok {
			continue
		}
		d.nflb.Access(c.lay, hr.tl, hr.blockBase+b, true, ops)
		_, node := unpackTag(tag)
		return MakeSlot(hr.tl, node, sl), true
	}
	return InvalidSlot, false
}

// migrateBack moves an inactive hotpage out of τhot into a regular slot.
func (c *Controller) migrateBack(d *Domain, pfn layout.PFN, hotSlot SlotID, ops *OpList) {
	d.hotPages.del(pfn)
	ns, err := c.allocSlot(d, ops)
	if err != nil {
		// No regular slot available: leave the page in τhot (it keeps
		// verifying correctly; τhot pressure persists).
		d.hotPages.set(pfn, hotSlot)
		return
	}
	c.moveHash(d, hotSlot, ns, ops)
	c.markOccupied(d, ns)
	c.clearOccupied(d, hotSlot)
	c.releaseHot(d, hotSlot, ops)
	c.MigrationsBack.Inc()
	if c.leaf != nil {
		c.leaf.UpdateLeaf(d.id, pfn, ns)
	}
}

// moveHash copies the verification hash from slot a to slot b (one node
// read, one node write) and clears a in the functional forest.
func (c *Controller) moveHash(d *Domain, a, b SlotID, ops *OpList) {
	ops.Read(c.lay.TreeLingNodeAddr(a.TreeLing(), a.Node()))
	ops.WriteNoFetch(c.lay.TreeLingNodeAddr(b.TreeLing(), b.Node()))
	if c.forest != nil {
		h := c.forest.Slot(a.TreeLing(), a.Node(), a.Slot())
		c.forest.SetSlot(b.TreeLing(), b.Node(), b.Slot(), h)
		c.forest.SetSlot(a.TreeLing(), a.Node(), a.Slot(), 0)
	}
}

// HotResident returns how many pages of the domain currently live in τhot.
func (c *Controller) HotResident(domainID int) int {
	if d := c.domains[domainID]; d != nil && d.hotPages != nil {
		return d.hotPages.n()
	}
	return 0
}

// IsHotSlot reports whether slot lies in the τhot region.
func (c *Controller) IsHotSlot(slot SlotID) bool { return c.isHotNode(slot.Node()) }
