package secmem

import (
	"errors"
	"fmt"

	"ivleague/internal/config"
	"ivleague/internal/core"
	"ivleague/internal/layout"
	"ivleague/internal/telemetry"
	"ivleague/internal/tree"
)

// AccessRequest describes one LLC-miss memory transaction entering the
// secure-memory path. The typed VPN/PFN fields make the historical
// "swapped vpn/pfn arguments" bug a compile error instead of a silent
// mis-simulation.
type AccessRequest struct {
	// Now is the current simulated cycle (DRAM timing reference).
	Now uint64
	// Domain is the issuing IV domain.
	Domain int
	// VPN is the virtual page the access targets (LMM/PTE addressing).
	VPN layout.VPN
	// PFN is the physical frame the access targets.
	PFN layout.PFN
	// Block is the 64-byte block index within the page.
	Block int
	// Write marks the secure write of a dirty line; false models a read
	// with integrity verification.
	Write bool
}

// AccessResult carries the outcome of a secure-memory transaction.
type AccessResult struct {
	// Latency is the added latency in cycles.
	Latency int
}

// auditTouch records one integrity-metadata touch with the attached audit.
// Counter blocks and PTE blocks are deliberately not recorded: both are
// statically addressed (per-frame / per-domain), so frame reuse across
// domains over time would register as sharing without any tree node ever
// being shared. Cache-eviction writebacks are likewise excluded — evicting
// another domain's victim is a hardware artifact, not a metadata use.
func (c *Controller) auditTouch(domain, tl, level, node int) {
	if c.audit != nil {
		c.audit.Touch(domain, telemetry.NodeKey{TreeLing: tl, Level: level, Node: node})
	}
}

// OnPageMap performs the scheme's work when the OS maps a new page into a
// domain: IvLeague assigns a TreeLing slot (possibly assigning a whole new
// TreeLing) and installs the LMM entry; static partitioning checks the
// frame lies in the domain's partition. It returns the added latency.
func (c *Controller) OnPageMap(now uint64, domain int, vpn layout.VPN, pfn layout.PFN) (int, error) {
	if uint64(domain)>>ownerDomBits != 0 {
		return 0, fmt.Errorf("secmem: domain %d outside [0, 2^%d)", domain, ownerDomBits)
	}
	if uint64(vpn)>>ownerVPNBits != 0 {
		return 0, fmt.Errorf("secmem: vpn %#x wider than %d bits", uint64(vpn), ownerVPNBits)
	}
	pm := c.pages.Ensure(pfn)
	pm.owner = ownerMapped | uint64(domain)<<ownerVPNBits | uint64(vpn)
	switch {
	case c.ivc != nil:
		c.ops.Reset()
		slot, err := c.ivc.AllocPage(domain, pfn, &c.ops)
		if err != nil {
			// A rejected map (TreeLing starvation) must leave no residue,
			// or a phantom page with no slot would linger in the metadata.
			pm.owner &^= ownerMapped
			return 0, err
		}
		pm.setSlot(slot)
		c.lmm.Access(domain, vpn, true) // install the LMM entry
		mmT := c.phases.Start()
		lat, err := c.replayOps(now, domain)
		c.phases.End(telemetry.PhaseMeta, mmT)
		if err != nil {
			return 0, err
		}
		// A fresh TreeLing's NFL initialization (dozens of block writes)
		// runs in the background; only a bounded portion serializes with
		// the faulting access.
		if cap := 2 * c.cfg.DRAM.RowMissLatency; lat > cap {
			lat = cap
		}
		if c.tracer != nil {
			c.tracer.Emit(telemetry.Event{
				Class: telemetry.ClassPageMap, TS: float64(now), Dur: float64(lat),
				Core: -1, Domain: domain, TreeLing: slot.TreeLing(),
				Level: c.lay.LevelOf(slot.Node()), Node: slot.Node(),
			})
		}
		if c.forest != nil {
			// Fresh pages verify against their zero counter block.
			c.forest.SetSlot(slot.TreeLing(), slot.Node(), slot.Slot(),
				tree.CounterBlockHash(pfn, c.counters.Snapshot(pfn)))
		}
		return lat, nil
	case c.scheme == config.SchemeStaticPartition:
		lo, hi := c.PartitionRange(domain)
		lat := 0
		if pfn < lo || pfn >= hi {
			// The OS could not honour the partition: the paper's static
			// scheme requires swapping. Charge a swap penalty.
			c.SwapPenalties.Inc()
			lat = c.cfg.DRAM.RowMissLatency * 64
		}
		if c.global != nil {
			c.global.Update(pfn, c.counters.Snapshot(pfn))
		}
		return lat, nil
	default:
		if c.global != nil {
			c.global.Update(pfn, c.counters.Snapshot(pfn))
		}
		return 0, nil
	}
}

// OnPageUnmap releases a page's metadata when the OS unmaps it. An error
// (freeing an unknown or already-free slot) means the OS and the scheme
// disagree about the page's state; the caller must fail the run.
func (c *Controller) OnPageUnmap(now uint64, domain int, vpn layout.VPN, pfn layout.PFN) (int, error) {
	pm := c.pages.Get(pfn)
	if pm != nil {
		pm.owner &^= ownerMapped
	}
	c.counters.Drop(pfn)
	if p := c.data.Get(pfn); p != nil {
		// The counters died with the mapping, so any retained ciphertext
		// is undecryptable garbage: a re-mapped frame must read as
		// never-written memory, not fail the MAC check on stale blocks.
		*p = nil
	}
	if c.ivc != nil {
		c.ops.Reset()
		var slot core.SlotID
		if pm != nil {
			slot, _ = pm.slot()
		}
		if rs, changed := c.ivc.Resolve(domain, slot); changed {
			slot = rs
		}
		if err := c.ivc.FreePage(domain, pfn, slot, &c.ops); err != nil {
			return 0, fmt.Errorf("secmem: FreePage: %w", err)
		}
		if pm != nil {
			pm.lmm = 0
		}
		c.lmm.Invalidate(domain, vpn)
		mmT := c.phases.Start()
		lat, err := c.replayOps(now, domain)
		c.phases.End(telemetry.PhaseMeta, mmT)
		if err == nil && c.tracer != nil {
			c.tracer.Emit(telemetry.Event{
				Class: telemetry.ClassPageUnmap, TS: float64(now), Dur: float64(lat),
				Core: -1, Domain: domain, TreeLing: slot.TreeLing(),
				Level: c.lay.LevelOf(slot.Node()), Node: slot.Node(),
			})
		}
		return lat, err
	}
	if c.global != nil {
		c.global.Update(pfn, c.counters.Snapshot(pfn))
	}
	return 0, nil
}

// Do models one LLC-miss memory transaction through the secure-memory
// path and returns its latency in cycles. A write request models the
// secure write of a dirty line (counter increment, tree update, encrypted
// data write); a read request models a read with integrity verification.
//
// In functional mode a read verifies the real hash chain and returns an
// error if the memory was tampered with.
//
// Do performs no heap allocation in the steady state (pages mapped, OpList
// warmed), which keeps the simulator's hot loop free of GC pressure.
//
//ivlint:hotpath
func (c *Controller) Do(req AccessRequest) (AccessResult, error) {
	dataAddr := layout.DataBlockAddr(req.PFN, req.Block)
	lat := 0

	// Locate the page's verification slot (IvLeague: LMM lookup, lazy
	// resolution of converted slots, Pro hot tracking). The leaf ID is
	// only *needed* when the verification walk runs (counter and data
	// addresses are statically mapped), so an LMM miss costs its PTE read
	// inside the counter-miss branch, overlapped with nothing — not on
	// every access.
	var slot core.SlotID
	lmmMiss := false
	if c.ivc != nil {
		mcT := c.phases.Start()
		c.ops.Reset()
		if hit := c.lmm.Access(req.Domain, req.VPN, false); !hit {
			// LMM miss: if the leaf ID turns out to be needed (a
			// verification walk or a tree update), the extended PTE is
			// read from memory at that point.
			lmmMiss = true
		} else {
			lat += c.cfg.IvLeague.LMMCache.HitLatency
		}
		pm := c.pages.Get(req.PFN)
		if pm == nil || pm.lmm == 0 {
			return AccessResult{}, fmt.Errorf("secmem: access to unmapped pfn %d", uint64(req.PFN))
		}
		slot, _ = pm.slot()
		if rs, changed := c.ivc.Resolve(req.Domain, slot); changed {
			// Figure 12c: the LMM pointed at a converted parent slot;
			// refresh it to the page's effective slot.
			pm.setSlot(rs)
			slot = rs
			c.lmm.Access(req.Domain, req.VPN, true)
		}
		if ns, migrated := c.ivc.OnAccess(req.Domain, req.PFN, slot, &c.ops); migrated {
			slot = ns
		}
		c.phases.End(telemetry.PhaseMetaCache, mcT)
		mmT := c.phases.Start()
		rlat, err := c.replayOps(req.Now, req.Domain)
		c.phases.End(telemetry.PhaseMeta, mmT)
		if err != nil {
			return AccessResult{}, err
		}
		lat += rlat
	}

	if req.Write {
		if lmmMiss {
			// The write path always updates the page's tree node.
			lat += c.dram.Access(req.Now, c.lay.PTEAddr(req.Domain, req.VPN), false)
		}
		wlat, err := c.secureWrite(req.Now, req.Domain, req.VPN, req.PFN, req.Block, dataAddr, slot, lat)
		return AccessResult{Latency: wlat}, err
	}
	rlat, err := c.secureRead(req.Now, req.Domain, req.VPN, req.PFN, dataAddr, slot, lat, lmmMiss)
	return AccessResult{Latency: rlat}, err
}

// secureRead: fetch data and counter in parallel, verify the counter
// through the tree when it misses on-chip, then MAC-check.
func (c *Controller) secureRead(now uint64, domain int, vpn layout.VPN, pfn layout.PFN, dataAddr uint64, slot core.SlotID, lat int, lmmMiss bool) (int, error) {
	c.DataReads.Inc()
	dataLat := c.dram.Access(now, dataAddr, false)
	metaLat, verified, err := c.counterFetch(now, domain, vpn, pfn, slot, false, lmmMiss)
	if err != nil {
		return 0, err
	}
	if verified && c.functional {
		cyT := c.phases.Start()
		err := c.functionalVerify(domain, pfn, slot)
		c.phases.End(telemetry.PhaseCrypto, cyT)
		if err != nil {
			c.TamperEvents.Inc()
			return 0, err
		}
	}
	// Strict verification (as in SGX-class processors): data is released
	// to the core only after its counter is verified and the MAC checked,
	// so the verification walk serializes with the tail of the data
	// fetch. The counter fetch itself overlaps the data fetch.
	if verified {
		lat += dataLat + metaLat
	} else if metaLat > dataLat {
		lat += metaLat
	} else {
		lat += dataLat
	}
	lat += c.engine.MACLatency()
	return lat, nil
}

// secureWrite: bump the counter (re-encrypting the page on minor
// overflow), update the leaf tree node, write the encrypted data back.
func (c *Controller) secureWrite(now uint64, domain int, vpn layout.VPN, pfn layout.PFN, block int, dataAddr uint64, slot core.SlotID, lat int) (int, error) {
	c.DataWrites.Inc()
	metaLat, walked, err := c.counterFetch(now, domain, vpn, pfn, slot, true, false)
	if err != nil {
		return 0, err
	}
	lat += metaLat
	// The fetched counter must be verified before the read-modify-write
	// below, or a tampered counter would be incremented and re-hashed into
	// the tree — laundering the tamper instead of detecting it.
	if walked && c.functional {
		cyT := c.phases.Start()
		err := c.functionalVerify(domain, pfn, slot)
		c.phases.End(telemetry.PhaseCrypto, cyT)
		if err != nil {
			c.TamperEvents.Inc()
			return 0, err
		}
	}

	if overflow := c.counters.Increment(pfn, block); overflow {
		// Minor-counter overflow: the whole page is re-encrypted under
		// the new major counter (reads + writes of every block; charged
		// at one DRAM transaction per 8 blocks as a pipelined stream).
		c.Overflows.Inc()
		for i := 0; i < config.BlocksPerPage; i += 8 {
			a := layout.DataBlockAddr(pfn, i)
			lat += c.dram.Access(now, a, false)
			c.dram.Access(now, a, true)
		}
		lat += c.engine.AESLatency()
	}

	// Update the tree node holding this counter block's hash, up to the
	// first on-chip level (dirty in the tree cache).
	twT := c.phases.Start()
	leafLat, err := c.updateLeafNode(now, domain, pfn, slot)
	c.phases.End(telemetry.PhaseTreeWalk, twT)
	if err != nil {
		return 0, err
	}
	lat += leafLat
	lat += c.engine.MACLatency() // MAC regeneration (pipelined)

	// Posted encrypted-data write.
	lat += c.dram.Access(now, dataAddr, true)

	// Functional hash maintenance.
	if c.functional {
		cyT := c.phases.Start()
		snap := c.counters.Snapshot(pfn)
		if c.forest != nil && slot != core.InvalidSlot {
			c.forest.SetSlot(slot.TreeLing(), slot.Node(), slot.Slot(),
				tree.CounterBlockHash(pfn, snap))
		} else if c.global != nil {
			c.global.Update(pfn, snap)
		}
		c.phases.End(telemetry.PhaseCrypto, cyT)
	}
	return lat, nil
}

// counterFetch accesses the page's counter block through the counter
// cache; a miss fetches it from memory and triggers a verification walk.
// The counter address is statically mapped, so the fetch needs no leaf
// ID. The walk does: with readPTE (an LMM miss on the read path), the
// page's extended PTE is read after the counter and before the walk. It
// returns the latency and whether a verification walk happened.
func (c *Controller) counterFetch(now uint64, domain int, vpn layout.VPN, pfn layout.PFN, slot core.SlotID, write, readPTE bool) (int, bool, error) {
	ctrAddr, err := c.lay.CounterBlockAddr(pfn)
	if err != nil {
		return 0, false, err
	}
	mcT := c.phases.Start()
	res := c.counterCache.Access(ctrAddr, write)
	c.phases.End(telemetry.PhaseMetaCache, mcT)
	lat := res.Latency
	if res.EvictedDirty {
		c.dram.Access(now, res.WritebackAddr, true)
	}
	if res.Hit {
		return lat, false, nil
	}
	lat += c.dram.Access(now, ctrAddr, false)
	if readPTE {
		lat += c.dram.Access(now, c.lay.PTEAddr(domain, vpn), false)
	}
	twT := c.phases.Start()
	walkLat, err := c.verifyWalk(now, domain, pfn, slot)
	c.phases.End(telemetry.PhaseTreeWalk, twT)
	if err != nil {
		return 0, false, err
	}
	return lat + walkLat, true, nil
}

// verifyWalk walks the page's verification path from its first tree node
// toward the root, reading and hashing every node until one is found in
// the (trusted, on-chip) tree cache. The levels above the path's top are
// on-chip, so the walk always terminates. The number of node blocks read
// from memory is the Figure 16 path-length metric.
func (c *Controller) verifyWalk(now uint64, domain int, pfn layout.PFN, slot core.SlotID) (int, error) {
	c.Verifications.Inc()
	lat := 0
	pathLen := 0
	for p := c.path(pfn, slot); p.level <= p.top; p.next() {
		// A cache hit still uses the node, so the touch is recorded
		// before the walk can terminate on it.
		c.auditTouch(domain, p.tl, p.level, int(p.node))
		addr, err := p.addr()
		if err != nil {
			return 0, err // a malformed address aborts the walk, charging nothing
		}
		res := c.treeCache.Access(addr, false)
		lat += res.Latency
		if res.EvictedDirty {
			c.dram.Access(now, res.WritebackAddr, true)
		}
		if res.Hit {
			break // trusted on-chip copy ends the walk
		}
		lat += c.dram.Access(now, addr, false)
		lat += c.engine.HashLatency()
		pathLen++
	}
	c.pathHist(domain).Observe(pathLen)
	if c.tracer != nil {
		tl, node := -1, -1
		if c.ivc != nil {
			tl, node = slot.TreeLing(), slot.Node()
		}
		c.tracer.Emit(telemetry.Event{
			Class: telemetry.ClassVerify, TS: float64(now), Dur: float64(lat),
			Core: -1, Domain: domain, TreeLing: tl, Level: pathLen, Node: node,
		})
	}
	return lat, nil
}

// updateLeafNode marks the tree node holding the page's counter hash
// dirty in the tree cache (fetching it on a miss), modelling the write
// path's tree update up to the cached level.
func (c *Controller) updateLeafNode(now uint64, domain int, pfn layout.PFN, slot core.SlotID) (int, error) {
	p := c.path(pfn, slot)
	c.auditTouch(domain, p.tl, p.level, int(p.node))
	addr, err := p.addr()
	if err != nil {
		return 0, err
	}
	res := c.treeCache.Access(addr, true)
	lat := res.Latency
	if res.EvictedDirty {
		c.dram.Access(now, res.WritebackAddr, true)
	}
	if !res.Hit {
		lat += c.dram.Access(now, addr, false)
	}
	return lat + c.engine.HashLatency(), nil
}

// functionalVerify checks the real hash chain for pfn. A mismatch comes
// back as a *tree.IntegrityError; the owning domain — which the tree layer
// does not know — is stamped onto it here.
func (c *Controller) functionalVerify(domain int, pfn layout.PFN, slot core.SlotID) error {
	snap := c.counters.Snapshot(pfn)
	var err error
	switch {
	case c.forest != nil && slot != core.InvalidSlot:
		err = c.forest.Verify(slot.TreeLing(), slot.Node(), slot.Slot(),
			tree.CounterBlockHash(pfn, snap))
	case c.global != nil:
		err = c.global.Verify(pfn, snap)
	}
	var ie *tree.IntegrityError
	if errors.As(err, &ie) && ie.Domain < 0 {
		ie.Domain = domain
	}
	return err
}

// replayOps charges the metadata-management memory traffic produced by
// the domain controller (NFL reads/writes, node hash moves, TreeLing
// initialization) on behalf of domain. TreeLing-node traffic goes through
// the tree cache; NFL and PTE traffic goes straight to DRAM (the NFLB is
// its only cache).
//
// It is the single checkpoint for address errors latched by the OpList: if
// any emission site produced a malformed address, no traffic is charged
// and the error is returned.
func (c *Controller) replayOps(now uint64, domain int) (int, error) {
	if err := c.ops.Err(); err != nil {
		c.ops.Reset()
		return 0, err
	}
	lat := 0
	for _, op := range c.ops.Ops {
		if op.Addr >= c.lay.TreeLingBase && op.Addr < c.lay.NFLBase {
			if c.audit != nil {
				if tl, node, err := c.lay.TreeLingNodeOfAddr(op.Addr); err == nil {
					c.auditTouch(domain, tl, c.lay.LevelOf(node), node)
				}
			}
			res := c.treeCache.Access(op.Addr, op.Write)
			lat += res.Latency
			if res.EvictedDirty {
				c.dram.Access(now, res.WritebackAddr, true)
			}
			if !res.Hit && !op.NoFetch {
				lat += c.dram.Access(now, op.Addr, op.Write)
			}
			continue
		}
		if c.audit != nil && op.Addr >= c.lay.NFLBase && op.Addr < c.lay.PTBase {
			// NFL blocks are per-TreeLing metadata: attribute them like
			// tree nodes, under the pseudo-level LevelNFL.
			blockIdx := int((op.Addr - c.lay.NFLBase) / config.BlockBytes)
			tl := blockIdx / c.lay.NFLBlocksPerTreeLing
			blk := blockIdx % c.lay.NFLBlocksPerTreeLing
			c.auditTouch(domain, tl, telemetry.LevelNFL, blk)
		}
		lat += c.dram.Access(now, op.Addr, op.Write)
	}
	c.ops.Reset()
	return lat, nil
}

// EvictMetadata invalidates a metadata line from the tree cache (the
// attacker's eviction primitive in the MetaLeak-style attack; see
// internal/attack). It returns whether the line was present.
func (c *Controller) EvictMetadata(addr uint64) bool {
	present, _ := c.treeCache.Invalidate(addr)
	return present
}

// FlushMetadata empties the counter, tree and LMM caches (used by tamper
// tests so the next access re-verifies from memory).
func (c *Controller) FlushMetadata() {
	c.counterCache.Flush()
	c.treeCache.Flush()
	if c.lmm != nil {
		c.lmm.Stats().Flush()
	}
}

// TLBEvicted must be called by the TLB's eviction hook so the LMM cache
// stays consistent (Section VI-C2).
func (c *Controller) TLBEvicted(domain int, vpn layout.VPN) {
	if c.lmm != nil {
		c.lmm.Invalidate(domain, vpn)
	}
}

// OnPageWalk must be called when a page-table walk completes (TLB miss):
// the LMM field of the fetched extended PTE is split off and installed in
// the LMM cache (Section VI-C2), so LLC misses under a TLB hit usually
// find the leaf ID on-chip. The walk itself is charged by the caller.
func (c *Controller) OnPageWalk(domain int, vpn layout.VPN) {
	if c.lmm != nil {
		c.lmm.Access(domain, vpn, false)
	}
}
