// Package faults is the adversarial fault-injection and crash-recovery
// engine for the integrity-tree stack. It corrupts the simulated off-chip
// backing store the way a physical attacker (bus interposer, cold-boot,
// rowhammer) or a firmware-level adversary would — data bits, MACs,
// encryption counters, tree nodes, NFL entries, LMM-extended PTEs, replay
// of stale triples — and then checks the architecture's detection story:
// every covered fault class must surface as a typed *tree.IntegrityError
// naming what the verifier observed, and the classes the design cannot see
// (hidden free slots, scratch corruption in unassigned TreeLings) must be
// explicitly benign, never a panic or a silent wrong answer.
//
// Injection is seeded and deterministic: the same (config, scheme, class,
// seed) picks the same target and produces the same report, so failures
// replay exactly. One injector, Inject, serves two fixtures: the
// functional workbench behind InjectAndDetect and a live simulated
// machine armed through SimInjection (live.go). The crash model
// (crash.go) kills a run at op k and replays Phoenix-style recovery from
// the persisted image.
package faults

import (
	"errors"
	"fmt"

	"ivleague/internal/config"
	"ivleague/internal/core"
	"ivleague/internal/layout"
	"ivleague/internal/rng"
	"ivleague/internal/secmem"
	"ivleague/internal/tree"
)

// Class names one fault-injection class.
type Class string

const (
	// ClassDataBit flips one ciphertext bit; detected by the MAC check.
	ClassDataBit Class = "data-bit"
	// ClassDataSplice copies a valid (ciphertext, MAC) pair to another
	// address; detected by the address-bound MAC.
	ClassDataSplice Class = "data-splice"
	// ClassMAC flips a bit of the stored MAC itself.
	ClassMAC Class = "mac"
	// ClassCounter bumps an off-chip minor counter behind the tree's back;
	// detected by the verification walk (counter-hash mismatch).
	ClassCounter Class = "counter"
	// ClassTreeNode overwrites a stored tree-node slot hash; detected by
	// the walk one level up (or at the on-chip root).
	ClassTreeNode Class = "tree-node"
	// ClassNFLSet re-offers an occupied slot by setting its NFL avail bit;
	// detected at the next allocation by the assignment-table cross-check.
	ClassNFLSet Class = "nfl-set"
	// ClassNFLClear hides a free slot by clearing its avail bit. Benign by
	// design: the slot is lost capacity, no integrity statement depends on
	// it.
	ClassNFLClear Class = "nfl-clear"
	// ClassLMM forges the Leaf-ID field of an extended PTE; the misdirected
	// verification walk fails against the untampered tree.
	ClassLMM Class = "lmm"
	// ClassRollback replays a stale but self-consistent (ciphertext, MAC,
	// counter) triple; only the tree (rooted on-chip) sees the stale
	// counter.
	ClassRollback Class = "rollback"
	// ClassScratchNode corrupts a node of an unassigned TreeLing. Benign by
	// design: no domain verifies through it, and assignment reinitializes
	// whatever it needs.
	ClassScratchNode Class = "scratch-node"
)

// Classes returns every fault class in a fixed, deterministic order.
func Classes() []Class {
	return []Class{
		ClassDataBit, ClassDataSplice, ClassMAC, ClassCounter, ClassTreeNode,
		ClassNFLSet, ClassNFLClear, ClassLMM, ClassRollback, ClassScratchNode,
	}
}

// Detectable reports whether the architecture is expected to detect the
// class. The complement is benign by design, not a detection miss.
func (c Class) Detectable() bool {
	switch c {
	case ClassNFLClear, ClassScratchNode:
		return false
	}
	return true
}

// AppliesTo reports whether the class exists under the scheme: the NFL,
// LMM and scratch-TreeLing classes target IvLeague-only structures.
func (c Class) AppliesTo(scheme config.Scheme) bool {
	switch c {
	case ClassNFLSet, ClassNFLClear, ClassLMM, ClassScratchNode:
		return scheme.IsIvLeague()
	}
	return true
}

// Injection records one applied fault and where its detection shows.
type Injection struct {
	Class Class
	// Desc names the corrupted structure for reports.
	Desc string
	// pfn and block locate the block whose verified read should trip
	// detection (page-targeted classes); nflDomain is the domain whose
	// allocations should (nfl-set).
	pfn       layout.PFN
	block     int
	nflDomain int
}

// ErrNoTarget is returned by Inject when the class has no target in the
// current machine state (e.g. no occupied NFL slot yet). It is a skip, not
// a detection failure.
var ErrNoTarget = errors.New("faults: no injection target available")

// Inject applies one fault of the class to a functional controller. Every
// target comes from the controller itself — mapped pages, materialized
// counter blocks, live domains, unassigned TreeLings — drawn with r, so
// the same machine state and r land the same fault. The data-plane
// classes (data-bit, data-splice, mac, rollback) aim at block 0 of a
// mapped page and return ErrNoTarget where that block was never written,
// as on a machine driven only through the timing path. The machine is
// left tampered.
func Inject(c *secmem.Controller, class Class, r *rng.Source) (*Injection, error) {
	if !c.Functional() {
		return nil, errors.New("faults: injection requires a functional controller")
	}
	if !class.AppliesTo(c.Scheme()) {
		return nil, fmt.Errorf("%w: class %s does not apply to %v", ErrNoTarget, class, c.Scheme())
	}
	lay := c.Layout()
	inj := &Injection{Class: class}
	switch class {
	case ClassCounter:
		// Valid targets are exactly the materialized counter blocks (pages
		// that have been written back); the store knows them directly, so
		// the no-target answer stays cheap for a hook that retries per op.
		pfns := c.Counters().PFNs()
		if len(pfns) == 0 {
			return nil, fmt.Errorf("%w: no materialized counter block", ErrNoTarget)
		}
		inj.pfn = pfns[r.Intn(len(pfns))]
		inj.block = r.Intn(config.BlocksPerPage)
		inj.Desc = fmt.Sprintf("bump minor counter of pfn %d block %d", inj.pfn, inj.block)
		return inj, c.TamperCounter(inj.pfn, inj.block)

	case ClassNFLSet, ClassNFLClear:
		set := class == ClassNFLSet
		pick := r.Uint64()
		ids := c.IvLeague().DomainIDs()
		for _, off := range r.Perm(len(ids)) {
			dom := ids[off]
			if tl, node, s, ok := c.IvLeague().TamperNFLAvail(dom, set, pick); ok {
				inj.nflDomain = dom
				inj.Desc = fmt.Sprintf("flip avail (set=%v) of TreeLing %d node %d slot %d, domain %d", set, tl, node, s, dom)
				return inj, nil
			}
		}
		return nil, fmt.Errorf("%w: no NFL candidate (set=%v)", ErrNoTarget, set)

	case ClassScratchNode:
		un := c.IvLeague().UnassignedTreeLings()
		if len(un) == 0 {
			return nil, fmt.Errorf("%w: no unassigned TreeLing", ErrNoTarget)
		}
		tl := un[r.Intn(len(un))]
		node := r.Intn(lay.NodesPerTreeLing)
		slot := r.Intn(lay.Arity)
		c.Forest().Corrupt(tl, node, slot, r.Uint64()|1)
		inj.Desc = fmt.Sprintf("scribble on unassigned TreeLing %d node %d slot %d", tl, node, slot)
		return inj, nil
	}

	// The remaining classes target one mapped page.
	pages := c.MappedPages()
	if len(pages) == 0 {
		return nil, fmt.Errorf("%w: no mapped pages", ErrNoTarget)
	}
	i := r.Intn(len(pages))
	inj.pfn = pages[i].PFN
	var err error
	switch class {
	case ClassTreeNode:
		garbage := r.Uint64() | 1
		if f := c.Forest(); f != nil {
			slot, ok := c.SlotOf(inj.pfn)
			if !ok {
				return nil, fmt.Errorf("%w: pfn %d has no slot", ErrNoTarget, inj.pfn)
			}
			f.Corrupt(slot.TreeLing(), slot.Node(), slot.Slot(), garbage)
			inj.Desc = fmt.Sprintf("overwrite TreeLing %d node %d slot %d", slot.TreeLing(), slot.Node(), slot.Slot())
			return inj, nil
		}
		idx := lay.GlobalNodeIndex(inj.pfn, 1)
		slot := int(uint64(inj.pfn) % uint64(lay.Arity))
		c.GlobalTree().Corrupt(1, idx, slot, garbage)
		inj.Desc = fmt.Sprintf("overwrite global node L1/%d slot %d", idx, slot)
		return inj, nil

	case ClassLMM:
		slot, ok := c.SlotOf(inj.pfn)
		if !ok {
			return nil, fmt.Errorf("%w: pfn %d has no LMM entry", ErrNoTarget, inj.pfn)
		}
		forgedNode := (slot.Node() + 1 + r.Intn(lay.NodesPerTreeLing-1)) % lay.NodesPerTreeLing
		forged := core.MakeSlot(slot.TreeLing(), forgedNode, slot.Slot())
		inj.Desc = fmt.Sprintf("forge LMM of pfn %d: %v -> %v", inj.pfn, slot, forged)
		_, err = c.TamperLMM(inj.pfn, forged)

	case ClassDataBit:
		bit := r.Intn(config.BlockBytes * 8)
		inj.Desc = fmt.Sprintf("flip ciphertext bit %d of pfn %d block 0", bit, inj.pfn)
		err = c.FlipDataBit(inj.pfn, 0, bit)

	case ClassMAC:
		bit := r.Intn(64)
		inj.Desc = fmt.Sprintf("flip MAC bit %d of pfn %d block 0", bit, inj.pfn)
		err = c.CorruptMAC(inj.pfn, 0, bit)

	case ClassDataSplice:
		if len(pages) < 2 {
			return nil, fmt.Errorf("%w: splicing needs two mapped pages", ErrNoTarget)
		}
		src := pages[(i+1+r.Intn(len(pages)-1))%len(pages)].PFN
		inj.Desc = fmt.Sprintf("splice pfn %d block 0 over pfn %d block 0", src, inj.pfn)
		err = c.SpliceData(src, 0, inj.pfn, 0)

	case ClassRollback:
		inj.Desc = fmt.Sprintf("replay stale triple of pfn %d block 0", inj.pfn)
		err = replayStale(c, pages[i], r)

	default:
		return nil, fmt.Errorf("faults: unknown class %q", class)
	}
	if errors.Is(err, secmem.ErrNoTamperTarget) {
		return nil, fmt.Errorf("%w: %v", ErrNoTarget, err)
	}
	if err != nil {
		return nil, err
	}
	return inj, nil
}

// replayStale snapshots block 0 of the page, overwrites it with fresh
// plaintext and restores the stale (ciphertext, MAC, counter) triple.
func replayStale(c *secmem.Controller, p secmem.PageRef, r *rng.Source) error {
	snap, err := c.SnapshotBlock(p.PFN, 0)
	if err != nil {
		return err
	}
	payload := make([]byte, config.BlockBytes)
	for j := range payload {
		payload[j] = byte(r.Uint64())
	}
	if _, err := c.WriteBlock(secmem.AccessRequest{Domain: p.Domain, VPN: p.VPN, PFN: p.PFN}, payload); err != nil {
		return err
	}
	c.ReplayBlock(snap)
	return nil
}

// workbench is the self-contained functional machine InjectAndDetect
// attacks: a secure-memory controller with two domains, pagesPerDomain
// mapped pages each and seeded plaintext written to block 0 of every page
// through the full secure path. Deterministic under its seed.
type workbench struct {
	c       *secmem.Controller
	r       *rng.Source
	nextPFN map[int]layout.PFN
	nextVPN map[int]layout.VPN
}

// workbenchDomains are the domain IDs the workbench creates.
var workbenchDomains = []int{1, 2}

// pagesPerDomain sizes the workbench footprint: enough pages that every
// class has targets (multiple TreeLings under small configs) while sweeps
// stay fast.
const pagesPerDomain = 12

// newWorkbench builds the attack fixture for (cfg, scheme, seed).
func newWorkbench(cfg *config.Config, scheme config.Scheme, seed uint64) (*workbench, error) {
	c, err := secmem.New(cfg, scheme, 2, secmem.WithFunctional())
	if err != nil {
		return nil, err
	}
	w := &workbench{
		c:       c,
		r:       rng.New(seed).ForkString("faults"),
		nextPFN: make(map[int]layout.PFN),
		nextVPN: make(map[int]layout.VPN),
	}
	for _, dom := range workbenchDomains {
		if err := c.CreateDomain(dom); err != nil {
			return nil, err
		}
		if scheme == config.SchemeStaticPartition {
			lo, _ := c.PartitionRange(dom)
			w.nextPFN[dom] = lo
		} else {
			// Interleave domains over the shared frame space.
			w.nextPFN[dom] = layout.PFN(dom - 1)
		}
		w.nextVPN[dom] = 0x1000
	}
	payload := make([]byte, config.BlockBytes)
	for i := 0; i < pagesPerDomain; i++ {
		for _, dom := range workbenchDomains {
			vpn, pfn, err := w.mapFresh(dom)
			if err != nil {
				return nil, err
			}
			for j := range payload {
				payload[j] = byte(w.r.Uint64())
			}
			if _, err := c.WriteBlock(secmem.AccessRequest{Domain: dom, VPN: vpn, PFN: pfn}, payload); err != nil {
				return nil, err
			}
		}
	}
	return w, nil
}

// mapFresh maps one new page into the domain and returns its (vpn, pfn).
func (w *workbench) mapFresh(dom int) (vpn layout.VPN, pfn layout.PFN, err error) {
	pfn = w.nextPFN[dom]
	if uint64(pfn) >= w.c.Layout().Pages {
		return 0, 0, fmt.Errorf("faults: domain %d out of frames", dom)
	}
	if w.c.Scheme() == config.SchemeStaticPartition {
		w.nextPFN[dom] = pfn + 1
	} else {
		w.nextPFN[dom] = pfn + layout.PFN(len(workbenchDomains))
	}
	vpn = w.nextVPN[dom]
	w.nextVPN[dom]++
	if _, err := w.c.OnPageMap(0, dom, vpn, pfn); err != nil {
		return 0, 0, err
	}
	return vpn, pfn, nil
}

// Report is the outcome of one inject-and-detect cycle.
type Report struct {
	Class  Class
	Scheme config.Scheme
	Desc   string
	// Detectable is the architecture's promise for the class; Detected is
	// what the probe observed. A sound run has Detected == Detectable.
	Detectable bool
	Detected   bool
	// Err is the typed violation the verifier raised, when one was.
	Err *tree.IntegrityError
}

// Ok reports whether the outcome matches the architecture's promise:
// detected when detectable, silent when benign.
func (r Report) Ok() bool { return r.Detected == r.Detectable }

// String renders the report for logs.
func (r Report) String() string {
	verdict := "benign (as designed)"
	if r.Detected {
		verdict = fmt.Sprintf("DETECTED: %v", r.Err)
	} else if r.Detectable {
		verdict = "MISSED"
	}
	return fmt.Sprintf("[%v/%s] %s -> %s", r.Scheme, r.Class, r.Desc, verdict)
}

// nflProbeCap bounds the allocations the NFL probe performs while driving
// the frontier over the corrupted entry.
const nflProbeCap = 1 << 14

// probe runs the detection check for an applied injection: metadata caches
// are flushed (so the next access re-verifies from memory) and the
// relevant access path is exercised. It classifies the outcome; any error
// that is not a typed IntegrityError is returned as a harness failure.
func (w *workbench) probe(inj *Injection) (Report, error) {
	rep := Report{Class: inj.Class, Scheme: w.c.Scheme(), Desc: inj.Desc, Detectable: inj.Class.Detectable()}
	w.c.FlushMetadata()
	err := w.exercise(inj)
	var ie *tree.IntegrityError
	switch {
	case err == nil:
	case errors.As(err, &ie):
		rep.Detected, rep.Err = true, ie
	default:
		return rep, fmt.Errorf("faults: probe of %s failed outside the integrity path: %w", inj.Class, err)
	}
	return rep, nil
}

// exercise drives the access path that should trip detection of inj and
// returns its first error.
func (w *workbench) exercise(inj *Injection) error {
	buf := make([]byte, config.BlockBytes)
	read := func(p secmem.PageRef, block int) error {
		_, err := w.c.ReadBlock(secmem.AccessRequest{Domain: p.Domain, VPN: p.VPN, PFN: p.PFN, Block: block}, buf)
		return err
	}
	switch inj.Class {
	case ClassNFLSet:
		// Drive allocations until the frontier reaches the corrupted entry
		// and the allocSlot cross-check fires.
		for i := 0; i < nflProbeCap; i++ {
			if _, _, err := w.mapFresh(inj.nflDomain); err != nil {
				return err
			}
		}
		return nil

	case ClassNFLClear, ClassScratchNode:
		// Benign classes: the machine must keep working. Allocate a little
		// and re-read block 0 of every mapped page.
		for i := 0; i < 8; i++ {
			for _, dom := range workbenchDomains {
				if _, _, err := w.mapFresh(dom); err != nil {
					return err
				}
			}
		}
		w.c.FlushMetadata()
		for _, p := range w.c.MappedPages() {
			if err := read(p, 0); err != nil {
				return err
			}
		}
		return nil
	}
	// Page-targeted classes: read the tampered block.
	for _, p := range w.c.MappedPages() {
		if p.PFN == inj.pfn {
			return read(p, inj.block)
		}
	}
	return fmt.Errorf("faults: tampered pfn %d is not mapped", inj.pfn)
}

// InjectAndDetect is the one-call sweep entry: build a workbench for
// (cfg, scheme, seed), inject one fault of the class and probe for its
// detection. ErrNoTarget skips are returned as errors for the caller to
// filter.
func InjectAndDetect(cfg *config.Config, scheme config.Scheme, class Class, seed uint64) (Report, error) {
	w, err := newWorkbench(cfg, scheme, seed)
	if err != nil {
		return Report{}, err
	}
	inj, err := Inject(w.c, class, w.r)
	if err != nil {
		return Report{}, err
	}
	return w.probe(inj)
}
