package faults

import (
	"errors"
	"fmt"

	"ivleague/internal/config"
	"ivleague/internal/core"
	"ivleague/internal/rng"
	"ivleague/internal/secmem"
	"ivleague/internal/sim"
)

// This file arms the injector against a *live* simulated machine (cmd/ivsim
// -inject, the figure harness): the fault lands mid-run through an op hook
// and detection — if the class is detectable — happens through the
// machine's own subsequent verified accesses, surfacing as a failed run
// with Result.Tampered set.
//
// Only the metadata classes apply here: the timing path never exercises
// the MAC'd data plane (that is the workbench's ReadBlock territory), so
// data-bit/splice/MAC/rollback injections have nothing to corrupt on a
// machine driven purely through Do.

// ApplyLive injects one fault of the class into a live functional
// controller, picking a target deterministically from its current mapped
// pages. It returns a description of what was corrupted. ErrNoTarget
// means the class has no target on a live machine (data-plane classes, or
// no suitable state yet).
func ApplyLive(c *secmem.Controller, class Class, seed uint64) (string, error) {
	if !c.Functional() {
		return "", errors.New("faults: live injection requires a functional controller")
	}
	if !class.AppliesTo(c.Scheme()) {
		return "", fmt.Errorf("%w: class %s does not apply to %v", ErrNoTarget, class, c.Scheme())
	}
	r := rng.New(seed).ForkString("faults-live")
	lay := c.Layout()
	switch class {
	case ClassCounter:
		// Valid targets are exactly the materialized counter blocks (pages
		// that have been written back); the store knows them directly, so
		// the no-target probe stays O(1) for retrying hooks.
		pfns := c.Counters().PFNs()
		if len(pfns) == 0 {
			return "", fmt.Errorf("%w: no materialized counter block", ErrNoTarget)
		}
		pfn := pfns[r.Intn(len(pfns))]
		blk := r.Intn(config.BlocksPerPage)
		if err := c.TamperCounter(pfn, blk); err != nil {
			return "", err
		}
		return fmt.Sprintf("bump minor counter of pfn %d block %d", pfn, blk), nil

	case ClassTreeNode:
		pages := c.MappedPages()
		if len(pages) == 0 {
			return "", fmt.Errorf("%w: no mapped pages", ErrNoTarget)
		}
		p := pages[r.Intn(len(pages))]
		garbage := r.Uint64() | 1
		if f := c.Forest(); f != nil {
			slot, ok := c.SlotOf(p.PFN)
			if !ok {
				return "", fmt.Errorf("%w: pfn %d has no slot", ErrNoTarget, p.PFN)
			}
			f.Corrupt(slot.TreeLing(), slot.Node(), slot.Slot(), garbage)
			return fmt.Sprintf("overwrite TreeLing %d node %d slot %d", slot.TreeLing(), slot.Node(), slot.Slot()), nil
		}
		idx := lay.GlobalNodeIndex(p.PFN, 1)
		slot := int(uint64(p.PFN) % uint64(lay.Arity))
		c.GlobalTree().Corrupt(1, idx, slot, garbage)
		return fmt.Sprintf("overwrite global node L1/%d slot %d", idx, slot), nil

	case ClassLMM:
		pages := c.MappedPages()
		if len(pages) == 0 {
			return "", fmt.Errorf("%w: no mapped pages", ErrNoTarget)
		}
		p := pages[r.Intn(len(pages))]
		slot, ok := c.SlotOf(p.PFN)
		if !ok {
			return "", fmt.Errorf("%w: pfn %d has no LMM entry", ErrNoTarget, p.PFN)
		}
		forgedNode := (slot.Node() + 1 + r.Intn(lay.NodesPerTreeLing-1)) % lay.NodesPerTreeLing
		forged := core.MakeSlot(slot.TreeLing(), forgedNode, slot.Slot())
		if _, err := c.TamperLMM(p.PFN, forged); err != nil {
			return "", err
		}
		return fmt.Sprintf("forge LMM of pfn %d: %v -> %v", p.PFN, slot, forged), nil

	case ClassNFLSet, ClassNFLClear:
		set := class == ClassNFLSet
		pick := r.Uint64()
		ids := c.IvLeague().DomainIDs()
		for _, off := range r.Perm(len(ids)) {
			dom := ids[off]
			if tl, node, s, ok := c.IvLeague().TamperNFLAvail(dom, set, pick); ok {
				return fmt.Sprintf("flip avail (set=%v) of TreeLing %d node %d slot %d, domain %d", set, tl, node, s, dom), nil
			}
		}
		return "", fmt.Errorf("%w: no NFL candidate (set=%v)", ErrNoTarget, set)

	case ClassScratchNode:
		un := c.IvLeague().UnassignedTreeLings()
		if len(un) == 0 {
			return "", fmt.Errorf("%w: no unassigned TreeLing", ErrNoTarget)
		}
		tl := un[r.Intn(len(un))]
		node := r.Intn(lay.NodesPerTreeLing)
		slot := r.Intn(lay.Arity)
		c.Forest().Corrupt(tl, node, slot, r.Uint64()|1)
		return fmt.Sprintf("scribble on unassigned TreeLing %d node %d slot %d", tl, node, slot), nil
	}
	return "", fmt.Errorf("%w: class %s needs the workbench data plane", ErrNoTarget, class)
}

// LiveClasses lists the classes ApplyLive can land on a live machine; the
// remaining (data-plane) classes only exist on the workbench.
func LiveClasses() []Class {
	return []Class{ClassCounter, ClassTreeNode, ClassLMM,
		ClassNFLSet, ClassNFLClear, ClassScratchNode}
}

// SimInjection arms live injection for simulation runs: from op AtOp
// onward the hook tries to apply the fault to the machine's memory
// controller, landing it at the first op where a target exists (e.g. a
// counter block only materializes once a dirty line is written back), and
// then flushes the metadata caches — the attacker's eviction, which also
// forces the next access of the victim page to re-verify from memory.
type SimInjection struct {
	Class Class
	AtOp  uint64
	Seed  uint64
}

// MachineOptions returns the sim options arming the injection; nil
// receiver means no injection (and no options, leaving the run's
// byte-identical uninstrumented path). Each call returns fresh state, so
// one SimInjection can arm many concurrent machines.
func (s *SimInjection) MachineOptions() []sim.MachineOption {
	if s == nil {
		return nil
	}
	applied := false
	return []sim.MachineOption{
		sim.WithFunctionalMem(),
		sim.WithOpHook(func(m *sim.Machine, op uint64) error {
			if applied || op < s.AtOp {
				return nil
			}
			if !s.Class.AppliesTo(m.Mem().Scheme()) {
				applied = true // permanently targetless on this machine
				return nil
			}
			if _, err := ApplyLive(m.Mem(), s.Class, s.Seed); err != nil {
				if errors.Is(err, ErrNoTarget) {
					return nil // no target yet; retry next op
				}
				return err
			}
			applied = true
			m.Mem().FlushMetadata()
			return nil
		}),
	}
}
