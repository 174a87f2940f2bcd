package faults

import (
	"errors"

	"ivleague/internal/rng"
	"ivleague/internal/sim"
)

// This file arms the injector against a *live* simulated machine (cmd/ivsim
// -inject, the figure harness): the fault lands mid-run through an op hook
// and detection — if the class is detectable — happens through the
// machine's own subsequent verified accesses, surfacing as a failed run
// with Result.Tampered set.

// LiveClasses lists the classes Inject can land on a live machine. The
// timing path never writes the MAC'd data plane, so the data-plane classes
// (data-bit, data-splice, mac, rollback) find targets only on the
// workbench.
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
			// Every attempt draws from a fresh fork of the seed, so the
			// landed target depends only on the machine state at this op.
			if _, err := Inject(m.Mem(), s.Class, rng.New(s.Seed).ForkString("faults-live")); err != nil {
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
