package faults

import (
	"bytes"
	"errors"
	"fmt"

	"ivleague/internal/config"
	"ivleague/internal/layout"
	"ivleague/internal/secmem"
	"ivleague/internal/sim"
	"ivleague/internal/workload"
)

// This file is the crash model: a run is killed at op k (power loss), the
// off-chip image is persisted, and recovery rebuilds every on-chip
// structure from it — NFL frontiers and NFLB, LMM cache, TreeLing roots —
// Phoenix-style. The check is state equality: the recovered controller's
// canonical digest must be byte-identical to that of an independent clean
// machine stopped at the same op.

// crashAt returns a machine option that kills the run at op k.
func crashAt(k uint64) sim.MachineOption {
	return sim.WithOpHook(func(m *sim.Machine, op uint64) error {
		if op >= k {
			return sim.ErrCrashInjected
		}
		return nil
	})
}

// runToCrash builds a functional machine for (cfg, scheme, mix), runs it
// and stops it at op k, returning the machine.
func runToCrash(cfg *config.Config, scheme config.Scheme, mix workload.Mix, k uint64) (*sim.Machine, error) {
	m, err := sim.NewMachine(cfg, scheme, mix, 0, sim.WithFunctionalMem(), crashAt(k))
	if err != nil {
		return nil, err
	}
	res := m.Run()
	if !errors.Is(m.FailCause(), sim.ErrCrashInjected) {
		if res.Failed {
			return nil, fmt.Errorf("faults: run under %v failed before op %d: %s", scheme, k, res.FailMsg)
		}
		return nil, fmt.Errorf("faults: run under %v completed (%d ops) before crash op %d", scheme, m.OpCount(), k)
	}
	return m, nil
}

// CrashRecoveryCheck crashes a run of (cfg, scheme, mix) at op k and runs
// the controller's CheckRecovery: the state recovered from the persisted
// image must equal the crashed machine's byte for byte, and the crashed
// state must equal that of an independent clean machine stopped at the
// same op. It then exercises the recovered controller — verified reads of
// mapped pages, a fresh page map, a write/read round trip — so recovery is
// shown live, not just equal.
func CrashRecoveryCheck(cfg *config.Config, scheme config.Scheme, mix workload.Mix, k uint64) error {
	crashed, err := runToCrash(cfg, scheme, mix, k)
	if err != nil {
		return err
	}
	rec, err := crashed.Mem().CheckRecovery()
	if err != nil {
		return fmt.Errorf("faults: %v at op %d: %w", scheme, k, err)
	}

	// Determinism baseline: an independent machine stopped at the same op.
	clean, err := runToCrash(cfg, scheme, mix, k)
	if err != nil {
		return err
	}
	if a, b := crashed.Mem().StateDigest(), clean.Mem().StateDigest(); !bytes.Equal(a, b) {
		return fmt.Errorf("faults: %v at op %d: two identical runs diverged (%s)", scheme, k, secmem.DigestDiff(a, b))
	}

	// Liveness: the recovered controller must serve verified traffic.
	rec.FlushMetadata()
	pages := rec.MappedPages()
	probe := pages
	if len(probe) > 8 {
		probe = probe[:8]
	}
	buf := make([]byte, config.BlockBytes)
	for _, p := range probe {
		req := secmem.AccessRequest{Domain: p.Domain, VPN: p.VPN, PFN: p.PFN, Block: 0}
		if _, err := rec.ReadBlock(req, buf); err != nil {
			return fmt.Errorf("faults: %v at op %d: recovered read of pfn %d: %w", scheme, k, uint64(p.PFN), err)
		}
	}
	if len(pages) > 0 {
		p := pages[0]
		payload := make([]byte, config.BlockBytes)
		for i := range payload {
			payload[i] = byte(i*7 + 3)
		}
		req := secmem.AccessRequest{Domain: p.Domain, VPN: p.VPN, PFN: p.PFN, Block: 1}
		if _, err := rec.WriteBlock(req, payload); err != nil {
			return fmt.Errorf("faults: %v at op %d: recovered write: %w", scheme, k, err)
		}
		got := make([]byte, config.BlockBytes)
		if _, err := rec.ReadBlock(req, got); err != nil {
			return fmt.Errorf("faults: %v at op %d: recovered read-back: %w", scheme, k, err)
		}
		if !bytes.Equal(got, payload) {
			return fmt.Errorf("faults: %v at op %d: recovered read-back returned wrong plaintext", scheme, k)
		}

		// Map a fresh page through the recovered NFL frontier.
		var maxPFN layout.PFN
		var maxVPN layout.VPN
		for _, q := range pages {
			if q.PFN > maxPFN {
				maxPFN = q.PFN
			}
			if q.Domain == p.Domain && q.VPN > maxVPN {
				maxVPN = q.VPN
			}
		}
		if uint64(maxPFN)+1 < rec.Layout().Pages {
			if _, err := rec.OnPageMap(0, p.Domain, maxVPN+1, maxPFN+1); err != nil {
				return fmt.Errorf("faults: %v at op %d: recovered page map: %w", scheme, k, err)
			}
		}
	}
	return nil
}
