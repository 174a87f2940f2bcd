package sim

import (
	"fmt"
	"testing"

	"ivleague/internal/config"
	"ivleague/internal/osmodel"
	"ivleague/internal/workload"
)

func TestStaticPartitionRuns(t *testing.T) {
	cfg := quickCfg()
	res := runMix(t, &cfg, config.SchemeStaticPartition, smallMix(t))
	if res.Failed {
		t.Fatalf("static partition run failed: %s", res.FailMsg)
	}
	for _, ipc := range res.IPC {
		if ipc <= 0 {
			t.Fatal("zero IPC under static partitioning")
		}
	}
}

func TestStaticPartitionConfinesFrames(t *testing.T) {
	cfg := quickCfg()
	mix := smallMix(t)
	m, err := NewMachine(&cfg, config.SchemeStaticPartition, mix, 0)
	if err != nil {
		t.Fatal(err)
	}
	res := m.Run()
	if res.Failed {
		t.Fatal(res.FailMsg)
	}
	// Every mapped frame must lie inside its domain's partition (no
	// swap penalties expected at this footprint scale).
	for _, p := range m.mem.MappedPages() {
		lo, hi := m.mem.PartitionRange(p.Domain)
		if p.PFN < lo || p.PFN >= hi {
			t.Fatalf("frame %d of domain %d outside partition [%d,%d)", p.PFN, p.Domain, lo, hi)
		}
	}
	if res.Swaps != 0 {
		t.Fatalf("unexpected swap penalties: %d", res.Swaps)
	}
}

func TestBVSchemesRun(t *testing.T) {
	cfg := quickCfg()
	mix := smallMix(t)
	for _, s := range []config.Scheme{config.SchemeBVv1, config.SchemeBVv2} {
		res := runMix(t, &cfg, s, mix)
		if res.Failed {
			t.Fatalf("%v failed at small scale: %s", s, res.FailMsg)
		}
	}
}

func TestBVv2SlowerThanNFL(t *testing.T) {
	cfg := quickCfg()
	mix := smallMix(t)
	sum := func(r Result) float64 {
		s := 0.0
		for _, v := range r.IPC {
			s += v
		}
		return s
	}
	nfl := runMix(t, &cfg, config.SchemeIvLeagueBasic, mix)
	bv := runMix(t, &cfg, config.SchemeBVv2, mix)
	if bv.Failed || nfl.Failed {
		t.Fatal("run failed")
	}
	if sum(bv) > sum(nfl)*1.001 {
		t.Fatalf("BV-v2 (%v) outperformed the NFL (%v)", sum(bv), sum(nfl))
	}
}

func TestSchemeOverheadShape(t *testing.T) {
	// The headline Figure 15 sanity: IvLeague costs something vs the
	// Baseline but stays within a plausible band (≤ 25% at this scale).
	cfg := quickCfg()
	mix := smallMix(t)
	sum := func(r Result) float64 {
		s := 0.0
		for _, v := range r.IPC {
			s += v
		}
		return s
	}
	base := sum(runMix(t, &cfg, config.SchemeBaseline, mix))
	basic := sum(runMix(t, &cfg, config.SchemeIvLeagueBasic, mix))
	norm := basic / base
	if norm < 0.75 || norm > 1.05 {
		t.Fatalf("IvLeague-Basic normalized IPC %.3f outside the plausible band", norm)
	}
}

func TestMemAccessesExceedBaseline(t *testing.T) {
	// Figure 19's direction: IvLeague always issues at least as many
	// memory accesses as the Baseline (NFL + LMM + tree expansion).
	cfg := quickCfg()
	mix := smallMix(t)
	base := runMix(t, &cfg, config.SchemeBaseline, mix)
	basic := runMix(t, &cfg, config.SchemeIvLeagueBasic, mix)
	if basic.MemAccesses <= base.MemAccesses {
		t.Fatalf("IvLeague accesses %d not above baseline %d", basic.MemAccesses, base.MemAccesses)
	}
}

// checkFrameOwners asserts the frame-ownership contract memWriteback relies
// on: every page a process maps is owned, in the controller's page
// metadata, by that process's domain at that VPN, and the controller
// reports no other frame as mapped.
func checkFrameOwners(m *Machine) error {
	total := 0
	seen := map[*osmodel.Process]bool{}
	for _, th := range m.threads {
		if seen[th.proc] {
			continue
		}
		seen[th.proc] = true
		for _, vpn := range th.proc.Table.VPNs() {
			pfn, _ := th.proc.Table.Lookup(vpn)
			dom, v, ok := m.mem.Owner(pfn)
			if !ok || dom != th.proc.DomainID || v != vpn {
				return fmt.Errorf("frame %d mapped at vpn %#x by domain %d: Owner = (%d, %#x, %v)",
					pfn, uint64(vpn), th.proc.DomainID, dom, uint64(v), ok)
			}
			total++
		}
	}
	if got := len(m.mem.MappedPages()); got != total {
		return fmt.Errorf("controller reports %d mapped frames, page tables map %d", got, total)
	}
	return nil
}

func TestWritebackOwnersCleanedOnUnmap(t *testing.T) {
	cfg := quickCfg()
	cfg.Sim.MeasureInstr = 200_000 // enough for churn bursts
	m, err := NewMachine(&cfg, config.SchemeIvLeagueBasic, smallMix(t), 0)
	if err != nil {
		t.Fatal(err)
	}
	res := m.Run()
	if res.Failed {
		t.Fatal(res.FailMsg)
	}
	// Unmapped frames drop their owner: the controller reports exactly
	// the frames the page tables still map.
	if err := checkFrameOwners(m); err != nil {
		t.Fatal(err)
	}
}

// The controller's page metadata is the only frame→(domain, VPN) table.
// Check it against every process's page table every 4096 ops while pages
// are mapped and freed: S-4 runs four churning benchmarks, and M-1's
// dedup unmaps from two threads of one process.
func TestFrameOwnersMatchPageTables(t *testing.T) {
	for _, name := range []string{"S-4", "M-1"} {
		mix, err := workload.MixByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, scheme := range []config.Scheme{
			config.SchemeBaseline, config.SchemeStaticPartition,
			config.SchemeIvLeagueBasic, config.SchemeIvLeagueInvert, config.SchemeIvLeaguePro,
		} {
			cfg := quickCfg()
			cfg.Sim.FootprintScale = 0.01  // fewer pages to check each time
			cfg.Sim.MeasureInstr = 200_000 // enough for churn bursts
			checks := 0
			hook := func(m *Machine, op uint64) error {
				if op%4096 != 0 {
					return nil
				}
				checks++
				return checkFrameOwners(m)
			}
			m, err := NewMachine(&cfg, scheme, mix, 0, WithOpHook(hook))
			if err != nil {
				t.Fatal(err)
			}
			if res := m.Run(); res.Failed {
				t.Fatalf("%s/%v: %s", name, scheme, res.FailMsg)
			}
			if err := checkFrameOwners(m); err != nil {
				t.Fatalf("%s/%v at the end: %v", name, scheme, err)
			}
			freed := uint64(0)
			for _, th := range m.threads {
				freed += th.proc.PagesFreed.Value()
			}
			if checks == 0 || freed == 0 {
				t.Fatalf("%s/%v: %d checks, %d pages freed; the run never exercised unmap", name, scheme, checks, freed)
			}
		}
	}
}

func TestCycleDecompositionSums(t *testing.T) {
	cfg := quickCfg()
	m, err := NewMachine(&cfg, config.SchemeBaseline, smallMix(t), 0)
	if err != nil {
		t.Fatal(err)
	}
	m.Run()
	var total float64
	for _, th := range m.threads {
		total += th.cycles
	}
	parts := m.CycBase + m.CycTLB + m.CycFault + m.CycMiss + m.CycWb
	if diff := (total - parts) / total; diff > 0.01 || diff < -0.01 {
		t.Fatalf("cycle decomposition off by %.2f%%", diff*100)
	}
}

func TestAllMixesConstructable(t *testing.T) {
	cfg := quickCfg()
	for _, mix := range workload.Mixes() {
		if _, err := NewMachine(&cfg, config.SchemeIvLeaguePro, mix, 0); err != nil {
			t.Fatalf("%s: %v", mix.Name, err)
		}
	}
}
