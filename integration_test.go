// Top-level integration tests: exercise the full stack (workload → sim →
// secmem → core → dram) across configurations the unit tests do not
// combine, including non-default tree arity and TreeLing heights.
package ivleague_test

import (
	"testing"

	"ivleague/internal/config"
	"ivleague/internal/layout"
	"ivleague/internal/secmem"
	"ivleague/internal/sim"
	"ivleague/internal/workload"
)

// TestVariableArityTree runs IvLeague over a 4-ary tree (the geometry is
// fully parameterised; VAULT-style variable-arity designs motivate this).
func TestVariableArityTree(t *testing.T) {
	cfg := benchCfg()
	cfg.SecureMem.TreeArity = 4
	cfg.IvLeague.TreeLingHeight = 6 // 4^6 pages = 16 MiB, as with 8^4
	cfg.IvLeague.HotRegionLeaves = 2
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	mix := benchMixT(t, "S-4")
	for _, s := range []config.Scheme{config.SchemeIvLeagueBasic, config.SchemeIvLeagueInvert, config.SchemeIvLeaguePro} {
		res, err := sim.RunMix(&cfg, s, mix)
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed {
			t.Fatalf("%v with arity 4 failed: %s", s, res.FailMsg)
		}
		if res.Utilization < 0.99 {
			t.Fatalf("%v arity-4 utilization %v", s, res.Utilization)
		}
	}
}

// TestFunctionalEndToEndUnderLoad drives a functional (real crypto)
// IvLeague controller with thousands of interleaved writes, frees and
// reads across three domains and verifies every readback.
func TestFunctionalEndToEndUnderLoad(t *testing.T) {
	cfg := config.Default()
	cfg.DRAM.SizeBytes = 512 << 20
	cfg.IvLeague.TreeLingCount = 64
	mem, err := secmem.New(&cfg, config.SchemeIvLeagueInvert, 0, secmem.WithFunctional())
	if err != nil {
		t.Fatal(err)
	}
	type page struct {
		dom  int
		vpn  uint64
		pfn  uint64
		data byte
	}
	var pages []page
	pfn := uint64(0)
	for dom := 1; dom <= 3; dom++ {
		if err := mem.CreateDomain(dom); err != nil {
			t.Fatal(err)
		}
	}
	rngState := uint64(99)
	next := func(n uint64) uint64 {
		rngState = rngState*6364136223846793005 + 1442695040888963407
		return (rngState >> 33) % n
	}
	for i := 0; i < 3000; i++ {
		switch {
		case len(pages) > 0 && next(4) == 0:
			// Free a random page.
			k := int(next(uint64(len(pages))))
			p := pages[k]
			mem.OnPageUnmap(0, p.dom, layout.VPN(p.vpn), layout.PFN(p.pfn))
			pages = append(pages[:k], pages[k+1:]...)
		default:
			dom := 1 + int(next(3))
			p := page{dom: dom, vpn: uint64(i), pfn: pfn, data: byte(i)}
			pfn++
			if _, err := mem.OnPageMap(0, p.dom, layout.VPN(p.vpn), layout.PFN(p.pfn)); err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, 64)
			buf[0] = p.data
			if _, err := mem.WriteBlock(secmem.AccessRequest{Domain: p.dom, VPN: layout.VPN(p.vpn), PFN: layout.PFN(p.pfn)}, buf); err != nil {
				t.Fatal(err)
			}
			pages = append(pages, p)
		}
	}
	mem.FlushMetadata()
	got := make([]byte, config.BlockBytes)
	for _, p := range pages {
		if _, err := mem.ReadBlock(secmem.AccessRequest{Domain: p.dom, VPN: layout.VPN(p.vpn), PFN: layout.PFN(p.pfn)}, got); err != nil {
			t.Fatalf("domain %d pfn %d: %v", p.dom, p.pfn, err)
		}
		if got[0] != p.data {
			t.Fatalf("domain %d pfn %d: data %d want %d", p.dom, p.pfn, got[0], p.data)
		}
	}
	util, _ := mem.IvLeague().Utilization()
	if util < 0.995 {
		t.Fatalf("utilization %v after heavy churn", util)
	}
}

// TestCrossSchemeVerificationCounts checks a structural invariant: for
// identical replayed traffic, every scheme performs the same number of
// data reads (the schemes differ in metadata, never in data semantics).
func TestCrossSchemeVerificationCounts(t *testing.T) {
	cfg := benchCfg()
	mix := benchMixT(t, "S-5")
	var dataReads []uint64
	for _, s := range []config.Scheme{config.SchemeBaseline, config.SchemeIvLeagueBasic, config.SchemeIvLeaguePro} {
		m, err := sim.NewMachine(&cfg, s, mix, 0)
		if err != nil {
			t.Fatal(err)
		}
		res := m.Run()
		if res.Failed {
			t.Fatal(res.FailMsg)
		}
		dataReads = append(dataReads, m.Mem().DataReads.Value())
	}
	for i := 1; i < len(dataReads); i++ {
		if dataReads[i] != dataReads[0] {
			t.Fatalf("data reads diverge across schemes: %v", dataReads)
		}
	}
}

func benchMixT(t *testing.T, name string) workload.Mix {
	t.Helper()
	m, err := workload.MixByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return m
}
