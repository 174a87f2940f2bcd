package faults

import (
	"errors"
	"slices"
	"testing"

	"ivleague/internal/config"
	"ivleague/internal/layout"
	"ivleague/internal/rng"
	"ivleague/internal/secmem"
)

// classes returns every fault class in a fixed, deterministic order.
func classes() []Class {
	return []Class{
		ClassDataBit, ClassDataSplice, ClassMAC, ClassCounter, ClassTreeNode,
		ClassNFLSet, ClassNFLClear, ClassLMM, ClassRollback, ClassScratchNode,
	}
}

func testCfg() config.Config {
	cfg := config.Default()
	cfg.DRAM.SizeBytes = 256 << 20
	cfg.IvLeague.TreeLingCount = 32
	return cfg
}

var allSchemes = []config.Scheme{
	config.SchemeBaseline,
	config.SchemeStaticPartition,
	config.SchemeIvLeagueBasic,
	config.SchemeIvLeagueInvert,
	config.SchemeIvLeaguePro,
}

// TestClassTaxonomy pins the class list: fixed order, no duplicates, and
// the benign/detectable split the package documents.
func TestClassTaxonomy(t *testing.T) {
	seen := map[Class]bool{}
	for _, c := range classes() {
		if seen[c] {
			t.Fatalf("class %s listed twice", c)
		}
		seen[c] = true
	}
	if len(seen) != 10 {
		t.Fatalf("expected 10 classes, got %d", len(seen))
	}
	for _, c := range []Class{ClassNFLClear, ClassScratchNode} {
		if c.Detectable() {
			t.Fatalf("%s must be benign by design", c)
		}
	}
	for _, c := range []Class{ClassNFLSet, ClassNFLClear, ClassLMM, ClassScratchNode} {
		if c.AppliesTo(config.SchemeBaseline) {
			t.Fatalf("%s must not apply to the baseline", c)
		}
		if !c.AppliesTo(config.SchemeIvLeaguePro) {
			t.Fatalf("%s must apply to IvLeague", c)
		}
	}
}

// mappedController builds a functional controller with eight mapped pages
// in each workbench domain; with write set, block 0 of every page is
// written too.
func mappedController(t *testing.T, scheme config.Scheme, write bool) *secmem.Controller {
	t.Helper()
	cfg := testCfg()
	c, err := secmem.New(&cfg, scheme, 2, secmem.WithFunctional())
	if err != nil {
		t.Fatal(err)
	}
	for _, dom := range workbenchDomains {
		if err := c.CreateDomain(dom); err != nil {
			t.Fatal(err)
		}
		lo, _ := c.PartitionRange(dom)
		for i := 0; i < 8; i++ {
			req := secmem.AccessRequest{Domain: dom, VPN: layout.VPN(i), PFN: lo + layout.PFN(dom*8+i)}
			if _, err := c.OnPageMap(0, dom, req.VPN, req.PFN); err != nil {
				t.Fatal(err)
			}
			if write {
				if _, err := c.WriteBlock(req, make([]byte, config.BlockBytes)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return c
}

// TestInjectNeedsWrittenData pins the split LiveClasses encodes. On a
// controller whose pages are mapped but never written, the state a timing
// run leaves, the four data-plane classes find no target; once block 0 of
// every mapped page is written, every class that applies lands.
func TestInjectNeedsWrittenData(t *testing.T) {
	for _, scheme := range allSchemes {
		dataPlane := 0
		for _, class := range classes() {
			if !class.AppliesTo(scheme) {
				continue
			}
			if !slices.Contains(LiveClasses(), class) {
				dataPlane++
				_, err := Inject(mappedController(t, scheme, false), class, rng.New(1))
				if !errors.Is(err, ErrNoTarget) {
					t.Errorf("%v/%s on unwritten pages: %v, want ErrNoTarget", scheme, class, err)
				}
			}
			if _, err := Inject(mappedController(t, scheme, true), class, rng.New(1)); err != nil {
				t.Errorf("%v/%s on written pages: %v", scheme, class, err)
			}
		}
		if dataPlane != 4 {
			t.Errorf("%v: %d data-plane classes outside LiveClasses, want 4", scheme, dataPlane)
		}
	}
}

// TestFaultSweep is the soak: every class under every scheme, several
// seeds. Every detectable class must be detected as a typed
// IntegrityError; every benign class must leave the machine silent and
// working; nothing may panic or fail outside the integrity path.
func TestFaultSweep(t *testing.T) {
	cfg := testCfg()
	seeds := []uint64{1, 7, 42}
	if testing.Short() {
		seeds = seeds[:1]
	}
	injected, skipped := 0, 0
	for _, scheme := range allSchemes {
		for _, class := range classes() {
			if !class.AppliesTo(scheme) {
				continue
			}
			for _, seed := range seeds {
				rep, err := InjectAndDetect(&cfg, scheme, class, seed)
				if errors.Is(err, ErrNoTarget) {
					skipped++
					continue
				}
				if err != nil {
					t.Fatalf("%v/%s seed %d: %v", scheme, class, seed, err)
				}
				injected++
				if !rep.Ok() {
					t.Errorf("%v/%s seed %d: %s", scheme, class, seed, rep)
				}
				if rep.Detected && rep.Err == nil {
					t.Errorf("%v/%s seed %d: detected without a typed error", scheme, class, seed)
				}
				if rep.Detected && rep.Err.Class == "" {
					t.Errorf("%v/%s seed %d: violation without a class", scheme, class, seed)
				}
			}
		}
	}
	if injected == 0 {
		t.Fatal("sweep injected nothing")
	}
	t.Logf("sweep: %d injections, %d skips (no target)", injected, skipped)
}

// TestDetectionErrorShape checks that the typed error carries usable
// forensics: the observing structure, an address, and the owning domain.
func TestDetectionErrorShape(t *testing.T) {
	cfg := testCfg()
	rep, err := InjectAndDetect(&cfg, config.SchemeIvLeaguePro, ClassDataBit, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Detected || rep.Err == nil {
		t.Fatalf("data-bit not detected: %s", rep)
	}
	if rep.Err.Domain <= 0 {
		t.Errorf("violation misses the owning domain: %v", rep.Err)
	}
	if rep.Err.Addr == 0 {
		t.Errorf("violation misses the faulting address: %v", rep.Err)
	}
	if rep.Err.Error() == "" {
		t.Error("empty rendering")
	}
}

// TestRepeatability pins seeded determinism: same inputs, same report.
func TestRepeatability(t *testing.T) {
	cfg := testCfg()
	for _, class := range []Class{ClassTreeNode, ClassNFLSet, ClassRollback} {
		a, errA := InjectAndDetect(&cfg, config.SchemeIvLeagueInvert, class, 99)
		b, errB := InjectAndDetect(&cfg, config.SchemeIvLeagueInvert, class, 99)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("%s: nondeterministic error: %v vs %v", class, errA, errB)
		}
		if errA != nil {
			continue
		}
		if a.String() != b.String() {
			t.Fatalf("%s: reports differ:\n%s\n%s", class, a, b)
		}
	}
}

// FuzzFaultInjectDetect drives random (seed, class, scheme) triples
// through the engine; any panic, non-integrity failure or broken
// detection promise fails the fuzz.
func FuzzFaultInjectDetect(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(2))
	f.Add(uint64(42), uint8(5), uint8(4))
	f.Add(uint64(1234567), uint8(9), uint8(3))
	f.Fuzz(func(t *testing.T, seed uint64, classIdx, schemeIdx uint8) {
		cfg := testCfg()
		scheme := allSchemes[int(schemeIdx)%len(allSchemes)]
		class := classes()[int(classIdx)%len(classes())]
		if !class.AppliesTo(scheme) {
			t.Skip()
		}
		rep, err := InjectAndDetect(&cfg, scheme, class, seed)
		if errors.Is(err, ErrNoTarget) {
			t.Skip()
		}
		if err != nil {
			t.Fatalf("%v/%s seed %d: %v", scheme, class, seed, err)
		}
		if !rep.Ok() {
			t.Fatalf("%v/%s seed %d: %s", scheme, class, seed, rep)
		}
	})
}
