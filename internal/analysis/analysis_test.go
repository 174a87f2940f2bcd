package analysis

import (
	"testing"
	"testing/quick"

	"ivleague/internal/config"
)

func TestRequiredTreeLingsMonotoneInSize(t *testing.T) {
	// Larger TreeLings never require more TreeLings.
	prev := uint64(1 << 62)
	for _, mb := range []int{2, 8, 32, 128, 512, 2048} {
		got := RequiredTreeLings(8<<30, 1<<12, uint64(mb)<<20, 0.5)
		if got > prev {
			t.Fatalf("required TreeLings grew with size at %d MB: %d > %d", mb, got, prev)
		}
		prev = got
	}
}

func TestRequiredTreeLingsFlattensAtDomainCount(t *testing.T) {
	// Beyond a certain TreeLing size the requirement is dominated by the
	// one-TreeLing-per-domain floor (the Figure 21 flattening).
	d := 1 << 12
	big := RequiredTreeLings(8<<30, d, 2048<<20, 1.0)
	if big < uint64(d-1) || big > uint64(d)+8 {
		t.Fatalf("flattened requirement %d not near domain count %d", big, d)
	}
}

func TestRequiredTreeLingsSkewOrdering(t *testing.T) {
	// Higher skew (one huge domain) needs no more TreeLings than an even
	// spread at small TreeLing sizes, but the relationship flips as the
	// per-domain floor dominates; just check all values are sane.
	for _, skew := range []float64{0.1, 0.5, 1.0} {
		got := RequiredTreeLings(32<<30, 1<<12, 64<<20, skew)
		minimum := uint64(32<<30) / (64 << 20)
		if got < minimum/2 {
			t.Fatalf("skew %v: %d below coverage minimum %d", skew, got, minimum)
		}
	}
}

func TestProvisioningFormula(t *testing.T) {
	// #τ = (D−1) + (M−(D−1)×4KB)/S from Section VI-D2.
	got := ProvisionedTreeLings(32<<30, 1<<12, 64<<20)
	want := uint64(4095) + (32<<30-4095*4096+64<<20-1)/(64<<20)
	if got != want {
		t.Fatalf("got %d want %d", got, want)
	}
}

func TestSuccessRatesExtremes(t *testing.T) {
	// Low utilization, few domains: both schemes succeed.
	s, iv := SuccessRates(ScalabilityConfig{
		TreeLingBytes: 16 << 20,
		Utilization:   0.1, Domains: 8, MemoryBytes: 8 << 30, Trials: 200, Seed: 1,
	})
	if iv < 0.98 {
		t.Fatalf("IvLeague success %v at low load", iv)
	}
	// High utilization, many domains: static collapses, IvLeague holds.
	s2, iv2 := SuccessRates(ScalabilityConfig{
		TreeLingBytes: 16 << 20,
		Utilization:   0.8, Domains: 128, MemoryBytes: 32 << 30, Trials: 200, Seed: 1,
	})
	if s2 >= s && s2 > 0.05 {
		t.Fatalf("static success did not collapse: low-load %v, high-load %v", s, s2)
	}
	if iv2 < 0.9 {
		t.Fatalf("IvLeague success %v under load, want >= 0.9 (paper: >0.98)", iv2)
	}
}

func TestSuccessRateBounds(t *testing.T) {
	f := func(domains uint8, util uint8) bool {
		d := int(domains)%120 + 8
		u := float64(util%80)/100 + 0.1
		s, iv := SuccessRates(ScalabilityConfig{
			TreeLingBytes: 16 << 20,
			Utilization:   u, Domains: d, MemoryBytes: 16 << 30, Trials: 50, Seed: 7,
		})
		return s >= 0 && s <= 1 && iv >= 0 && iv <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestFig22Surface(t *testing.T) {
	// The aggregate trend of Figure 22: over a grid of utilizations,
	// domain counts and memory sizes, IvLeague's mean success rate beats
	// static partitioning's.
	var sMean, ivMean float64
	for _, u := range []float64{0.2, 0.8} {
		for _, d := range []int{8, 64} {
			for _, g := range []int{8, 64} {
				s, iv := SuccessRates(ScalabilityConfig{
					TreeLingBytes: 16 << 20,
					Utilization:   u, Domains: d, MemoryBytes: uint64(g) << 30, Trials: 50, Seed: 3,
				})
				sMean += s
				ivMean += iv
			}
		}
	}
	if ivMean <= sMean {
		t.Fatalf("IvLeague mean %v not above static %v", ivMean, sMean)
	}
}

func TestDeterministicMonteCarlo(t *testing.T) {
	c := ScalabilityConfig{TreeLingBytes: 16 << 20,
		Utilization: 0.5, Domains: 32, MemoryBytes: 16 << 30, Trials: 100, Seed: 9}
	s1, iv1 := SuccessRates(c)
	s2, iv2 := SuccessRates(c)
	if s1 != s2 || iv1 != iv2 {
		t.Fatal("Monte-Carlo not deterministic for fixed seed")
	}
	_ = config.PageBytes
}
