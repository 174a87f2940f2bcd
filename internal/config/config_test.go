package config

import (
	"strings"
	"testing"
)

func TestDefaultValidates(t *testing.T) {
	cfg := Default()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestTreeLingGeometry(t *testing.T) {
	cfg := Default()
	// Height 4, arity 8 → 8^4 pages = 4096 pages = 16 MiB.
	if got := cfg.TreeLingPages(); got != 4096 {
		t.Fatalf("TreeLingPages = %d, want 4096", got)
	}
	if got := cfg.TreeLingBytes(); got != 16<<20 {
		t.Fatalf("TreeLingBytes = %d, want 16 MiB", got)
	}
	if got := cfg.TotalPages(); got != (32<<30)/4096 {
		t.Fatalf("TotalPages = %d", got)
	}
}

func TestCoverageRequirement(t *testing.T) {
	cfg := Default()
	cfg.IvLeague.TreeLingCount = 1 // 16 MiB cannot cover 32 GiB
	if err := cfg.Validate(); err == nil {
		t.Fatal("expected coverage error")
	}
}

func TestCacheValidation(t *testing.T) {
	cases := []CacheConfig{
		{SizeBytes: 0, Ways: 1, LineBytes: 64},
		{SizeBytes: 100, Ways: 3, LineBytes: 64},        // not divisible
		{SizeBytes: 3 * 64 * 4, Ways: 4, LineBytes: 64}, // 3 sets: not pow2
	}
	for i, cc := range cases {
		if err := cc.Validate("t"); err == nil {
			t.Fatalf("case %d: expected error", i)
		}
	}
	good := CacheConfig{SizeBytes: 32 << 10, Ways: 8, LineBytes: 64}
	if err := good.Validate("t"); err != nil {
		t.Fatal(err)
	}
	if good.Sets() != 64 {
		t.Fatalf("sets = %d", good.Sets())
	}
}

func TestSchemeStrings(t *testing.T) {
	for _, s := range []Scheme{SchemeBaseline, SchemeStaticPartition, SchemeIvLeagueBasic,
		SchemeIvLeagueInvert, SchemeIvLeaguePro, SchemeBVv1, SchemeBVv2} {
		if s.String() == "" {
			t.Fatalf("scheme %d has empty name", int(s))
		}
	}
	if SchemeBaseline.IsIvLeague() || !SchemeIvLeaguePro.IsIvLeague() || !SchemeBVv1.IsIvLeague() {
		t.Fatal("IsIvLeague classification wrong")
	}
}

// TestParseScheme pins the one scheme-name parser: every spelling ivsim,
// ivcheck and counterexample scripts accept, in any case, and an error
// for an unknown name.
func TestParseScheme(t *testing.T) {
	for _, tc := range []struct {
		name string
		want Scheme
	}{
		{"baseline", SchemeBaseline},
		{"static", SchemeStaticPartition}, {"static-partition", SchemeStaticPartition},
		{"basic", SchemeIvLeagueBasic}, {"ivleague-basic", SchemeIvLeagueBasic},
		{"invert", SchemeIvLeagueInvert}, {"ivleague-invert", SchemeIvLeagueInvert},
		{"pro", SchemeIvLeaguePro}, {"ivleague-pro", SchemeIvLeaguePro},
		{"bv-v1", SchemeBVv1}, {"bv-v2", SchemeBVv2},
	} {
		for _, name := range []string{tc.name, strings.ToUpper(tc.name)} {
			if got, err := ParseScheme(name); err != nil || got != tc.want {
				t.Errorf("ParseScheme(%q) = %v, %v; want %v", name, got, err, tc.want)
			}
		}
	}
	for _, bad := range []string{"", "bvv1", "ivleague"} {
		if _, err := ParseScheme(bad); err == nil {
			t.Errorf("ParseScheme(%q): want error", bad)
		}
	}
}

func TestValidateRejectsBadFields(t *testing.T) {
	mut := []func(*Config){
		func(c *Config) { c.Core.Count = 0 },
		func(c *Config) { c.Core.MLP = 1.0 },
		func(c *Config) { c.SecureMem.TreeArity = 6 },
		func(c *Config) { c.SecureMem.MinorBits = 0 },
		func(c *Config) { c.SecureMem.MinorBits = 8 },
		func(c *Config) { c.IvLeague.TreeLingHeight = 1 },
		func(c *Config) { c.IvLeague.RootLockWays = 8 },
		func(c *Config) { c.IvLeague.HotRegionLeaves = 1 << 20 },
		func(c *Config) { c.IvLeague.HotTrackerEntries = 0 },
		func(c *Config) { c.IvLeague.HotCounterBits = 0 },
		func(c *Config) { c.IvLeague.HotCounterBits = 33 },
		func(c *Config) { c.Sim.MeasureInstr = 0 },
		func(c *Config) { c.DRAM.RowHitLatency = 0 },
	}
	for i, m := range mut {
		cfg := Default()
		m(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Fatalf("mutation %d: expected validation error", i)
		}
	}
}
