package attack

import (
	"testing"

	"ivleague/internal/config"
)

func testCfg() config.Config {
	cfg := config.Default()
	cfg.DRAM.SizeBytes = 1 << 30
	cfg.IvLeague.TreeLingCount = 128
	return cfg
}

func TestAttackRecoversKeyOnBaseline(t *testing.T) {
	cfg := testCfg()
	acfg := DefaultConfig()
	acfg.KeyBits = 512 // enough bits for a tight accuracy estimate
	res, err := Run(&cfg, config.SchemeBaseline, acfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.SharedNodes {
		t.Fatal("baseline pages do not share tree nodes — attack precondition broken")
	}
	if res.Accuracy < 0.9 {
		t.Fatalf("baseline attack accuracy %.3f, want >= 0.9 (paper: 0.916)", res.Accuracy)
	}
	if res.MeanLatencyHit >= res.MeanLatencyMiss {
		t.Fatalf("no timing separation: hit=%v miss=%v", res.MeanLatencyHit, res.MeanLatencyMiss)
	}
	if len(res.Trace) == 0 {
		t.Fatal("no trace captured")
	}
}

func TestAttackDefeatedByIvLeague(t *testing.T) {
	for _, scheme := range []config.Scheme{
		config.SchemeIvLeagueBasic, config.SchemeIvLeagueInvert, config.SchemeIvLeaguePro,
	} {
		cfg := testCfg()
		acfg := DefaultConfig()
		acfg.KeyBits = 512
		res, err := Run(&cfg, scheme, acfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.SharedNodes {
			t.Fatalf("%v: attacker and victim share a tree node block", scheme)
		}
		if res.Accuracy > 0.62 || res.Accuracy < 0.38 {
			t.Fatalf("%v: accuracy %.3f not at chance level", scheme, res.Accuracy)
		}
	}
}

func TestStaticPartitionAlsoIsolates(t *testing.T) {
	// Static partitioning also prevents metadata sharing (its drawback is
	// scalability, Figure 22, not leakage).
	cfg := testCfg()
	acfg := DefaultConfig()
	acfg.KeyBits = 256
	res, err := Run(&cfg, config.SchemeStaticPartition, acfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.SharedNodes {
		t.Fatal("attacker and victim partitions share a node on the verification path")
	}
	if res.Accuracy > 0.65 {
		t.Fatalf("static partitioning leaked: accuracy %.3f", res.Accuracy)
	}
}
