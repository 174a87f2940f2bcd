package modelcheck

import (
	"strings"
	"testing"

	"ivleague/internal/config"
)

// Exhaustive clean sweep: within the bounded space every reachable state of
// every checkable scheme must satisfy isolation, ownership and recovery.
func TestExploreSchemesClean(t *testing.T) {
	for _, tc := range []struct {
		name   string
		scheme config.Scheme
	}{
		{"basic", config.SchemeIvLeagueBasic},
		{"invert", config.SchemeIvLeagueInvert},
		{"pro", config.SchemeIvLeaguePro},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Explore(Options{Scheme: tc.scheme, Depth: 3})
			if err != nil {
				t.Fatalf("Explore: %v", err)
			}
			if res.Violation != nil {
				t.Fatalf("unexpected violation: %s\ntrace:\n%s",
					res.Violation, FormatScript(Options{Scheme: tc.scheme}, res.Violation.Trace))
			}
			if !res.Complete {
				t.Fatalf("exploration truncated at %d states", res.States)
			}
			if res.States < 10 {
				t.Fatalf("suspiciously small space: %d states", res.States)
			}
			t.Logf("%s: %d states, %d transitions, %d rejected, %d deduped",
				tc.name, res.States, res.Transitions, res.Rejected, res.Deduped)
		})
	}
}

// Reads don't change machine state, so the canonical fingerprint must
// collapse a read self-loop onto its parent state.
func TestExploreDedupesStutter(t *testing.T) {
	res, err := Explore(Options{Scheme: config.SchemeIvLeagueBasic, Depth: 3})
	if err != nil {
		t.Fatalf("Explore: %v", err)
	}
	if res.Deduped == 0 {
		t.Fatal("no transitions deduped; fingerprint fails to collapse stutter steps")
	}
}

// Exploration is deterministic for any worker count: same states, same
// transitions, same (absence of) violation.
func TestExploreWorkerCountInvariant(t *testing.T) {
	opts := Options{Scheme: config.SchemeIvLeagueInvert, Depth: 3}
	one, err := Explore(optionsWithWorkers(opts, 1))
	if err != nil {
		t.Fatalf("Explore workers=1: %v", err)
	}
	many, err := Explore(optionsWithWorkers(opts, 8))
	if err != nil {
		t.Fatalf("Explore workers=8: %v", err)
	}
	if one.States != many.States || one.Transitions != many.Transitions ||
		one.Rejected != many.Rejected || one.Deduped != many.Deduped {
		t.Fatalf("worker count changed the result: %+v vs %+v", one, many)
	}
}

func optionsWithWorkers(o Options, w int) Options {
	o.Workers = w
	return o
}

func TestExploreRejectsUncheckableScheme(t *testing.T) {
	// SchemeBaseline is the zero value and defaults to Basic, so it is not
	// in this list.
	for _, s := range []config.Scheme{config.SchemeStaticPartition, config.SchemeBVv1, config.SchemeBVv2} {
		if _, err := Explore(Options{Scheme: s, Depth: 1}); err == nil {
			t.Errorf("scheme %v: want error, got nil", s)
		}
	}
}

// seededViolation explores with the given fault armed and returns the
// violation, failing the test if the checker misses it.
func seededViolation(t *testing.T, opts Options) *Violation {
	t.Helper()
	res, err := Explore(opts)
	if err != nil {
		t.Fatalf("Explore: %v", err)
	}
	if res.Violation == nil {
		t.Fatalf("seeded fault %q not detected in %d states", opts.Fault, res.States)
	}
	return res.Violation
}

// Satellite: a seeded PR-3 fault class is found, minimized, and the
// minimized counterexample replays to the same violation deterministically.
func TestSeededNFLFaultFoundAndMinimized(t *testing.T) {
	opts := Options{Scheme: config.SchemeIvLeagueInvert, Depth: 4, Fault: FaultNFLSet}
	v := seededViolation(t, opts)

	min, err := Minimize(opts, v)
	if err != nil {
		t.Fatalf("Minimize: %v", err)
	}
	if len(min) > len(v.Trace) {
		t.Fatalf("minimization grew the trace: %d -> %d ops", len(v.Trace), len(min))
	}

	// The minimized trace must reproduce the same violation kind — twice,
	// to pin down replay determinism.
	for i := 0; i < 2; i++ {
		rv, err := Replay(opts, min)
		if err != nil {
			t.Fatalf("Replay #%d: %v", i, err)
		}
		if rv == nil {
			t.Fatalf("Replay #%d: minimized trace no longer violates", i)
		}
		if rv.Kind != v.Kind {
			t.Fatalf("Replay #%d: kind %v, want %v", i, rv.Kind, v.Kind)
		}
	}
	t.Logf("fault %s: %s, minimized %d -> %d ops", opts.Fault, v.Kind, len(v.Trace), len(min))
}

func TestSeededLMMFaultFound(t *testing.T) {
	// The LMM fault needs two domains with assigned TreeLings before it
	// arms (create, map, create, map), plus one read to detect: depth 5.
	opts := Options{Scheme: config.SchemeIvLeagueBasic, Depth: 5, Fault: FaultLMM}
	v := seededViolation(t, opts)
	rv, err := Replay(opts, v.Trace)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if rv == nil || rv.Kind != v.Kind {
		t.Fatalf("replayed violation %+v, want kind %v", rv, v.Kind)
	}
}

// Satellite: the counterexample script survives a format/parse round trip
// and the parsed form still reproduces the violation.
func TestScriptRoundTrip(t *testing.T) {
	opts := Options{Scheme: config.SchemeIvLeagueInvert, Depth: 4, Fault: FaultNFLSet}
	v := seededViolation(t, opts)
	min, err := Minimize(opts, v)
	if err != nil {
		t.Fatalf("Minimize: %v", err)
	}

	script := FormatScript(opts, min)
	gotOpts, gotTrace, err := ParseScript(strings.NewReader(script))
	if err != nil {
		t.Fatalf("ParseScript:\n%s\n%v", script, err)
	}
	if gotOpts.Scheme != opts.Scheme || gotOpts.Fault != opts.Fault {
		t.Fatalf("options lost in round trip: got scheme=%v fault=%q", gotOpts.Scheme, gotOpts.Fault)
	}
	if len(gotTrace) != len(min) {
		t.Fatalf("trace length %d after round trip, want %d", len(gotTrace), len(min))
	}
	for i := range min {
		if gotTrace[i] != min[i] {
			t.Fatalf("op %d: %v != %v", i, gotTrace[i], min[i])
		}
	}

	rv, err := Replay(gotOpts, gotTrace)
	if err != nil {
		t.Fatalf("Replay of parsed script: %v", err)
	}
	if rv == nil || rv.Kind != v.Kind {
		t.Fatalf("parsed script violation %+v, want kind %v", rv, v.Kind)
	}
}

func TestParseScriptErrors(t *testing.T) {
	for _, bad := range []string{
		"scheme bvv1\n",
		"scheme baseline\n",
		"frobnicate 1\n",
		"map 1\n",
		"fault cosmic-ray\n",
		"domains many\n",
	} {
		if _, _, err := ParseScript(strings.NewReader(bad)); err == nil {
			t.Errorf("ParseScript(%q): want error, got nil", bad)
		}
	}
}

// Replay must be total: inapplicable ops are skipped, not errors.
func TestReplaySkipsInapplicableOps(t *testing.T) {
	opts := Options{Scheme: config.SchemeIvLeagueBasic}
	v, err := Replay(opts, Trace{
		{Kind: OpWrite, Domain: 1, VPN: 0}, // no such domain
		{Kind: OpDestroy, Domain: 2},       // no such domain
		{Kind: OpCreate, Domain: 1},
		{Kind: OpUnmap, Domain: 1, VPN: 0}, // not mapped
		{Kind: OpMap, Domain: 1, VPN: 0},
		{Kind: OpRead, Domain: 1, VPN: 0},
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if v != nil {
		t.Fatalf("clean trace reported violation: %s", v)
	}
}
