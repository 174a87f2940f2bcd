package sweep

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ivleague/internal/config"
)

// cachedObjects counts the committed objects in the cache.
func cachedObjects(c *Cache) int {
	n := 0
	filepath.WalkDir(filepath.Join(c.dir, "objects"), func(path string, d os.DirEntry, err error) error {
		if err == nil && d != nil && !d.IsDir() && filepath.Ext(path) == ".json" {
			n++
		}
		return nil
	})
	return n
}

func testKey(unit string) CellKey {
	cfg := config.Default()
	return CellKey{Kind: "mix", Extra: "test", Scheme: "IvLeague-Pro", Unit: unit, Config: &cfg}
}

func TestFingerprintStableAndSensitive(t *testing.T) {
	k := testKey("S-1")
	fp1, err := k.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	fp2, err := testKey("S-1").Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fp1 != fp2 {
		t.Fatalf("same key, different fingerprints: %s vs %s", fp1, fp2)
	}
	if len(fp1) != 64 {
		t.Fatalf("fingerprint %q is not sha256 hex", fp1)
	}
	// Every field must perturb the fingerprint — including the config.
	variants := []CellKey{testKey("S-2")}
	v := testKey("S-1")
	v.Kind = "alone"
	variants = append(variants, v)
	v = testKey("S-1")
	v.Scheme = "Baseline"
	variants = append(variants, v)
	v = testKey("S-1")
	v.Extra = "other"
	variants = append(variants, v)
	cfg := config.Default()
	cfg.Sim.Seed++
	v = testKey("S-1")
	v.Config = &cfg
	variants = append(variants, v)
	for i, vk := range variants {
		fp, err := vk.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		if fp == fp1 {
			t.Fatalf("variant %d did not change the fingerprint", i)
		}
	}
}

// TestFingerprintFieldBoundaries guards the length-prefix framing: moving
// bytes between adjacent fields must change the hash.
func TestFingerprintFieldBoundaries(t *testing.T) {
	a := CellKey{Kind: "ab", Scheme: "c", Config: 0}
	b := CellKey{Kind: "a", Scheme: "bc", Config: 0}
	fa, err := a.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	fb, err := b.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fa == fb {
		t.Fatal("field boundaries alias")
	}
}

func TestCacheRoundTripExact(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := testKey("S-1")
	fp, _ := key.Fingerprint()
	type payload struct {
		IPC  []float64
		Rate float64
		Name string
	}
	// Awkward floats: byte-identical table rendering requires exact
	// float64 round trips through the cache.
	in := payload{IPC: []float64{1.0 / 3.0, 0.1, 2.0000000000000004}, Rate: 0.9999999999999999, Name: "gcc"}
	if retries, err := c.Put(fp, key, &in); err != nil || retries != 0 {
		t.Fatalf("put: retries=%d err=%v", retries, err)
	}
	var out payload
	hit, corrupt := c.Get(fp, &out)
	if !hit || corrupt {
		t.Fatalf("get: hit=%v corrupt=%v", hit, corrupt)
	}
	if out.Name != in.Name || out.Rate != in.Rate || len(out.IPC) != len(in.IPC) {
		t.Fatalf("round trip mangled payload: %+v", out)
	}
	for i := range in.IPC {
		if out.IPC[i] != in.IPC[i] {
			t.Fatalf("float %d not exact: % x vs % x", i, out.IPC[i], in.IPC[i])
		}
	}
	if n := cachedObjects(c); n != 1 {
		t.Fatalf("cache has %d objects, want 1", n)
	}
}

func TestCacheMissOnAbsent(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var v int
	hit, corrupt := c.Get(strings.Repeat("ab", 32), &v)
	if hit || corrupt {
		t.Fatalf("absent entry: hit=%v corrupt=%v", hit, corrupt)
	}
}

// TestCorruptEntriesAreMisses covers the never-trust-a-partial-entry
// policy: truncation, garbage, version mismatch, fingerprint mismatch and
// checksum mismatch all come back as corrupt misses, and the bad object
// is removed so re-simulation can replace it.
func TestCorruptEntriesAreMisses(t *testing.T) {
	key := testKey("S-1")
	fp, _ := key.Fingerprint()
	otherFp, _ := testKey("S-2").Fingerprint()

	good, err := encodeEntry(fp, key, 42)
	if err != nil {
		t.Fatal(err)
	}
	versionMismatch := []byte(strings.Replace(string(good), Version, "ivleague-sweep-v0", 1))
	sumMismatch := []byte(strings.Replace(string(good), `"payload":42`, `"payload":43`, 1))
	wrongFp, err := encodeEntry(otherFp, key, 42)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"truncated":            good[:len(good)/2],
		"garbage":              []byte("\x00\xff not json at all"),
		"empty":                {},
		"version-mismatch":     versionMismatch,
		"fingerprint-mismatch": wrongFp,
		"checksum-mismatch":    sumMismatch,
		"wrong-payload-type":   []byte(`{"version":"` + Version + `","fingerprint":"` + fp + `"}`),
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			c, err := OpenCache(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			path := c.objectPath(fp)
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			var v int
			hit, corrupt := c.Get(fp, &v)
			if hit {
				t.Fatalf("corrupt entry %s trusted (decoded %d)", name, v)
			}
			if !corrupt {
				t.Fatalf("corrupt entry %s not flagged", name)
			}
			if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("corrupt object %s not removed: %v", name, err)
			}
		})
	}
}

// TestPutRetriesTransientIO injects write failures and checks the bounded
// retry-with-backoff loop.
func TestPutRetriesTransientIO(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var slept []time.Duration
	c.sleep = func(d time.Duration) { slept = append(slept, d) }
	failures := 2
	real := c.writeFile
	c.writeFile = func(path string, data []byte, perm os.FileMode) error {
		if failures > 0 {
			failures--
			return fmt.Errorf("transient: %w", os.ErrDeadlineExceeded)
		}
		return real(path, data, perm)
	}
	key := testKey("S-1")
	fp, _ := key.Fingerprint()
	retries, err := c.Put(fp, key, 7)
	if err != nil {
		t.Fatal(err)
	}
	if retries != 2 {
		t.Fatalf("retries = %d, want 2", retries)
	}
	if len(slept) != 2 || slept[1] != 2*slept[0] {
		t.Fatalf("backoff not exponential: %v", slept)
	}
	var v int
	if hit, _ := c.Get(fp, &v); !hit || v != 7 {
		t.Fatalf("entry not readable after retried write: hit=%v v=%d", hit, v)
	}
}

func TestPutGivesUpAfterBudget(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c.sleep = func(time.Duration) {}
	c.writeFile = func(string, []byte, os.FileMode) error { return os.ErrPermission }
	key := testKey("S-1")
	fp, _ := key.Fingerprint()
	retries, err := c.Put(fp, key, 7)
	if err == nil {
		t.Fatal("permanent failure reported as success")
	}
	if retries != c.retries {
		t.Fatalf("spent %d retries, budget %d", retries, c.retries)
	}
}

func TestJournalAppendReadSummary(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, JournalName)
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	recs := []Record{
		{Event: "start", Fingerprint: "aa", Label: "mix S-1"},
		{Event: "done", Fingerprint: "aa", Label: "mix S-1"},
		{Event: "hit", Fingerprint: "bb", Label: "mix S-2"},
		{Event: "failed", Fingerprint: "cc", Label: "mix S-3", Err: "boom"},
		{Event: "interrupted", Fingerprint: "dd", Label: "mix S-4"},
	}
	for _, r := range recs {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a kill mid-append: a torn trailing line must not break the
	// reader.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"event":"done","fp":"trunc`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	sum, err := ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	want := Summary{Sweeps: 1, Hits: 1, Done: 1, Failed: 1, Interrupted: 1}
	if sum != want {
		t.Fatalf("summary %+v, want %+v", sum, want)
	}
}

func newTestEngine(t *testing.T, cfg EngineConfig) *Engine {
	t.Helper()
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	e.grace = 100 * time.Millisecond
	return e
}

func TestEngineMissThenHit(t *testing.T) {
	dir := t.TempDir()
	e := newTestEngine(t, EngineConfig{Dir: dir, MaxCellFailures: 0})
	key := testKey("S-1")
	runs := 0
	body := func(dst *float64) func(context.Context) error {
		return func(context.Context) error {
			runs++
			*dst = 1.25
			return nil
		}
	}
	var v float64
	out, err := e.Cell(key, &v, body(&v))
	if err != nil || out != OutcomeRan {
		t.Fatalf("first cell: %v %v", out, err)
	}
	if v != 1.25 || runs != 1 {
		t.Fatalf("v=%v runs=%d", v, runs)
	}
	// Second engine over the same dir (a resumed process): pure hit.
	e2 := newTestEngine(t, EngineConfig{Dir: dir})
	var v2 float64
	out, err = e2.Cell(key, &v2, body(&v2))
	if err != nil || out != OutcomeHit {
		t.Fatalf("resumed cell: %v %v", out, err)
	}
	if v2 != 1.25 || runs != 1 {
		t.Fatalf("hit re-ran the cell: v2=%v runs=%d", v2, runs)
	}
	m := e2.Metrics()
	if m.Hits.Load() != 1 || m.Misses.Load() != 0 {
		t.Fatalf("metrics: hits=%d misses=%d", m.Hits.Load(), m.Misses.Load())
	}
}

// TestDirlessEngineRunsEveryCell pins the engine without a cache
// directory: no store, no journal, every cell a miss that runs, and
// checkpointing a no-op.
func TestDirlessEngineRunsEveryCell(t *testing.T) {
	e, err := NewEngine(EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if e.cache != nil {
		t.Fatal("dirless engine opened a store")
	}
	runs := 0
	for i := 0; i < 2; i++ {
		var v float64
		out, err := e.Cell(testKey("S-1"), &v, func(context.Context) error {
			runs++
			v = 1.25
			return nil
		})
		if err != nil || out != OutcomeRan || v != 1.25 {
			t.Fatalf("cell %d: %v %v v=%v", i, out, err, v)
		}
	}
	if m := e.Metrics(); runs != 2 || m.Misses.Load() != 2 || m.Hits.Load() != 0 {
		t.Fatalf("runs=%d hits=%d misses=%d, want two misses", runs, m.Hits.Load(), m.Misses.Load())
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestEngineDegradesWithinBudgetThenAborts(t *testing.T) {
	e := newTestEngine(t, EngineConfig{MaxCellFailures: 1})
	boom := func(context.Context) error { return errors.New("boom") }
	var v int
	out, err := e.Cell(testKey("S-1"), &v, boom)
	if out != OutcomeDegraded || err == nil {
		t.Fatalf("first failure: %v %v", out, err)
	}
	out, err = e.Cell(testKey("S-2"), &v, boom)
	if out != OutcomeFatal || !errors.Is(err, ErrFailureBudget) {
		t.Fatalf("budget breach: %v %v", out, err)
	}
	if got := e.Metrics().Degraded.Load(); got != 2 {
		t.Fatalf("degraded = %d, want 2", got)
	}
}

func TestEngineContainsPanics(t *testing.T) {
	e := newTestEngine(t, EngineConfig{MaxCellFailures: 5})
	var v int
	out, err := e.Cell(testKey("S-1"), &v, func(context.Context) error { panic("kaboom") })
	if out != OutcomeDegraded || err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("panic not contained: %v %v", out, err)
	}
}

func TestEngineCellTimeout(t *testing.T) {
	e := newTestEngine(t, EngineConfig{CellTimeout: 20 * time.Millisecond, MaxCellFailures: 5})
	var v int
	out, err := e.Cell(testKey("S-1"), &v, func(ctx context.Context) error {
		<-ctx.Done() // a well-behaved cell observes the deadline
		return ctx.Err()
	})
	if out != OutcomeDegraded || err == nil {
		t.Fatalf("timeout: %v %v", out, err)
	}
	// A cell that ignores its context is abandoned after the grace window.
	out, err = e.Cell(testKey("S-2"), &v, func(context.Context) error {
		time.Sleep(5 * time.Second)
		return nil
	})
	if out != OutcomeDegraded || err == nil || !strings.Contains(err.Error(), "abandoned") {
		t.Fatalf("runaway cell: %v %v", out, err)
	}
	if cachedObjects(e.cache) != 0 {
		t.Fatal("failed cells must not be cached")
	}
}

func TestEngineInterruptIsFatalNotDegraded(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	e := newTestEngine(t, EngineConfig{Ctx: ctx, MaxCellFailures: 0})
	var v int
	cancel()
	out, err := e.Cell(testKey("S-1"), &v, func(context.Context) error {
		t.Error("interrupted engine still started a cell")
		return nil
	})
	if out != OutcomeFatal || !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cell interrupt: %v %v", out, err)
	}
	if e.Metrics().Degraded.Load() != 0 {
		t.Fatal("interrupt counted as degradation")
	}

	// Mid-cell interrupt: the in-flight cell drains, is journaled as
	// interrupted, and is not cached.
	ctx2, cancel2 := context.WithCancel(context.Background())
	dir := t.TempDir()
	e2 := newTestEngine(t, EngineConfig{Ctx: ctx2, Dir: dir, MaxCellFailures: 0})
	out, err = e2.Cell(testKey("S-2"), &v, func(c context.Context) error {
		cancel2()
		<-c.Done()
		return c.Err()
	})
	if out != OutcomeFatal || err == nil {
		t.Fatalf("mid-cell interrupt: %v %v", out, err)
	}
	if cachedObjects(e2.cache) != 0 {
		t.Fatal("interrupted cell was cached")
	}
	if e2.Metrics().Canceled.Load() != 1 {
		t.Fatalf("canceled = %d, want 1", e2.Metrics().Canceled.Load())
	}
	if err := e2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	sum, err := ReadJournal(filepath.Join(dir, JournalName))
	if err != nil {
		t.Fatal(err)
	}
	if sum.Interrupted != 1 {
		t.Fatalf("journal: %+v", sum)
	}
}

func TestEngineCorruptEntryReSimulates(t *testing.T) {
	dir := t.TempDir()
	e := newTestEngine(t, EngineConfig{Dir: dir})
	key := testKey("S-1")
	fp, _ := key.Fingerprint()
	path := e.cache.objectPath(fp)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	var v int
	out, err := e.Cell(key, &v, func(context.Context) error { v = 9; return nil })
	if err != nil || out != OutcomeRan {
		t.Fatalf("corrupt entry blocked re-simulation: %v %v", out, err)
	}
	if v != 9 {
		t.Fatalf("v = %d", v)
	}
	m := e.Metrics()
	if m.Corrupt.Load() != 1 || m.Misses.Load() != 1 {
		t.Fatalf("metrics: corrupt=%d misses=%d", m.Corrupt.Load(), m.Misses.Load())
	}
	// The rewritten entry is now a clean hit.
	var v2 int
	out, err = e.Cell(key, &v2, func(context.Context) error { t.Error("re-ran"); return nil })
	if err != nil || out != OutcomeHit || v2 != 9 {
		t.Fatalf("rewrite not hit: %v %v v2=%d", out, err, v2)
	}
}

// FuzzEntryDecode hammers the cache-entry decoder with arbitrary bytes:
// it must never panic and never report a hit for data that is not a
// well-formed entry for the requested fingerprint.
func FuzzEntryDecode(f *testing.F) {
	key := testKey("S-1")
	fp, err := key.Fingerprint()
	if err != nil {
		f.Fatal(err)
	}
	good, err := encodeEntry(fp, key, map[string]float64{"ipc": 1.25})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(good[:len(good)-3])
	f.Add([]byte(`{"version":"` + Version + `"}`))
	f.Add([]byte{})
	f.Add([]byte("\x00\x01\x02garbage"))
	f.Fuzz(func(t *testing.T, data []byte) {
		var v map[string]float64
		err := decodeEntry(fp, data, &v)
		if err != nil {
			return
		}
		// A successful decode must mean the data really was a valid
		// envelope: re-encode the payload and check the checksum claim.
		var e entry
		if jerr := json.Unmarshal(data, &e); jerr != nil {
			t.Fatalf("decodeEntry accepted data json.Unmarshal rejects: %v", jerr)
		}
		if e.Version != Version || e.Fingerprint != fp {
			t.Fatalf("decodeEntry accepted mismatched envelope: %+v", e)
		}
	})
}
