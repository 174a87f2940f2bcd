package figures

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"ivleague/internal/sweep"
	"ivleague/internal/workload"
)

// childDirEnv carries the cache directory into the re-exec'd child of
// TestKillAndResume; its presence selects child mode.
const childDirEnv = "IVSWEEP_CHILD_CACHE_DIR"

// killResumeOptions is tinyOptions without *testing.T so the re-exec'd
// child can build the exact same sweep the parent compares against.
func killResumeOptions() Options {
	o := Quick()
	o.Cfg.Sim.WarmupInstr = 5_000
	o.Cfg.Sim.MeasureInstr = 15_000
	o.Cfg.Sim.FootprintScale = 0.03
	o.Trials = 50
	var mixes []workload.Mix
	for _, n := range []string{"S-1", "M-6"} {
		m, err := workload.MixByName(n)
		if err != nil {
			panic(err)
		}
		mixes = append(mixes, m)
	}
	o.Mixes = mixes
	o.Parallelism = 2
	return o
}

func newSweepEngine(t *testing.T, dir string) *sweep.Engine {
	t.Helper()
	e, err := sweep.NewEngine(sweep.EngineConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

// countObjects counts the committed cell objects in the sweep store at
// dir.
func countObjects(dir string) int {
	n := 0
	filepath.WalkDir(filepath.Join(dir, "objects"), func(path string, d os.DirEntry, err error) error {
		if err == nil && d != nil && !d.IsDir() && filepath.Ext(path) == ".json" {
			n++
		}
		return nil
	})
	return n
}

// TestCachedSweepMatchesUncached is the core invariant: with a sweep
// engine attached the figure tables are byte-identical to the plain
// uncached path, both on the populating run and on a pure-hit rerun.
func TestCachedSweepMatchesUncached(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	o := killResumeOptions()
	plain, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	want := renderRunSet(t, plain)

	dir := t.TempDir()
	o1 := killResumeOptions()
	e1 := newSweepEngine(t, dir)
	o1.Sweep = e1
	first, err := Run(o1)
	if err != nil {
		t.Fatal(err)
	}
	if got := renderRunSet(t, first); got != want {
		t.Fatalf("cache-populating run diverges from uncached run:\n-- uncached --\n%s\n-- cached --\n%s", want, got)
	}
	m1 := e1.Metrics()
	if m1.Hits.Load() != 0 || m1.Misses.Load() == 0 {
		t.Fatalf("cold cache: hits=%d misses=%d", m1.Hits.Load(), m1.Misses.Load())
	}
	cells := countObjects(dir)
	if uint64(cells) != m1.Misses.Load() {
		t.Fatalf("cache holds %d objects after %d misses", cells, m1.Misses.Load())
	}

	o2 := killResumeOptions()
	e2 := newSweepEngine(t, dir)
	o2.Sweep = e2
	second, err := Run(o2)
	if err != nil {
		t.Fatal(err)
	}
	if got := renderRunSet(t, second); got != want {
		t.Fatalf("pure-hit rerun diverges from uncached run:\n-- uncached --\n%s\n-- rerun --\n%s", want, got)
	}
	m2 := e2.Metrics()
	if m2.Misses.Load() != 0 {
		t.Fatalf("warm cache still simulated %d cells", m2.Misses.Load())
	}
	if int(m2.Hits.Load()) != cells {
		t.Fatalf("warm cache answered %d hits for %d cached cells", m2.Hits.Load(), cells)
	}
}

// TestFiguresShareMixCells pins the mix cell key: it holds what the
// simulation reads, not the figure tag, so on one cache directory Fig20b's
// default point (256 KB, the default tree cache) is answered from the
// cells Run stored: three IvLeague schemes × the representative mixes. Its
// table must equal an uncached Fig20b.
func TestFiguresShareMixCells(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	want, err := Fig20b(killResumeOptions())
	if err != nil {
		t.Fatal(err)
	}
	o := killResumeOptions()
	e := newSweepEngine(t, t.TempDir())
	o.Sweep = e
	if _, err := Run(o); err != nil {
		t.Fatal(err)
	}
	before := e.Metrics().Hits.Load()
	got, err := Fig20b(o)
	if err != nil {
		t.Fatal(err)
	}
	if hits, wantHits := e.Metrics().Hits.Load()-before, 3*len(representativeMixes(o.Mixes)); int(hits) != wantHits {
		t.Fatalf("Fig20b after Run: %d cells from the store, want %d", hits, wantHits)
	}
	if got.String() != want.String() {
		t.Fatalf("Fig20b from a shared cache diverges from an uncached run:\n-- uncached --\n%s\n-- shared --\n%s", want, got)
	}
}

// TestKillAndResume hard-interrupts a sweep mid-flight with SIGKILL — no
// signal handler, no draining, the worst possible crash — then resumes
// over the survived cache and asserts the invariant from the design note:
// byte-identical tables to an uninterrupted run, re-simulating only the
// missing cells (hit count == objects that survived the kill).
func TestKillAndResume(t *testing.T) {
	if dir := os.Getenv(childDirEnv); dir != "" {
		// Child mode: sweep into the shared cache until killed.
		o := killResumeOptions()
		e, err := sweep.NewEngine(sweep.EngineConfig{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		o.Sweep = e
		if _, err := Run(o); err != nil {
			t.Fatal(err)
		}
		return
	}
	if testing.Short() {
		t.Skip("simulation-backed subprocess test")
	}

	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=TestKillAndResume$")
	cmd.Env = append(os.Environ(), childDirEnv+"="+dir)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// Wait for the child to commit at least one object, then SIGKILL it
	// mid-sweep. Counting committed .json objects is safe because every
	// cache write is atomic — a half-written temp file never counts.
	deadline := time.Now().Add(2 * time.Minute)
	for countObjects(dir) == 0 {
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatal("child produced no cache objects within the deadline")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	err := cmd.Wait()
	var exit *exec.ExitError
	if errors.As(err, &exit) && exit.Sys().(syscall.WaitStatus).Signal() != syscall.SIGKILL {
		t.Fatalf("child died of %v, not SIGKILL", exit)
	}
	survived := countObjects(dir)
	t.Logf("child SIGKILLed with %d cells committed", survived)

	// Resume over the survivors.
	o := killResumeOptions()
	e := newSweepEngine(t, dir)
	o.Sweep = e
	resumed, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	m := e.Metrics()
	if int(m.Hits.Load()) != survived {
		t.Fatalf("resume answered %d hits, but %d cells survived the kill — the resume re-simulated cached work",
			m.Hits.Load(), survived)
	}
	total := countObjects(dir)
	if int(m.Misses.Load()) != total-survived {
		t.Fatalf("resume simulated %d cells, want the %d missing ones", m.Misses.Load(), total-survived)
	}
	if m.Corrupt.Load() != 0 {
		t.Fatalf("SIGKILL corrupted %d cache objects; atomic writes must make that impossible", m.Corrupt.Load())
	}

	// The resumed sweep must be indistinguishable from an uninterrupted one.
	clean, err := Run(killResumeOptions())
	if err != nil {
		t.Fatal(err)
	}
	got, want := renderRunSet(t, resumed), renderRunSet(t, clean)
	if got != want {
		t.Fatalf("resumed tables diverge from uninterrupted run:\n-- uninterrupted --\n%s\n-- resumed --\n%s", want, got)
	}
}

// TestDegradedCellsRenderAsDeg drives the graceful-degradation path end to
// end: alone cells (required denominators) answered from the cache, every
// mix cell timing out, the failure budget absorbing them, and the tables
// rendering "deg" instead of aborting the sweep.
func TestDegradedCellsRenderAsDeg(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	dir := t.TempDir()
	o := killResumeOptions()
	o.Sweep = newSweepEngine(t, dir)
	if _, err := Run(o); err != nil {
		t.Fatal(err)
	}

	// Evict every mix cell, keeping the alone denominators cached.
	var evicted int
	err := filepath.WalkDir(filepath.Join(dir, "objects"), func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || filepath.Ext(path) != ".json" {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if strings.Contains(string(data), `"kind":"mix"`) {
			evicted++
			return os.Remove(path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if evicted == 0 {
		t.Fatal("no mix cells found to evict")
	}

	// Rerun with a timeout no simulation can beat and an unlimited failure
	// budget: alone cells hit, every mix cell degrades.
	o2 := killResumeOptions()
	e2, err := sweep.NewEngine(sweep.EngineConfig{
		Dir:             dir,
		CellTimeout:     time.Nanosecond,
		MaxCellFailures: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e2.Close() })
	o2.Sweep = e2
	rs, err := Run(o2)
	if err != nil {
		t.Fatal(err)
	}
	if got := int(e2.Metrics().Degraded.Load()); got != evicted {
		t.Fatalf("degraded %d cells, want the %d evicted mix cells", got, evicted)
	}
	f15, err := rs.Fig15()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(f15.String(), "deg") {
		t.Fatalf("Fig15 does not render degraded cells:\n%s", f15)
	}
	if !strings.Contains(rs.Fig18().String(), "deg") {
		t.Fatalf("Fig18 does not render degraded cells:\n%s", rs.Fig18())
	}
	// Degraded cells are never cached: a later sweep with a sane budget
	// re-simulates exactly those cells and fully recovers the tables.
	o3 := killResumeOptions()
	e3 := newSweepEngine(t, dir)
	o3.Sweep = e3
	healed, err := Run(o3)
	if err != nil {
		t.Fatal(err)
	}
	if int(e3.Metrics().Misses.Load()) != evicted {
		t.Fatalf("recovery simulated %d cells, want %d", e3.Metrics().Misses.Load(), evicted)
	}
	clean, err := Run(killResumeOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := renderRunSet(t, healed), renderRunSet(t, clean); got != want {
		t.Fatalf("healed tables diverge from clean run:\n-- clean --\n%s\n-- healed --\n%s", want, got)
	}
}

// TestFig22CachedMatchesUncached covers the Monte-Carlo cells: cached and
// uncached grids are byte-identical and a rerun is answered entirely from
// the cache.
func TestFig22CachedMatchesUncached(t *testing.T) {
	o := killResumeOptions()
	want, err := Fig22(o)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	o1 := killResumeOptions()
	e1 := newSweepEngine(t, dir)
	o1.Sweep = e1
	got, err := Fig22(o1)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatalf("cached Fig22 diverges:\n-- uncached --\n%s\n-- cached --\n%s", want, got)
	}
	o2 := killResumeOptions()
	e2 := newSweepEngine(t, dir)
	o2.Sweep = e2
	again, err := Fig22(o2)
	if err != nil {
		t.Fatal(err)
	}
	if again.String() != want.String() {
		t.Fatalf("warm Fig22 diverges")
	}
	if m := e2.Metrics(); m.Misses.Load() != 0 || m.Hits.Load() == 0 {
		t.Fatalf("warm Fig22: hits=%d misses=%d", m.Hits.Load(), m.Misses.Load())
	}
}
