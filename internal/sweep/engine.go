package sweep

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync/atomic"
	"time"
)

// JournalName is the journal's filename inside a cache directory.
const JournalName = "journal.jsonl"

// ErrFailureBudget is wrapped into the error that aborts a sweep once
// more cells have persistently failed than MaxCellFailures allows.
var ErrFailureBudget = errors.New("sweep: cell failure budget exhausted")

// EngineConfig configures a sweep engine.
type EngineConfig struct {
	// Dir is the cache directory (objects/ store + journal). Empty opens
	// no store and no journal: every cell is a miss, nothing touches disk,
	// and cells still run under the engine's containment.
	Dir string
	// CellTimeout bounds one cell's simulation; 0 disables the bound. A
	// timed-out cell counts against the failure budget and is rendered
	// degraded, not fatal.
	CellTimeout time.Duration
	// MaxCellFailures is how many persistently failing cells a sweep
	// tolerates (journaled as failed, rendered as degraded entries)
	// before aborting; negative means unlimited.
	MaxCellFailures int
	// Ctx, when non-nil, interrupts the sweep: in-flight cells observe
	// the cancellation (the simulator polls it), are drained without
	// being cached, and the engine reports fatal outcomes so the caller
	// can checkpoint and exit with a resume hint.
	Ctx context.Context
}

// Engine coordinates cached, fault-contained sweep cells. It is safe for
// concurrent use by the figure harness's worker pool.
type Engine struct {
	cache   *Cache   // nil without a Dir
	journal *Journal // nil without a Dir
	metrics *Metrics
	ctx     context.Context

	cellTimeout time.Duration
	maxFailures int
	failures    atomic.Int64

	// grace is how long a timed-out/canceled cell gets to notice its
	// context before the engine abandons its goroutine.
	grace time.Duration
}

// NewEngine builds an engine, opening the cache and journal under
// cfg.Dir when it is set.
func NewEngine(cfg EngineConfig) (*Engine, error) {
	e := &Engine{
		metrics:     &Metrics{start: time.Now()},
		ctx:         cfg.Ctx,
		cellTimeout: cfg.CellTimeout,
		maxFailures: cfg.MaxCellFailures,
		grace:       2 * time.Second,
	}
	if e.ctx == nil {
		e.ctx = context.Background()
	}
	if cfg.Dir == "" {
		return e, nil
	}
	var err error
	if e.cache, err = OpenCache(cfg.Dir); err != nil {
		return nil, err
	}
	if e.journal, err = OpenJournal(filepath.Join(cfg.Dir, JournalName)); err != nil {
		return nil, err
	}
	return e, nil
}

// Metrics returns the engine's counters.
func (e *Engine) Metrics() *Metrics { return e.metrics }

// Cache returns the underlying object store, nil for a dirless engine.
func (e *Engine) Cache() *Cache { return e.cache }

// Interrupted reports whether the sweep's context has been canceled.
func (e *Engine) Interrupted() bool { return e.ctx.Err() != nil }

// Checkpoint fsyncs the journal (the SIGINT/SIGTERM drain path).
func (e *Engine) Checkpoint() error {
	if e.journal == nil {
		return nil
	}
	return e.journal.Checkpoint()
}

// Close checkpoints and closes the journal.
func (e *Engine) Close() error {
	if e.journal == nil {
		return nil
	}
	return e.journal.Close()
}

// Outcome classifies what Cell did.
type Outcome int

const (
	// OutcomeRan: the cell simulated and its result is in dst (and, barring
	// a persistent write failure, in the cache).
	OutcomeRan Outcome = iota
	// OutcomeHit: dst was decoded from the cache; nothing simulated.
	OutcomeHit
	// OutcomeDegraded: the cell failed persistently (error or timeout) but
	// the failure budget absorbs it; the returned error describes the
	// cause and dst is untouched. The sweep continues.
	OutcomeDegraded
	// OutcomeFatal: the sweep must stop — interrupt, unfingerprintable
	// key, or exhausted failure budget. The returned error says which.
	OutcomeFatal
)

// String names the outcome for journals and tests.
func (o Outcome) String() string {
	switch o {
	case OutcomeRan:
		return "ran"
	case OutcomeHit:
		return "hit"
	case OutcomeDegraded:
		return "degraded"
	case OutcomeFatal:
		return "fatal"
	}
	return fmt.Sprintf("Outcome(%d)", int(o))
}

// Cell executes one sweep cell: consult the cache, else Run the body,
// persist the result immediately and journal what happened. run must fill
// dst on success; on a cache hit dst is decoded from the stored entry
// instead. A dirless engine has no store, so Cell is exactly Run.
func (e *Engine) Cell(key CellKey, dst any, run func(ctx context.Context) error) (Outcome, error) {
	if e.cache == nil {
		return e.Run(key, run)
	}
	if err := e.ctx.Err(); err != nil {
		return OutcomeFatal, fmt.Errorf("sweep: interrupted before %s: %w", key.Label(), err)
	}
	fp, err := key.Fingerprint()
	if err != nil {
		return OutcomeFatal, err
	}
	hit, corrupt := e.cache.Get(fp, dst)
	if corrupt {
		// Never trust a partial entry: drop it (Get already removed the
		// object), count it, and re-simulate as a plain miss.
		e.metrics.Corrupt.Add(1)
		if err := e.journal.Append(Record{Event: "corrupt", Fingerprint: fp, Label: key.Label()}); err != nil {
			return OutcomeFatal, err
		}
	}
	if hit {
		e.metrics.Hits.Add(1)
		e.metrics.recordHit()
		if err := e.journal.Append(Record{Event: "hit", Fingerprint: fp, Label: key.Label()}); err != nil {
			return OutcomeFatal, err
		}
		return OutcomeHit, nil
	}
	if err := e.journal.Append(Record{Event: "start", Fingerprint: fp, Label: key.Label()}); err != nil {
		return OutcomeFatal, err
	}

	outcome, runErr := e.Run(key, run)
	rec := Record{Event: "failed", Fingerprint: fp, Label: key.Label()}
	switch {
	case outcome == OutcomeRan:
		rec.Event = "done"
		retries, putErr := e.cache.Put(fp, key, dst)
		e.metrics.WriteRetries.Add(uint64(retries))
		if putErr != nil {
			// The in-memory result is still good; a sweep that cannot
			// persist keeps going and simply cannot skip this cell on
			// resume.
			e.metrics.WriteFailures.Add(1)
			rec.Err = putErr.Error()
		}
	case outcome == OutcomeFatal && !errors.Is(runErr, ErrFailureBudget):
		// Sweep-level interrupt: the cell is neither done nor failed.
		rec.Event = "interrupted"
	default:
		rec.Err = runErr.Error()
	}
	if err := e.journal.Append(rec); err != nil {
		return OutcomeFatal, err
	}
	return outcome, runErr
}

// Run executes one cell body under the engine's containment, without
// consulting or filling the store: the sweep interrupt, the cell timeout,
// panic recovery, the ledger's record of the body and the failure
// budget. Cell calls it on a miss; cells whose effects a stored result
// cannot reproduce (trace export, armed fault injection, attack runs)
// call it directly. On OutcomeRan the body has returned, so whatever it wrote is
// safe to read; on any other outcome it may still be running.
func (e *Engine) Run(key CellKey, run func(ctx context.Context) error) (Outcome, error) {
	if err := e.ctx.Err(); err != nil {
		return OutcomeFatal, fmt.Errorf("sweep: interrupted before %s: %w", key.Label(), err)
	}
	e.metrics.Misses.Add(1)
	ctx := e.ctx
	if e.cellTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(e.ctx, e.cellTimeout)
		defer cancel()
	}
	// Wall-clock only feeds the ledger's latency histogram (progress
	// reporting); it never reaches a cached result or a table.
	start := time.Now()
	done := make(chan error, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				done <- fmt.Errorf("sweep: cell %s panicked: %v", key.Label(), r)
			}
		}()
		done <- run(ctx)
	}()
	var runErr error
	select {
	case runErr = <-done:
	case <-ctx.Done():
		// Give the cell a grace window to observe the cancellation (the
		// simulator polls its context every few thousand ops); a cell
		// that ignores it is abandoned — its goroutine finishes into the
		// buffered channel and is collected. A cell that finishes with a
		// usable result despite a firing deadline keeps it.
		select {
		case runErr = <-done:
		case <-time.After(e.grace):
			runErr = fmt.Errorf("sweep: cell %s abandoned: %w", key.Label(), ctx.Err())
		}
	}
	interrupted := e.ctx.Err()
	e.metrics.recordRun(time.Since(start), runErr != nil || interrupted != nil)

	if interrupted != nil {
		e.metrics.Canceled.Add(1)
		return OutcomeFatal, fmt.Errorf("sweep: interrupted during %s: %w", key.Label(), interrupted)
	}
	if runErr == nil {
		return OutcomeRan, nil
	}
	// Persistent per-cell failure (simulation error, panic, or timeout):
	// degrade unless the budget is spent.
	e.metrics.Degraded.Add(1)
	if n := e.failures.Add(1); e.maxFailures >= 0 && n > int64(e.maxFailures) {
		return OutcomeFatal, fmt.Errorf("%w: %d cells failed (budget %d), last: %s: %v",
			ErrFailureBudget, n, e.maxFailures, key.Label(), runErr)
	}
	return OutcomeDegraded, fmt.Errorf("sweep: cell %s failed: %w", key.Label(), runErr)
}
