// Package modelcheck is a bounded state-space explorer for the IvLeague
// domain lifecycle. It enumerates every reachable sequence of OS-level
// operations — domain create/destroy, page map/unmap, data read/write
// (which drives TreeLing assignment, Invert conversions and Pro hotpage
// migration) — on a downsized TreeLing configuration, and asserts in every
// visited state that (a) no integrity-metadata node is ever touched by two
// domains (the telemetry isolation audit, with recycle epochs), (b) every
// TreeLing touch in the current epoch comes from the TreeLing's current
// owner, and (c) crash recovery from the persisted image reproduces the
// live machine's state digest byte-for-byte (the Phoenix-style guarantee,
// checked at every reachable crash point instead of at sampled ones).
//
// States are identified by the operation prefix that reaches them and
// deduplicated by a canonical fingerprint (persisted state digest +
// behavioural volatile state), which collapses symmetric interleavings.
// Transitions replay their prefix on a fresh machine, so exploration needs
// no undo machinery and parallel workers share nothing.
package modelcheck

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"ivleague/internal/config"
)

// OpKind enumerates the lifecycle operations the explorer drives.
type OpKind int

// The operation alphabet. OpWrite performs Options.Burst secure writes so
// the Pro hotpage machinery (threshold + migration rate limit) is
// reachable within small depth bounds.
const (
	OpCreate  OpKind = iota // create domain
	OpDestroy               // unmap all pages, then destroy domain
	OpMap                   // touch an unmapped VPN (alloc frame + tree slot)
	OpUnmap                 // unmap a mapped VPN (free frame + tree slot)
	OpWrite                 // burst of secure writes to a mapped VPN
	OpRead                  // one verified read of a mapped VPN
)

var opNames = map[OpKind]string{
	OpCreate: "create", OpDestroy: "destroy", OpMap: "map",
	OpUnmap: "unmap", OpWrite: "write", OpRead: "read",
}

// Op is one transition of the state machine.
type Op struct {
	Kind   OpKind
	Domain int
	VPN    uint64 // unused for OpCreate/OpDestroy
}

func (o Op) String() string {
	switch o.Kind {
	case OpCreate, OpDestroy:
		return fmt.Sprintf("%s %d", opNames[o.Kind], o.Domain)
	default:
		return fmt.Sprintf("%s %d %d", opNames[o.Kind], o.Domain, o.VPN)
	}
}

// Trace is a sequence of operations from the initial (empty) machine.
type Trace []Op

// Fault classes the checker can arm, reusing the PR-3 fault primitives.
const (
	// FaultNFLSet flips an NFL availability bit so an occupied slot is
	// re-offered; detected by the allocation cross-check on a later map.
	FaultNFLSet = "nfl-set"
	// FaultLMM forges a page's LMM entry into another domain's TreeLing;
	// the misdirected verification walk fails and touches foreign metadata.
	FaultLMM = "lmm"
)

// Options bound the explored state space and configure the machine.
// The zero value of every field selects a sensible default.
type Options struct {
	Scheme    config.Scheme // must be an IvLeague scheme (default Basic)
	Depth     int           // max trace length (default 4)
	MaxStates int           // state budget; exceeding it truncates (default 20000)
	Workers   int           // parallel transition workers (default NumCPU)
	Domains   int           // domain IDs 1..Domains (default 2)
	VPNs      uint64        // per-domain VPN universe 0..VPNs-1 (default 3)
	Frames    uint64        // physical frames (default 4; < Domains*VPNs to reach OOM)
	TreeLings int           // TreeLings provisioned (default 2)
	Burst     int           // writes per OpWrite (default 10; reaches Pro migration)
	Fault     string        // "", FaultNFLSet or FaultLMM
}

func (o Options) withDefaults() Options {
	if o.Depth <= 0 {
		o.Depth = 4
	}
	if o.MaxStates <= 0 {
		o.MaxStates = 20000
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Domains <= 0 {
		o.Domains = 2
	}
	if o.VPNs == 0 {
		o.VPNs = 3
	}
	if o.Frames == 0 {
		o.Frames = 4
	}
	if o.TreeLings <= 0 {
		o.TreeLings = 2
	}
	if o.Burst <= 0 {
		o.Burst = 10
	}
	if o.Scheme == 0 && !o.Scheme.IsIvLeague() {
		o.Scheme = config.SchemeIvLeagueBasic
	}
	return o
}

// Schemes returns the schemes the checker explores, in report order. The
// BV ablations have no recovery support; the static schemes have no
// TreeLings to isolate.
func Schemes() []config.Scheme {
	return []config.Scheme{config.SchemeIvLeagueBasic, config.SchemeIvLeagueInvert, config.SchemeIvLeaguePro}
}

// CheckScheme rejects a scheme the checker cannot explore.
func CheckScheme(s config.Scheme) error {
	if slices.Contains(Schemes(), s) {
		return nil
	}
	return fmt.Errorf("modelcheck: scheme %v is not checkable (want basic, invert or pro)", s)
}

// smallConfig builds the downsized machine configuration: binary trees of
// height 3 (8 pages per TreeLing), a DRAM just covered by the provisioned
// TreeLings, and hotpage parameters low enough that Pro migration fires
// within one write burst.
func smallConfig(o Options) (*config.Config, error) {
	cfg := config.Default()
	cfg.SecureMem.TreeArity = 2
	cfg.IvLeague.TreeLingHeight = 3
	cfg.IvLeague.TreeLingCount = o.TreeLings
	cfg.DRAM.SizeBytes = uint64(o.TreeLings) * cfg.TreeLingBytes()
	cfg.IvLeague.MaxDomains = o.Domains
	cfg.IvLeague.NFLBEntries = 2
	// 4 entries/block reserves two NFL blocks per TreeLing (ceil(7/4)) —
	// enough for Pro's regular region (4 non-hot nodes) plus its hot
	// region, which the layout packs into the same per-TreeLing range.
	cfg.IvLeague.NFLEntriesPerBlock = 4
	cfg.IvLeague.HotTrackerEntries = 4
	cfg.IvLeague.HotCounterBits = 4
	cfg.IvLeague.HotThreshold = 2
	cfg.IvLeague.HotClearInterval = 0
	cfg.IvLeague.HotRegionLeaves = 1
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("modelcheck: downsized config invalid: %w", err)
	}
	if o.Frames > cfg.TotalPages() {
		return nil, fmt.Errorf("modelcheck: %d frames exceed the %d pages of the downsized memory", o.Frames, cfg.TotalPages())
	}
	return &cfg, nil
}

// ViolationKind classifies a failed invariant.
type ViolationKind int

// The invariant classes the checker distinguishes.
const (
	ViolationIsolation ViolationKind = iota + 1 // metadata node shared across domains
	ViolationRecovery                           // recovered digest differs from live
	ViolationIntegrity                          // a *tree.IntegrityError surfaced
	ViolationInternal                           // any other unexpected error
	ViolationNFL                                // one slot offered by two NFL entries of a domain
)

func (k ViolationKind) String() string {
	switch k {
	case ViolationIsolation:
		return "isolation"
	case ViolationRecovery:
		return "recovery"
	case ViolationIntegrity:
		return "integrity"
	case ViolationInternal:
		return "internal"
	case ViolationNFL:
		return "nfl"
	default:
		return fmt.Sprintf("ViolationKind(%d)", int(k))
	}
}

// Violation is a failed invariant with the trace that reaches it. The
// trace's last operation is the one whose post-state violates.
type Violation struct {
	Kind   ViolationKind
	Detail string
	Err    error // underlying error for integrity/internal violations
	Trace  Trace
}

func (v *Violation) String() string {
	return fmt.Sprintf("%s violation after %d ops: %s", v.Kind, len(v.Trace), v.Detail)
}

// Result summarizes one exploration.
type Result struct {
	Scheme      config.Scheme
	States      int  // distinct states discovered (including the initial one)
	Transitions int  // op applications explored
	Rejected    int  // expected-rejection transitions (OOM, starvation)
	Deduped     int  // transitions that reached an already-known state
	Complete    bool // the bounded space was exhausted within MaxStates
	Violation   *Violation
}

// Explore runs the bounded breadth-first exploration and returns its
// summary. A nil Result.Violation means every reachable state within the
// bounds satisfies every invariant. The first violation in canonical
// (level, state, op) order is reported, so results are deterministic for
// any worker count.
func Explore(opts Options) (*Result, error) {
	opts = opts.withDefaults()
	if err := CheckScheme(opts.Scheme); err != nil {
		return nil, err
	}
	cfg, err := smallConfig(opts)
	if err != nil {
		return nil, err
	}
	res := &Result{Scheme: opts.Scheme}

	m0, err := newMachine(opts, cfg)
	if err != nil {
		return nil, err
	}
	visited := map[string]bool{m0.fingerprint(): true}
	frontier := []Trace{nil}
	res.States = 1
	truncated := false

	for depth := 0; depth < opts.Depth && len(frontier) > 0 && !truncated; depth++ {
		type task struct {
			trace Trace
			op    Op
		}
		var tasks []task
		for _, tr := range frontier {
			m, err := rebuild(opts, cfg, tr)
			if err != nil {
				return nil, err
			}
			for _, op := range m.enabledOps() {
				tasks = append(tasks, task{trace: tr, op: op})
			}
		}

		type stepResult struct {
			trace     Trace
			fp        string
			rejected  bool
			violation *Violation
			err       error
		}
		results := make([]stepResult, len(tasks))
		var next int64 = -1
		var wg sync.WaitGroup
		workers := opts.Workers
		if workers > len(tasks) {
			workers = len(tasks)
		}
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(atomic.AddInt64(&next, 1))
					if i >= len(tasks) {
						return
					}
					t := tasks[i]
					m, err := rebuild(opts, cfg, t.trace)
					if err != nil {
						results[i] = stepResult{err: err}
						continue
					}
					trace := append(append(Trace(nil), t.trace...), t.op)
					out, viol := m.apply(t.op)
					switch {
					case viol != nil:
						viol.Trace = trace
						results[i] = stepResult{violation: viol}
					case out == outRejected:
						results[i] = stepResult{rejected: true}
					case out == outSkipped:
						// enabledOps never emits inapplicable ops
						results[i] = stepResult{err: fmt.Errorf("modelcheck: enabled op %v was inapplicable", t.op)}
					default:
						if viol := m.checkInvariants(); viol != nil {
							viol.Trace = trace
							results[i] = stepResult{violation: viol}
						} else {
							results[i] = stepResult{trace: trace, fp: m.fingerprint()}
						}
					}
				}
			}()
		}
		wg.Wait()

		// Deterministic merge in task order.
		var nextFrontier []Trace
		for _, r := range results {
			res.Transitions++
			switch {
			case r.err != nil:
				return nil, r.err
			case r.violation != nil:
				res.Violation = r.violation
				return res, nil
			case r.rejected:
				res.Rejected++
			case visited[r.fp]:
				res.Deduped++
			default:
				visited[r.fp] = true
				res.States++
				nextFrontier = append(nextFrontier, r.trace)
				if res.States >= opts.MaxStates {
					truncated = true
				}
			}
			if truncated {
				break
			}
		}
		frontier = nextFrontier
	}
	res.Complete = !truncated
	return res, nil
}

// rebuild replays a trace on a fresh machine. Every op of an exploration
// trace was accepted when discovered, so a skip or rejection here is an
// internal inconsistency.
func rebuild(opts Options, cfg *config.Config, t Trace) (*machine, error) {
	m, err := newMachine(opts, cfg)
	if err != nil {
		return nil, err
	}
	for i, op := range t {
		out, viol := m.apply(op)
		if viol != nil {
			return nil, fmt.Errorf("modelcheck: replaying op %d (%v): %s", i, op, viol.Detail)
		}
		if out != outAccepted {
			return nil, fmt.Errorf("modelcheck: op %d (%v) no longer applicable during rebuild", i, op)
		}
	}
	return m, nil
}

// Replay runs a trace on a fresh machine, checking every invariant after
// every accepted operation, and returns the first violation (with its
// truncated trace) or nil. Inapplicable and rejected operations are
// skipped, which makes Replay total over arbitrary traces — the property
// minimization relies on.
func Replay(opts Options, t Trace) (*Violation, error) {
	opts = opts.withDefaults()
	cfg, err := smallConfig(opts)
	if err != nil {
		return nil, err
	}
	m, err := newMachine(opts, cfg)
	if err != nil {
		return nil, err
	}
	var prefix Trace
	for _, op := range t {
		out, viol := m.apply(op)
		if viol != nil {
			viol.Trace = append(append(Trace(nil), prefix...), op)
			return viol, nil
		}
		if out != outAccepted {
			continue
		}
		prefix = append(prefix, op)
		if viol := m.checkInvariants(); viol != nil {
			viol.Trace = append(Trace(nil), prefix...)
			return viol, nil
		}
	}
	return nil, nil
}

// Minimize greedily shrinks a violating trace: it repeatedly removes one
// operation and keeps the shorter trace whenever the same violation kind
// still reproduces. The result replays deterministically to a violation of
// the same kind.
func Minimize(opts Options, v *Violation) (Trace, error) {
	if v == nil {
		return nil, errors.New("modelcheck: nothing to minimize")
	}
	cur := append(Trace(nil), v.Trace...)
	for changed := true; changed; {
		changed = false
		for i := 0; i < len(cur); i++ {
			cand := append(append(Trace(nil), cur[:i]...), cur[i+1:]...)
			rv, err := Replay(opts, cand)
			if err != nil {
				return nil, err
			}
			if rv != nil && rv.Kind == v.Kind && len(rv.Trace) < len(cur) {
				cur = rv.Trace
				changed = true
				break
			}
		}
	}
	return cur, nil
}
