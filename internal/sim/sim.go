// Package sim is the cycle-accounting simulation kernel: it instantiates a
// machine (cores with private L1/L2 and TLBs, a shared randomized LLC, the
// secure memory controller, the OS model) and replays the synthetic
// workload generators through it, producing per-core IPC and the metadata
// statistics the paper's figures report.
package sim

import (
	"context"
	"errors"
	"fmt"
	"io"

	"ivleague/internal/cache"
	"ivleague/internal/config"
	"ivleague/internal/layout"
	"ivleague/internal/osmodel"
	"ivleague/internal/pagetable"
	"ivleague/internal/secmem"
	"ivleague/internal/telemetry"
	"ivleague/internal/trace"
	"ivleague/internal/tree"
	"ivleague/internal/workload"
)

// ErrCrashInjected is the sentinel an op hook returns to model a power
// loss: the machine stops immediately with this as its failure cause, and
// the crash-recovery harness then persists and recovers the memory image.
var ErrCrashInjected = errors.New("sim: crash injected")

// EventSource supplies a thread's instruction stream. The synthetic
// workload generators implement it; trace replay provides an alternative
// implementation (see ReplayMix).
type EventSource interface {
	Next() workload.Event
	InitInstr() uint64
}

// thread is one hardware context: an event source bound to a process and
// core.
type thread struct {
	gen     EventSource
	proc    *osmodel.Process
	core    int
	bench   string
	tlb     *pagetable.TLB
	l1, l2  *cache.Cache
	cycles  float64
	instret uint64
	// snapshots at the warmup boundary
	cycles0  float64
	instret0 uint64
}

// Machine is a configured simulated system running one workload mix.
type Machine struct {
	// cfg is a private copy: holding the caller's *config.Config would let
	// later mutations alias into a running machine (configaliasing).
	cfg     config.Config
	scheme  config.Scheme
	mem     *secmem.Controller
	l3      *cache.Cache
	threads []*thread

	pendingLat int
	pendingErr error

	failed  bool
	failMsg string
	failErr error

	// opHooks run before every instruction step with the global op
	// count; the first non-nil return stops the run with that failure
	// cause. The fault-injection engine uses a hook to tamper mid-run or
	// crash at a chosen op; the observability plane uses one to publish
	// metric snapshots. Hooks run in registration order.
	opHooks []func(*Machine, uint64) error
	opCount uint64

	// ctx, when set (WithContext), is polled every ctxPollMask+1 ops so a
	// timed-out or interrupted sweep cell stops promptly.
	ctx context.Context

	// TraceWriter, when set before Run, records every generated memory
	// access (internal/trace format). Set with RecordTrace.
	traceW *trace.Writer

	// reg aggregates every component's counters; Run reads the Result off
	// one snapshot instead of polling components by hand.
	reg *telemetry.Registry
	// phases, when set (WithPhaseTimers), accrues sampled host time per
	// hot-path phase. Nil by default: every timer call is a nil-checked
	// no-op, so the uninstrumented path is unchanged, and the timers
	// never read simulation state, so results are byte-identical either
	// way.
	phases *telemetry.PhaseTimers
	// tracer, when set (WithTracer), receives sampled per-op events for
	// Chrome-trace export. Nil by default: the emit sites are behind nil
	// checks so the common path pays nothing.
	tracer *telemetry.Tracer

	// Cycle decomposition (diagnostics): where simulated time goes.
	CycBase, CycTLB, CycFault, CycMiss, CycWb float64
}

// wbChargeFraction is the share of the secure write-back path latency
// charged to the evicting core (write-buffer backpressure); the rest is
// posted.
const wbChargeFraction = 0.05

// MachineOption configures optional machine behaviour (functional memory,
// op hooks) without widening NewMachine's signature for every caller.
type MachineOption func(*machineOpts)

type machineOpts struct {
	memOpts []secmem.Option
	opHooks []func(*Machine, uint64) error
	tracer  *telemetry.Tracer
	audit   *telemetry.Audit
	phases  *telemetry.PhaseTimers
	ctx     context.Context
}

// WithFunctionalMem runs the secure-memory controller with its functional
// crypto/integrity layer on, so tampering with the simulated backing store
// is actually detected (and crash images can be persisted). Slower; used by
// the fault-injection engine.
func WithFunctionalMem() MachineOption {
	return func(o *machineOpts) { o.memOpts = append(o.memOpts, secmem.WithFunctional()) }
}

// WithOpHook installs a hook called before every instruction step with the
// machine and the global op count (0-based, across all threads). A non-nil
// return stops the run with that error as the failure cause; return
// ErrCrashInjected to model a power loss at that op. Hooks compose:
// every WithOpHook adds one, and they run in registration order until
// the first error.
func WithOpHook(h func(*Machine, uint64) error) MachineOption {
	return func(o *machineOpts) { o.opHooks = append(o.opHooks, h) }
}

// WithPhaseTimers attaches sampled hot-path phase timers (see
// telemetry.PhaseTimers): the step loop and the secure-memory
// controller accrue host time per phase, answering "where does
// simulating an op spend time" without an external profiler. The
// timers read only the host clock, so simulated results are
// byte-identical with and without them.
func WithPhaseTimers(t *telemetry.PhaseTimers) MachineOption {
	return func(o *machineOpts) { o.phases = t }
}

// WithTracer attaches an event tracer: the machine emits a sampled event
// per memory operation and the controller one per verification walk and
// page map/unmap, for Chrome-trace export after the run.
func WithTracer(tr *telemetry.Tracer) MachineOption {
	return func(o *machineOpts) { o.tracer = tr }
}

// WithContext makes the run cancelable: the machine polls ctx every
// ctxPollMask+1 ops and stops with a failure cause wrapping ctx's error
// when it fires. The sweep engine uses this for per-cell timeouts and
// SIGINT draining; a context that never fires leaves the simulation's
// behaviour bit-for-bit unchanged (the poll reads no simulation state).
func WithContext(ctx context.Context) MachineOption {
	return func(o *machineOpts) { o.ctx = ctx }
}

// ctxPollMask throttles context polling to every 4096 ops: cheap enough
// to be invisible, frequent enough that a canceled cell drains in
// microseconds of host time.
const ctxPollMask = 1<<12 - 1

// WithAudit attaches an isolation audit: the controller records every
// integrity-metadata touch by (domain, TreeLing, level, node) so the run
// can prove (or disprove) that domains never share tree nodes.
func WithAudit(a *telemetry.Audit) MachineOption {
	return func(o *machineOpts) { o.audit = a }
}

// NewMachine builds a machine running the given mix under the scheme.
// partitions configures SchemeStaticPartition (ignored otherwise; 0 picks
// one partition per process).
func NewMachine(cfg *config.Config, scheme config.Scheme, mix workload.Mix, partitions int, opts ...MachineOption) (*Machine, error) {
	var mo machineOpts
	for _, o := range opts {
		o(&mo)
	}
	if partitions <= 0 {
		partitions = 1
		for partitions < len(mix.Procs) {
			partitions <<= 1
		}
	}
	mem, err := secmem.New(cfg, scheme, partitions, mo.memOpts...)
	if err != nil {
		return nil, err
	}
	m := &Machine{
		cfg:     *cfg,
		scheme:  scheme,
		mem:     mem,
		opHooks: mo.opHooks,
		phases:  mo.phases,
		ctx:     mo.ctx,
	}
	if mo.phases != nil {
		mem.SetPhaseTimers(mo.phases)
	}
	m.l3, err = cache.New(cfg.L3, cfg.Sim.Seed^0x13c3ed, 0)
	if err != nil {
		return nil, err
	}
	// One allocator over all of memory, shared by every process; static
	// partitioning gives each domain its own over its partition instead.
	shared := osmodel.NewFrameAllocator(0, layout.PFN(mem.Layout().Pages))

	coreIdx := 0
	for pi, prof := range mix.Procs {
		domain := pi + 1
		if err := mem.CreateDomain(domain); err != nil {
			return nil, err
		}
		fr := shared
		if scheme == config.SchemeStaticPartition {
			fr = osmodel.NewFrameAllocator(mem.PartitionRange(domain))
		}
		levels := pagetable.ClassicLevels
		if scheme.IsIvLeague() {
			levels = pagetable.IvLeagueLevels
		}
		proc := osmodel.NewProcess(pi+1, domain, fr, levels)
		proc.OnPageMap = m.onPageMap
		proc.OnPageUnmap = m.onPageUnmap
		gens := workload.NewGenerators(prof, cfg.Sim.Seed^uint64(domain)<<8,
			workload.GenOpts{Scale: cfg.Sim.FootprintScale, InitFrac: cfg.Sim.InitFrac})
		for _, gen := range gens {
			if coreIdx >= cfg.Core.Count {
				return nil, fmt.Errorf("sim: mix %s needs more than %d cores", mix.Name, cfg.Core.Count)
			}
			t := &thread{
				gen:   gen,
				proc:  proc,
				core:  coreIdx,
				bench: prof.Name,
				tlb:   pagetable.NewTLB(cfg.Core.TLBEntries, 8),
			}
			if t.l1, err = cache.New(cfg.L1, cfg.Sim.Seed^uint64(coreIdx)<<16, 0); err != nil {
				return nil, err
			}
			if t.l2, err = cache.New(cfg.L2, cfg.Sim.Seed^uint64(coreIdx)<<24, 0); err != nil {
				return nil, err
			}
			dom := domain
			t.tlb.OnEvict = func(vpn layout.VPN) { mem.TLBEvicted(dom, vpn) }
			gen.OnFreeRange = func(vpnStart uint64, n int) {
				for v := vpnStart; v < vpnStart+uint64(n); v++ {
					ok, err := t.proc.Unmap(layout.VPN(v))
					// Generators may free never-touched pages; only real
					// accounting corruption fails the run.
					if err != nil && !errors.Is(err, osmodel.ErrNotMapped) && m.pendingErr == nil {
						m.pendingErr = err
					}
					if ok {
						m.shootdown(t.proc, layout.VPN(v))
					}
				}
			}
			m.threads = append(m.threads, t)
			coreIdx++
		}
	}
	m.registerMetrics()
	if mo.tracer != nil {
		m.tracer = mo.tracer
		mem.SetTracer(mo.tracer)
	}
	if mo.audit != nil {
		mem.SetAudit(mo.audit)
	}
	return m, nil
}

// shootdown invalidates vpn in the TLB of every thread of proc: after an
// unmap no thread of the process may keep translating to the freed frame.
func (m *Machine) shootdown(proc *osmodel.Process, vpn layout.VPN) {
	for _, th := range m.threads {
		if th.proc == proc {
			th.tlb.Invalidate(vpn)
		}
	}
}

// registerMetrics wires every component's counters into one registry, so
// Run (and external consumers via Registry) read a single snapshot instead
// of polling components, and resetStats is one Reset call. The machine's
// own reset hook re-snaps the per-core cycle and instret baselines; the
// registry zeroes the cache counters itself.
func (m *Machine) registerMetrics() {
	m.reg = telemetry.NewRegistry()
	m.mem.RegisterMetrics(m.reg, "secmem")
	m.l3.RegisterMetrics(m.reg, "sim.l3")
	for i, t := range m.threads {
		t.l1.RegisterMetrics(m.reg, fmt.Sprintf("sim.core%d.l1", i))
		t.l2.RegisterMetrics(m.reg, fmt.Sprintf("sim.core%d.l2", i))
		t := t
		m.reg.RegisterGauge(fmt.Sprintf("sim.core%d.cycles", i), func() float64 {
			return t.cycles - t.cycles0
		})
		m.reg.RegisterGauge(fmt.Sprintf("sim.core%d.instret", i), func() float64 {
			return float64(t.instret - t.instret0)
		})
		m.reg.RegisterReset(func() {
			t.cycles0 = t.cycles
			t.instret0 = t.instret
		})
	}
	if ivc := m.mem.IvLeague(); ivc != nil {
		// NFLB hit rate is aggregated per *thread*, not per domain — a
		// two-thread domain counts twice — matching the Figure 18 metric.
		m.reg.RegisterSampler(func(s *telemetry.Sample) {
			for _, t := range m.threads {
				b := ivc.NFLBOf(t.proc.DomainID)
				if b == nil {
					continue
				}
				s.Counter("sim.nflb.hits", b.Hits.Value())
				s.Counter("sim.nflb.misses", b.Misses.Value())
			}
		})
	}
	m.reg.RegisterGauge("sim.ops", func() float64 { return float64(m.opCount) })
	if m.phases != nil {
		m.phases.Register(m.reg, "phase")
	}
}

// Registry exposes the machine's metrics registry for snapshots; the
// counters reflect the current phase (reset at the warmup boundary).
func (m *Machine) Registry() *telemetry.Registry { return m.reg }

func (m *Machine) onPageMap(domain int, vpn layout.VPN, pfn layout.PFN) {
	lat, err := m.mem.OnPageMap(m.now(), domain, vpn, pfn)
	m.pendingLat += lat
	if err != nil {
		m.pendingErr = err
	}
}

func (m *Machine) onPageUnmap(domain int, vpn layout.VPN, pfn layout.PFN) {
	lat, err := m.mem.OnPageUnmap(m.now(), domain, vpn, pfn)
	m.pendingLat += lat
	if err != nil && m.pendingErr == nil {
		m.pendingErr = err
	}
}

// now approximates global time as the max per-thread cycle count.
func (m *Machine) now() uint64 {
	var max float64
	for _, t := range m.threads {
		if t.cycles > max {
			max = t.cycles
		}
	}
	return uint64(max)
}

// RecordTrace streams every memory access of the run to w in the
// internal/trace format. Call before Run; call Flush on the writer after.
func (m *Machine) RecordTrace(w io.Writer) *trace.Writer {
	m.traceW = trace.NewWriter(w)
	return m.traceW
}

// step advances one thread by one instruction.
//
//ivlint:hotpath
func (m *Machine) step(t *thread) error {
	ev := t.gen.Next()
	// Churn-phase unmaps run inside Next (OnFreeRange); surface any error
	// they latched before acting on the event.
	if m.pendingErr != nil {
		err := m.pendingErr
		m.pendingErr = nil
		return fmt.Errorf("sim: %s: %w", t.bench, err)
	}
	t.instret++
	cc := m.cfg.Core
	if !ev.Mem {
		t.cycles += cc.BaseCPI
		m.CycBase += cc.BaseCPI
		return nil
	}
	if m.traceW != nil {
		if err := m.traceW.Append(trace.Record{
			Thread: t.core, VPN: ev.VPN, Block: uint8(ev.Block), Write: ev.Write,
		}); err != nil {
			return fmt.Errorf("sim: trace: %w", err)
		}
	}
	// Translation.
	vpn := layout.VPN(ev.VPN)
	pfn, hit := t.tlb.Lookup(vpn)
	if !hit {
		p, fault, err := t.proc.Touch(vpn)
		if err != nil {
			return fmt.Errorf("sim: %s: %w", t.bench, err)
		}
		if m.pendingErr != nil {
			err := m.pendingErr
			m.pendingErr = nil
			return fmt.Errorf("sim: %s: %w", t.bench, err)
		}
		t.tlb.Insert(vpn, p)
		m.mem.OnPageWalk(t.proc.DomainID, vpn)
		t.cycles += float64(cc.TLBPenality + t.proc.Table.Depth()*cc.PTWalkCost)
		m.CycTLB += float64(cc.TLBPenality + t.proc.Table.Depth()*cc.PTWalkCost)
		if fault {
			t.cycles += float64(m.pendingLat)
			m.CycFault += float64(m.pendingLat)
		}
		m.pendingLat = 0
		pfn = p
	}
	addr := layout.DataBlockAddr(pfn, ev.Block)
	dom := t.proc.DomainID
	opStart := t.cycles

	// Cache hierarchy. Stores are write-allocate: a miss fetches the line
	// (read path); dirty data reaches the secure write path on eviction.
	r1 := t.l1.Access(addr, ev.Write)
	if r1.EvictedDirty {
		m.writeback(t, t.l2, r1.WritebackAddr)
	}
	if r1.Hit {
		t.cycles += float64(cc.L1Latency)
		m.CycBase += float64(cc.L1Latency)
		m.traceOp(t, dom, ev.Write, opStart)
		return nil
	}
	r2 := t.l2.Access(addr, false)
	if r2.EvictedDirty {
		m.writeback(t, m.l3, r2.WritebackAddr)
	}
	var missLat float64
	if r2.Hit {
		missLat = float64(cc.L2Latency)
	} else {
		r3 := m.l3.Access(addr, false)
		if r3.EvictedDirty {
			m.memWriteback(t, r3.WritebackAddr)
		}
		if r3.Hit {
			missLat = float64(cc.L3Latency)
		} else {
			smT := m.phases.Start()
			res, err := m.mem.Do(secmem.AccessRequest{
				Now: uint64(t.cycles), Domain: dom, VPN: vpn, PFN: pfn,
				Block: ev.Block, Write: false,
			})
			m.phases.End(telemetry.PhaseSecMem, smT)
			if err != nil {
				return fmt.Errorf("sim: %s: %w", t.bench, err)
			}
			missLat = float64(cc.L3Latency) + float64(res.Latency)
		}
	}
	t.cycles += float64(cc.L1Latency) + (1-cc.MLP)*missLat
	m.CycBase += float64(cc.L1Latency)
	m.CycMiss += (1 - cc.MLP) * missLat
	m.traceOp(t, dom, ev.Write, opStart)
	return nil
}

// traceOp emits a sampled read/write event covering one memory operation's
// charged cycles. No-op when tracing is off.
func (m *Machine) traceOp(t *thread, dom int, write bool, start float64) {
	if m.tracer == nil {
		return
	}
	class := telemetry.ClassRead
	if write {
		class = telemetry.ClassWrite
	}
	m.tracer.Emit(telemetry.Event{
		Class: class, TS: start, Dur: t.cycles - start,
		Core: t.core, Domain: dom, TreeLing: -1, Level: -1, Node: -1,
	})
}

// writeback pushes a dirty line one level down the hierarchy.
func (m *Machine) writeback(t *thread, lower *cache.Cache, addr uint64) {
	r := lower.Access(addr, true)
	if !r.EvictedDirty {
		return
	}
	if lower == m.l3 {
		m.memWriteback(t, r.WritebackAddr)
		return
	}
	// L2 victim falls into the LLC.
	r3 := m.l3.Access(r.WritebackAddr, true)
	if r3.EvictedDirty {
		m.memWriteback(t, r3.WritebackAddr)
	}
}

// memWriteback sends an LLC dirty victim through the secure write path,
// attributed to the frame's owner in the controller's page metadata.
func (m *Machine) memWriteback(t *thread, addr uint64) {
	pfn, block := layout.DataBlockOfAddr(addr)
	dom, vpn, ok := m.mem.Owner(pfn)
	if !ok {
		return // the page was freed; drop the stale line
	}
	smT := m.phases.Start()
	res, err := m.mem.Do(secmem.AccessRequest{
		Now: uint64(t.cycles), Domain: dom, VPN: vpn, PFN: pfn,
		Block: block, Write: true,
	})
	m.phases.End(telemetry.PhaseSecMem, smT)
	if err != nil {
		// Writebacks happen off the instruction path; latch the error so
		// the next step surfaces it instead of silently dropping a
		// detected integrity violation.
		if m.pendingErr == nil {
			m.pendingErr = err
		}
		return
	}
	t.cycles += wbChargeFraction * float64(res.Latency)
	m.CycWb += wbChargeFraction * float64(res.Latency)
}

// Result summarizes one run.
type Result struct {
	Scheme  config.Scheme
	Failed  bool
	FailMsg string
	// Tampered marks a failure whose cause is a detected integrity
	// violation (*tree.IntegrityError) rather than a scheme/resource
	// failure; the figure harness reports such cells as degraded, not
	// broken.
	Tampered bool
	// Degraded marks a synthetic placeholder produced by the sweep
	// engine's fault containment: the cell failed persistently (error,
	// panic, or timeout past the -cell-timeout bound) within the
	// -max-cell-failures budget, so its table entries render as "deg"
	// instead of aborting the sweep. Never set by the simulator itself,
	// and never persisted to the result cache (a resumed sweep retries
	// the cell).
	Degraded bool
	// Per-thread outcomes, index-aligned with the mix's thread order.
	Bench []string
	IPC   []float64
	// Aggregate metadata statistics (measured phase).
	MemAccesses  uint64
	PathLenMean  map[string]float64 // per benchmark
	NFLBHitRate  float64
	LMMHitRate   float64
	Utilization  float64
	Untracked    int
	TreeHitRate  float64
	CtrHitRate   float64
	L3MissRate   float64
	Swaps        uint64
	DRAMReadLat  float64
	Verification uint64
}

// Mem exposes the machine's secure memory controller.
func (m *Machine) Mem() *secmem.Controller { return m.mem }

// OpCount returns the number of instruction steps executed so far, the
// counter the op hooks observe.
func (m *Machine) OpCount() uint64 { return m.opCount }

// FailCause returns the error that failed the run (nil if it succeeded).
// Unlike Result.FailMsg it preserves the error chain, so callers can
// errors.As into *tree.IntegrityError or test errors.Is(ErrCrashInjected).
func (m *Machine) FailCause() error { return m.failErr }

// fail latches the run's failure cause.
func (m *Machine) fail(err error) {
	m.failed = true
	m.failMsg = err.Error()
	m.failErr = err
}

// Run executes warmup + measurement and returns the result. A scheme
// failure (TreeLing starvation under BV-v1, OOM) marks the run failed, as
// in Figure 17a.
func (m *Machine) Run() Result {
	res := Result{Scheme: m.scheme, PathLenMean: make(map[string]float64)}
	// The warmup window must cover every thread's initialization sweep.
	warm := m.cfg.Sim.WarmupInstr
	for _, t := range m.threads {
		if need := t.gen.InitInstr() + m.cfg.Sim.WarmupInstr/2; need > warm {
			warm = need
		}
	}
	total := warm + m.cfg.Sim.MeasureInstr
	for i := uint64(0); i < total && !m.failed; i++ {
		if i == warm {
			m.resetStats()
		}
		for _, t := range m.threads {
			if m.ctx != nil && m.opCount&ctxPollMask == 0 {
				if err := m.ctx.Err(); err != nil {
					m.fail(fmt.Errorf("sim: run canceled at op %d: %w", m.opCount, err))
					break
				}
			}
			failed := false
			for _, hook := range m.opHooks {
				if err := hook(m, m.opCount); err != nil {
					m.fail(err)
					failed = true
					break
				}
			}
			if failed {
				break
			}
			m.phases.BeginOp()
			stT := m.phases.Start()
			err := m.step(t)
			m.phases.End(telemetry.PhaseStep, stT)
			if err != nil {
				m.fail(err)
				break
			}
			m.opCount++
		}
	}
	// A writeback error latched on the very last step has no next step to
	// surface it; do so here.
	if !m.failed && m.pendingErr != nil {
		m.fail(m.pendingErr)
		m.pendingErr = nil
	}
	res.Failed = m.failed
	res.FailMsg = m.failMsg
	var ie *tree.IntegrityError
	res.Tampered = errors.As(m.failErr, &ie)
	for _, t := range m.threads {
		res.Bench = append(res.Bench, t.bench)
		dc := t.cycles - t.cycles0
		di := t.instret - t.instret0
		if dc > 0 {
			res.IPC = append(res.IPC, float64(di)/dc)
		} else {
			res.IPC = append(res.IPC, 0)
		}
	}
	// Aggregate statistics come off one registry snapshot; the counter
	// names and ratio math mirror the component accessors exactly.
	snap := m.reg.Snapshot()
	res.MemAccesses = snap.Counter("secmem.dram.reads") + snap.Counter("secmem.dram.writes")
	res.DRAMReadLat = snap.Ratio("secmem.dram.read_latency", "secmem.dram.reads")
	res.Verification = snap.Counter("secmem.verifications")
	res.Swaps = snap.Counter("secmem.swap_penalties")
	res.TreeHitRate = snap.HitRate("secmem.tree_cache")
	res.CtrHitRate = snap.HitRate("secmem.ctr_cache")
	res.L3MissRate = 1 - snap.HitRate("sim.l3")
	// Per-benchmark verification path length (domains map 1:1 to procs).
	seen := map[string]bool{}
	for _, t := range m.threads {
		if seen[t.bench] {
			continue
		}
		seen[t.bench] = true
		if h := m.mem.PathLen[t.proc.DomainID]; h != nil {
			res.PathLenMean[t.bench] = h.Mean()
		}
	}
	if ivc := m.mem.IvLeague(); ivc != nil {
		res.NFLBHitRate = snap.HitRate("sim.nflb")
		res.Utilization, res.Untracked = ivc.Utilization()
		res.LMMHitRate = snap.HitRate("secmem.lmm")
	}
	return res
}

// resetStats marks the warmup→measure boundary: one registry Reset zeroes
// every registered counter and runs each component's reset hook (secmem,
// per-core cycle/instret snapshots), replacing the old per-component
// choreography.
func (m *Machine) resetStats() {
	m.reg.Reset()
	m.reg.SetPhase(telemetry.PhaseMeasure)
	if m.tracer != nil {
		m.tracer.EmitAlways(telemetry.Event{
			Class: telemetry.ClassPhase, TS: float64(m.now()),
			Core: -1, Domain: 0, TreeLing: -1, Level: -1, Node: -1,
		})
	}
}

// RunMix is the one-call entry: build a machine for (cfg, scheme, mix) and
// run it, returning machine-construction errors (invalid config, too few
// cores) as errors. A Result with Failed set is not an error: scheme
// failures mid-run (TreeLing starvation under BV-v1, OOM) are measured
// outcomes that Figure 17a reports as "x".
func RunMix(cfg *config.Config, scheme config.Scheme, mix workload.Mix, opts ...MachineOption) (Result, error) {
	m, err := NewMachine(cfg, scheme, mix, 0, opts...)
	if err != nil {
		return Result{}, fmt.Errorf("sim: mix %s under %v: %w", mix.Name, scheme, err)
	}
	return m.Run(), nil
}

// RunAlone runs a single benchmark by itself (for weighted-IPC baselines)
// under the given scheme and returns its mean per-thread IPC.
func RunAlone(cfg *config.Config, scheme config.Scheme, prof workload.Profile, opts ...MachineOption) (float64, error) {
	mix := workload.Mix{Name: "alone-" + prof.Name, Procs: []workload.Profile{prof}}
	m, err := NewMachine(cfg, scheme, mix, 0, opts...)
	if err != nil {
		return 0, err
	}
	res := m.Run()
	if res.Failed {
		return 0, fmt.Errorf("sim: alone run failed: %s", res.FailMsg)
	}
	sum := 0.0
	for _, v := range res.IPC {
		sum += v
	}
	return sum / float64(len(res.IPC)), nil
}
