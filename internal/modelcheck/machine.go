package modelcheck

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"

	"ivleague/internal/config"
	"ivleague/internal/core"
	"ivleague/internal/layout"
	"ivleague/internal/osmodel"
	"ivleague/internal/pagetable"
	"ivleague/internal/secmem"
	"ivleague/internal/stats"
	"ivleague/internal/telemetry"
	"ivleague/internal/tree"
)

// machine is one downsized IvLeague system under exploration: the secure
// memory controller in functional mode with the isolation audit attached,
// a shared frame allocator, and one OS process per live domain. Metadata
// caches are flushed after every operation, so every access verifies from
// memory: walks (and therefore audit touches) are maximal and independent
// of cache history, which keeps the state fingerprint sound.
type machine struct {
	opts  Options
	ctl   *secmem.Controller
	audit *telemetry.Audit

	frames *osmodel.FrameAllocator
	procs  map[int]*osmodel.Process

	pendingErr error // latched by the page map/unmap hooks
	faultDone  bool  // the armed fault has been applied
}

func newMachine(opts Options, cfg *config.Config) (*machine, error) {
	ctl, err := secmem.New(cfg, opts.Scheme, 2, secmem.WithFunctional())
	if err != nil {
		return nil, err
	}
	m := &machine{
		opts:   opts,
		ctl:    ctl,
		audit:  telemetry.NewAudit(),
		frames: osmodel.NewFrameAllocator(0, layout.PFN(opts.Frames)),
		procs:  make(map[int]*osmodel.Process),
	}
	ctl.SetAudit(m.audit)
	return m, nil
}

// outcome classifies one op application.
type outcome int

const (
	outAccepted outcome = iota
	outRejected         // expected rejection (OOM, TreeLing starvation)
	outSkipped          // inapplicable in the current state (replay only)
)

// apply executes one operation. It returns outAccepted and mutated state,
// outRejected for an expected resource rejection (the machine is restored,
// the transition is a self-loop), outSkipped when the op's precondition
// does not hold, or a Violation when an invariant-relevant error surfaces.
func (m *machine) apply(op Op) (outcome, *Violation) {
	out, viol := m.dispatch(op)
	if viol != nil {
		return out, viol
	}
	if out == outAccepted {
		// Deterministic walk model: every future access verifies from
		// memory regardless of which interleaving reached this state.
		m.ctl.FlushMetadata()
		if m.opts.Fault != "" && !m.faultDone {
			m.tryFault()
		}
	}
	return out, nil
}

func (m *machine) dispatch(op Op) (outcome, *Violation) {
	switch op.Kind {
	case OpCreate:
		return m.opCreate(op.Domain)
	case OpDestroy:
		return m.opDestroy(op.Domain)
	case OpMap:
		return m.opMap(op.Domain, op.VPN)
	case OpUnmap:
		return m.opUnmap(op.Domain, op.VPN)
	case OpWrite:
		return m.opAccess(op.Domain, op.VPN, true)
	case OpRead:
		return m.opAccess(op.Domain, op.VPN, false)
	default:
		return outSkipped, &Violation{Kind: ViolationInternal, Detail: fmt.Sprintf("unknown op kind %d", op.Kind)}
	}
}

func (m *machine) opCreate(d int) (outcome, *Violation) {
	if m.procs[d] != nil || len(m.procs) >= m.opts.Domains {
		return outSkipped, nil
	}
	if err := m.ctl.CreateDomain(d); err != nil {
		// Exists/limit races cannot happen under the guards above; any
		// error here is scheme-state corruption.
		return outAccepted, m.violationFor(err)
	}
	p := osmodel.NewProcess(d, d, m.frames, pagetable.IvLeagueLevels)
	p.OnPageMap = func(dom int, vpn layout.VPN, pfn layout.PFN) {
		if _, err := m.ctl.OnPageMap(0, dom, vpn, pfn); err != nil && m.pendingErr == nil {
			m.pendingErr = err
		}
	}
	p.OnPageUnmap = func(dom int, vpn layout.VPN, pfn layout.PFN) {
		if _, err := m.ctl.OnPageUnmap(0, dom, vpn, pfn); err != nil && m.pendingErr == nil {
			m.pendingErr = err
		}
	}
	m.procs[d] = p
	return outAccepted, nil
}

// opDestroy models orderly teardown: the OS unmaps every page (the
// hardware contract — TreeLings are recycled only after their pages are
// released), then the domain's TreeLings are reset and returned.
func (m *machine) opDestroy(d int) (outcome, *Violation) {
	p := m.procs[d]
	if p == nil {
		return outSkipped, nil
	}
	for _, vpn := range p.Table.VPNs() {
		if _, err := p.Unmap(vpn); err != nil {
			return outAccepted, m.violationFor(err)
		}
		if m.pendingErr != nil {
			return outAccepted, m.takePending()
		}
	}
	if err := m.ctl.DestroyDomain(d); err != nil {
		return outAccepted, m.violationFor(err)
	}
	delete(m.procs, d)
	return outAccepted, nil
}

func (m *machine) opMap(d int, v uint64) (outcome, *Violation) {
	vpn := layout.VPN(v)
	p := m.procs[d]
	if p == nil {
		return outSkipped, nil
	}
	if _, mapped := p.Table.Lookup(vpn); mapped {
		return outSkipped, nil
	}
	pfn, _, err := p.Touch(vpn)
	if errors.Is(err, osmodel.ErrOutOfMemory) {
		return outRejected, nil
	}
	if err != nil {
		return outAccepted, m.violationFor(err)
	}
	if m.pendingErr != nil {
		perr := m.pendingErr
		m.pendingErr = nil
		if errors.Is(perr, core.ErrStarvation) {
			// The scheme rejected the page after the OS mapped it; roll
			// the OS state back so the rejection is a clean self-loop.
			p.Table.Unmap(vpn)
			if ferr := m.frames.Free(pfn); ferr != nil {
				return outAccepted, m.violationFor(ferr)
			}
			return outRejected, nil
		}
		return outAccepted, m.violationFor(perr)
	}
	return outAccepted, nil
}

func (m *machine) opUnmap(d int, v uint64) (outcome, *Violation) {
	vpn := layout.VPN(v)
	p := m.procs[d]
	if p == nil {
		return outSkipped, nil
	}
	if _, mapped := p.Table.Lookup(vpn); !mapped {
		return outSkipped, nil
	}
	if _, err := p.Unmap(vpn); err != nil {
		return outAccepted, m.violationFor(err)
	}
	if m.pendingErr != nil {
		return outAccepted, m.takePending()
	}
	return outAccepted, nil
}

func (m *machine) opAccess(d int, v uint64, write bool) (outcome, *Violation) {
	vpn := layout.VPN(v)
	p := m.procs[d]
	if p == nil {
		return outSkipped, nil
	}
	pfn, mapped := p.Table.Lookup(vpn)
	if !mapped {
		return outSkipped, nil
	}
	if _, ok := m.ctl.SlotOf(pfn); !ok {
		return outSkipped, nil
	}
	req := secmem.AccessRequest{Domain: d, VPN: vpn, PFN: pfn, Block: 0}
	if write {
		var payload [config.BlockBytes]byte
		for i := range payload {
			payload[i] = byte(d)<<4 ^ byte(v) ^ byte(i)
		}
		for i := 0; i < m.opts.Burst; i++ {
			if _, err := m.ctl.WriteBlock(req, payload[:]); err != nil {
				return outAccepted, m.violationFor(err)
			}
		}
		return outAccepted, nil
	}
	var dst [config.BlockBytes]byte
	if _, err := m.ctl.ReadBlock(req, dst[:]); err != nil {
		return outAccepted, m.violationFor(err)
	}
	return outAccepted, nil
}

func (m *machine) takePending() *Violation {
	err := m.pendingErr
	m.pendingErr = nil
	return m.violationFor(err)
}

// violationFor classifies an operation error: integrity-tree violations
// are the tamper-detection signal, everything else is an internal
// inconsistency the checker must surface.
func (m *machine) violationFor(err error) *Violation {
	var ie *tree.IntegrityError
	if errors.As(err, &ie) {
		return &Violation{Kind: ViolationIntegrity, Detail: err.Error(), Err: err}
	}
	return &Violation{Kind: ViolationInternal, Detail: err.Error(), Err: err}
}

// enabledOps enumerates the applicable operations in canonical order:
// per domain (ascending), create/destroy, then per-VPN map or
// unmap/write/read. Map ops may still be rejected (OOM, starvation).
func (m *machine) enabledOps() []Op {
	var ops []Op
	for d := 1; d <= m.opts.Domains; d++ {
		p := m.procs[d]
		if p == nil {
			if len(m.procs) < m.opts.Domains {
				ops = append(ops, Op{Kind: OpCreate, Domain: d})
			}
			continue
		}
		ops = append(ops, Op{Kind: OpDestroy, Domain: d})
		for v := uint64(0); v < m.opts.VPNs; v++ {
			if _, mapped := p.Table.Lookup(layout.VPN(v)); !mapped {
				ops = append(ops, Op{Kind: OpMap, Domain: d, VPN: v})
			} else {
				ops = append(ops,
					Op{Kind: OpUnmap, Domain: d, VPN: v},
					Op{Kind: OpWrite, Domain: d, VPN: v},
					Op{Kind: OpRead, Domain: d, VPN: v})
			}
		}
	}
	return ops
}

// tryFault applies the armed fault once, as soon as a target exists. The
// trigger is a predicate on machine state — never an op index — so the
// injection point is identical across replays of any trace prefix, which
// keeps minimization deterministic.
func (m *machine) tryFault() {
	ivc := m.ctl.IvLeague()
	switch m.opts.Fault {
	case FaultNFLSet:
		for _, d := range ivc.DomainIDs() {
			if _, _, _, ok := ivc.TamperNFLAvail(d, true, 0); ok {
				m.faultDone = true
				return
			}
		}
	case FaultLMM:
		lay := m.ctl.Layout()
		for _, ref := range m.ctl.MappedPages() {
			for _, other := range ivc.DomainIDs() {
				if other == ref.Domain {
					continue
				}
				tls := ivc.TreeLingsOf(other)
				if len(tls) == 0 {
					continue
				}
				forged := core.MakeSlot(tls[0], lay.LevelOffset(1), 0)
				if _, err := m.ctl.TamperLMM(ref.PFN, forged); err == nil {
					m.faultDone = true
					return
				}
			}
		}
	}
}

// checkInvariants asserts the two paper-level invariants on the current
// state — metadata isolation (audit + ownership cross-check) and crash-
// recovery byte equality — plus the NFL offer uniqueness the controller's
// slot lookup relies on. Returns the first violated invariant or nil.
func (m *machine) checkInvariants() *Violation {
	if v := m.checkIsolation(); v != nil {
		return v
	}
	if err := m.ctl.IvLeague().CheckNFLUnique(); err != nil {
		return &Violation{Kind: ViolationNFL, Detail: err.Error(), Err: err}
	}
	// Persist→Recover byte equality at this state, which exploration
	// therefore checks at every reachable crash point within the bounds.
	if _, err := m.ctl.CheckRecovery(); err != nil {
		return &Violation{Kind: ViolationRecovery, Detail: err.Error(), Err: err}
	}
	return nil
}

// checkIsolation asserts (a) no metadata node was touched by two domains
// within one recycle epoch, and (b) every current-epoch touch of a
// TreeLing node comes from the TreeLing's current owner — a touch of an
// unassigned or foreign TreeLing is a leak even before a second domain
// shows up on the same node.
func (m *machine) checkIsolation() *Violation {
	if rep := m.audit.Report(); !rep.Isolated() {
		return &Violation{
			Kind:   ViolationIsolation,
			Detail: fmt.Sprintf("%d shared nodes, %d cross-domain touches; shared keys %v", rep.SharedNodes, rep.CrossDomainTouches, m.audit.SharedKeys()),
		}
	}
	ivc := m.ctl.IvLeague()
	owner := make(map[int]int)
	for _, id := range ivc.DomainIDs() {
		for _, tl := range ivc.TreeLingsOf(id) {
			owner[tl] = id
		}
	}
	for _, rec := range m.audit.Export() {
		tl := rec.Key.TreeLing
		if tl == telemetry.GlobalTreeLing || rec.Epoch != m.audit.Epoch(tl) {
			continue
		}
		own, assigned := owner[tl]
		if !assigned {
			return &Violation{
				Kind:   ViolationIsolation,
				Detail: fmt.Sprintf("domain %d touched node %+v of unassigned TreeLing %d in its current epoch", rec.Domain, rec.Key, tl),
			}
		}
		if own != rec.Domain {
			return &Violation{
				Kind:   ViolationIsolation,
				Detail: fmt.Sprintf("domain %d touched node %+v of TreeLing %d owned by domain %d", rec.Domain, rec.Key, tl, own),
			}
		}
	}
	return nil
}

// fingerprint canonically hashes everything that determines the machine's
// future behaviour: the persisted state digest, the domain controller's
// volatile digest (FIFO pop order, NFL head registers, NFLB contents, hot
// tracker), the frame allocator, every process's page table, and whether
// the armed fault is still pending. Two machines with equal fingerprints
// are behaviourally equivalent for every subsequent op sequence, so
// exploring one representative of each fingerprint class is sound.
func (m *machine) fingerprint() string {
	var b bytes.Buffer
	b.Write(m.ctl.StateDigest())
	if ivc := m.ctl.IvLeague(); ivc != nil {
		ivc.WriteVolatileDigest(&b)
	}
	m.frames.WriteState(&b)
	for _, d := range stats.SortedKeys(m.procs) {
		p := m.procs[d]
		fmt.Fprintf(&b, "proc %d:", d)
		for _, vpn := range p.Table.VPNs() {
			pfn, _ := p.Table.Lookup(vpn)
			fmt.Fprintf(&b, " %d=%d", vpn, pfn)
		}
		fmt.Fprintln(&b)
	}
	fmt.Fprintf(&b, "faultdone=%t\n", m.faultDone)
	sum := sha256.Sum256(b.Bytes())
	return hex.EncodeToString(sum[:])
}
