package main

import (
	"errors"
	"fmt"

	"ivleague/internal/cache"
	"ivleague/internal/config"
	"ivleague/internal/layout"
	"ivleague/internal/osmodel"
	"ivleague/internal/pagetable"
	"ivleague/internal/secmem"
	"ivleague/internal/telemetry"
	"ivleague/internal/workload"
)

// shadow is a copy of sim.Machine's construction and step loop
// (internal/sim/sim.go) built only from the layers' public APIs, so the
// traced pass can wrap every layer call in a span. It is program logic
// copied into the benchmark: the traced pass checks it against sim.Machine
// exactly on every cell (trace.fidelity_errors), and it is deleted once the
// simulator records these spans itself. Static partitioning is not copied;
// no workload runs it.
type shadow struct {
	cfg     config.Config
	mem     *secmem.Controller
	l3      *cache.Cache
	threads []*shadowThread
	frames  *osmodel.FrameAllocator
	owners  ownerTable
	reg     *telemetry.Registry
	tr      *tracer

	pendingLat int
	pendingErr error
	failed     bool
	opCount    uint64

	// sim.Machine's cycle breakdown. Nothing reads it here; it is kept so
	// the shadow's step glue does the same work as the simulator's.
	cycBase, cycTLB, cycFault, cycMiss, cycWb float64
}

type shadowThread struct {
	gen      *workload.Generator
	proc     *osmodel.Process
	core     int
	bench    string
	tlb      *pagetable.TLB
	l1, l2   *cache.Cache
	cycles   float64
	instret  uint64
	cycles0  float64
	instret0 uint64
}

// shadowResult is what the fidelity check compares with sim.Machine.
type shadowResult struct {
	failed bool
	ipc    []float64
	snap   telemetry.Snapshot
}

// wbChargeFraction mirrors sim's share of the secure write-back latency
// charged to the evicting core.
const wbChargeFraction = 0.05

// newShadow mirrors sim.NewMachine with partitions = 0. perturb gives the
// first process's generators a wrong seed; tests use it to prove the
// fidelity check catches a shadow that drifts from the simulator.
func newShadow(cfg *config.Config, scheme config.Scheme, mix workload.Mix, tr *tracer, perturb bool) (*shadow, error) {
	if scheme == config.SchemeStaticPartition {
		return nil, errors.New("shadow: static partitioning is not modelled")
	}
	partitions := 1
	for partitions < len(mix.Procs) {
		partitions <<= 1
	}
	mem, err := secmem.New(cfg, scheme, partitions)
	if err != nil {
		return nil, err
	}
	s := &shadow{cfg: *cfg, mem: mem, tr: tr}
	if s.l3, err = cache.New(cfg.L3, cfg.Sim.Seed^0x13c3ed, 0); err != nil {
		return nil, err
	}
	s.frames = osmodel.NewFrameAllocator(0, layout.PFN(mem.Layout().Pages))
	coreIdx := 0
	for pi, prof := range mix.Procs {
		domain := pi + 1
		if err := mem.CreateDomain(domain); err != nil {
			return nil, err
		}
		levels := pagetable.ClassicLevels
		if scheme.IsIvLeague() {
			levels = pagetable.IvLeagueLevels
		}
		proc := osmodel.NewProcess(pi+1, domain, s.frames, levels)
		proc.OnPageMap = s.onPageMap
		proc.OnPageUnmap = s.onPageUnmap
		for ti := 0; ti < prof.Threads; ti++ {
			if coreIdx >= cfg.Core.Count {
				return nil, fmt.Errorf("shadow: mix %s needs more than %d cores", mix.Name, cfg.Core.Count)
			}
			genSeed := cfg.Sim.Seed ^ uint64(domain)<<8
			if perturb && pi == 0 {
				genSeed ^= 1
			}
			gen := workload.NewGenerator(prof, genSeed, ti,
				workload.GenOpts{Scale: cfg.Sim.FootprintScale, InitFrac: cfg.Sim.InitFrac})
			t := &shadowThread{
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
			t.tlb.OnEvict = func(vpn layout.VPN) {
				tr.begin(spanTLBEvicted)
				mem.TLBEvicted(dom, vpn)
				tr.end()
			}
			gen.OnFreeRange = func(vpnStart uint64, n int) {
				for v := vpnStart; v < vpnStart+uint64(n); v++ {
					tr.begin(spanUnmap)
					ok, err := t.proc.Unmap(layout.VPN(v))
					tr.end()
					if err != nil && !errors.Is(err, osmodel.ErrNotMapped) && s.pendingErr == nil {
						s.pendingErr = err
					}
					if ok {
						tr.begin(spanTLB)
						t.tlb.Invalidate(layout.VPN(v))
						tr.end()
					}
				}
			}
			s.threads = append(s.threads, t)
			coreIdx++
		}
	}
	s.registerMetrics()
	return s, nil
}

// registerMetrics mirrors sim.Machine.registerMetrics name for name.
func (s *shadow) registerMetrics() {
	s.reg = telemetry.NewRegistry()
	s.mem.RegisterMetrics(s.reg, "secmem")
	s.l3.RegisterMetrics(s.reg, "sim.l3")
	for i, t := range s.threads {
		t.l1.RegisterMetrics(s.reg, fmt.Sprintf("sim.core%d.l1", i))
		t.l2.RegisterMetrics(s.reg, fmt.Sprintf("sim.core%d.l2", i))
		t := t
		s.reg.RegisterGauge(fmt.Sprintf("sim.core%d.cycles", i), func() float64 {
			return t.cycles - t.cycles0
		})
		s.reg.RegisterGauge(fmt.Sprintf("sim.core%d.instret", i), func() float64 {
			return float64(t.instret - t.instret0)
		})
		s.reg.RegisterReset(func() {
			t.l1.ResetStats()
			t.l2.ResetStats()
			t.cycles0 = t.cycles
			t.instret0 = t.instret
		})
	}
	if ivc := s.mem.IvLeague(); ivc != nil {
		s.reg.RegisterSampler(func(smp *telemetry.Sample) {
			for _, t := range s.threads {
				b := ivc.NFLBOf(t.proc.DomainID)
				if b == nil {
					continue
				}
				smp.Counter("sim.nflb.hits", b.Hits.Value())
				smp.Counter("sim.nflb.misses", b.Misses.Value())
			}
		})
	}
	s.reg.RegisterGauge("sim.ops", func() float64 { return float64(s.opCount) })
}

func (s *shadow) onPageMap(domain int, vpn layout.VPN, pfn layout.PFN) {
	s.owners.set(pfn, domain, vpn)
	s.tr.begin(spanPageMap)
	lat, err := s.mem.OnPageMap(s.now(), domain, vpn, pfn)
	s.tr.end()
	s.pendingLat += lat
	if err != nil {
		s.pendingErr = err
	}
}

func (s *shadow) onPageUnmap(domain int, vpn layout.VPN, pfn layout.PFN) {
	s.tr.begin(spanPageUnmap)
	lat, err := s.mem.OnPageUnmap(s.now(), domain, vpn, pfn)
	s.tr.end()
	s.pendingLat += lat
	if err != nil && s.pendingErr == nil {
		s.pendingErr = err
	}
	s.owners.del(pfn)
}

func (s *shadow) now() uint64 {
	var max float64
	for _, t := range s.threads {
		if t.cycles > max {
			max = t.cycles
		}
	}
	return uint64(max)
}

// step mirrors sim.Machine.step with every layer call in a span.
func (s *shadow) step(t *shadowThread) error {
	tr := s.tr
	tr.begin(spanNext)
	ev := t.gen.Next()
	tr.end()
	if s.pendingErr != nil {
		err := s.pendingErr
		s.pendingErr = nil
		return fmt.Errorf("sim: %s: %w", t.bench, err)
	}
	t.instret++
	cc := s.cfg.Core
	if !ev.Mem {
		t.cycles += cc.BaseCPI
		s.cycBase += cc.BaseCPI
		return nil
	}
	vpn := layout.VPN(ev.VPN)
	tr.begin(spanTLB)
	pfn, hit := t.tlb.Lookup(vpn)
	tr.end()
	if !hit {
		tr.begin(spanTouch)
		p, fault, err := t.proc.Touch(vpn)
		tr.end()
		if err != nil {
			return fmt.Errorf("sim: %s: %w", t.bench, err)
		}
		if s.pendingErr != nil {
			err := s.pendingErr
			s.pendingErr = nil
			return fmt.Errorf("sim: %s: %w", t.bench, err)
		}
		if fault {
			tr.faults++
		}
		tr.begin(spanTLB)
		t.tlb.Insert(vpn, p)
		tr.end()
		tr.begin(spanPageWalk)
		s.mem.OnPageWalk(t.proc.DomainID, vpn)
		tr.end()
		t.cycles += float64(cc.TLBPenality + t.proc.Table.Depth()*cc.PTWalkCost)
		s.cycTLB += float64(cc.TLBPenality + t.proc.Table.Depth()*cc.PTWalkCost)
		if fault {
			t.cycles += float64(s.pendingLat)
			s.cycFault += float64(s.pendingLat)
		}
		s.pendingLat = 0
		pfn = p
	}
	addr := uint64(pfn)<<config.PageShift | uint64(ev.Block)<<config.BlockShift
	dom := t.proc.DomainID

	tr.begin(spanCache)
	r1 := t.l1.Access(addr, ev.Write)
	tr.end()
	if r1.EvictedDirty {
		s.writeback(t, t.l2, r1.WritebackAddr)
	}
	if r1.Hit {
		t.cycles += float64(cc.L1Latency)
		s.cycBase += float64(cc.L1Latency)
		return nil
	}
	tr.begin(spanCache)
	r2 := t.l2.Access(addr, false)
	tr.end()
	if r2.EvictedDirty {
		s.writeback(t, s.l3, r2.WritebackAddr)
	}
	var missLat float64
	if r2.Hit {
		missLat = float64(cc.L2Latency)
	} else {
		tr.begin(spanCache)
		r3 := s.l3.Access(addr, false)
		tr.end()
		if r3.EvictedDirty {
			s.memWriteback(t, r3.WritebackAddr)
		}
		if r3.Hit {
			missLat = float64(cc.L3Latency)
		} else {
			tr.begin(spanRead)
			res, err := s.mem.Do(secmem.AccessRequest{
				Now: uint64(t.cycles), Domain: dom, VPN: vpn, PFN: pfn,
				Block: ev.Block, Write: false,
			})
			tr.end()
			if err != nil {
				return fmt.Errorf("sim: %s: %w", t.bench, err)
			}
			missLat = float64(cc.L3Latency) + float64(res.Latency)
		}
	}
	t.cycles += float64(cc.L1Latency) + (1-cc.MLP)*missLat
	s.cycBase += float64(cc.L1Latency)
	s.cycMiss += (1 - cc.MLP) * missLat
	return nil
}

func (s *shadow) writeback(t *shadowThread, lower *cache.Cache, addr uint64) {
	s.tr.begin(spanCache)
	r := lower.Access(addr, true)
	s.tr.end()
	if !r.EvictedDirty {
		return
	}
	if lower == s.l3 {
		s.memWriteback(t, r.WritebackAddr)
		return
	}
	s.tr.begin(spanCache)
	r3 := s.l3.Access(r.WritebackAddr, true)
	s.tr.end()
	if r3.EvictedDirty {
		s.memWriteback(t, r3.WritebackAddr)
	}
}

func (s *shadow) memWriteback(t *shadowThread, addr uint64) {
	pfn := layout.PFN(addr >> config.PageShift)
	o := s.owners.get(pfn)
	if o == nil || !o.valid {
		return
	}
	block := int(addr>>config.BlockShift) & (config.BlocksPerPage - 1)
	s.tr.begin(spanWrite)
	res, err := s.mem.Do(secmem.AccessRequest{
		Now: uint64(t.cycles), Domain: int(o.domain), VPN: o.vpn, PFN: pfn,
		Block: block, Write: true,
	})
	s.tr.end()
	if err != nil {
		if s.pendingErr == nil {
			s.pendingErr = err
		}
		return
	}
	t.cycles += wbChargeFraction * float64(res.Latency)
	s.cycWb += wbChargeFraction * float64(res.Latency)
}

// run mirrors sim.Machine.Run. Each sampled step is recorded as a root
// span with its layer calls nested under it.
func (s *shadow) run() shadowResult {
	warm := s.cfg.Sim.WarmupInstr
	for _, t := range s.threads {
		if need := t.gen.InitInstr() + s.cfg.Sim.WarmupInstr/2; need > warm {
			warm = need
		}
	}
	total := warm + s.cfg.Sim.MeasureInstr
	for i := uint64(0); i < total && !s.failed; i++ {
		if i == warm {
			s.reg.Reset()
			s.reg.SetPhase(telemetry.PhaseMeasure)
		}
		for _, t := range s.threads {
			s.tr.step(s.opCount)
			s.tr.begin(spanStep)
			err := s.step(t)
			s.tr.end()
			if err != nil {
				// Only the failure state is compared with sim.Machine.
				s.failed = true
				break
			}
			s.opCount++
		}
	}
	s.tr.traced = false
	if s.pendingErr != nil {
		s.failed = true
		s.pendingErr = nil
	}
	out := shadowResult{failed: s.failed}
	for _, t := range s.threads {
		dc := t.cycles - t.cycles0
		di := t.instret - t.instret0
		if dc > 0 {
			out.ipc = append(out.ipc, float64(di)/dc)
		} else {
			out.ipc = append(out.ipc, 0)
		}
		s.tr.tlbHits += t.tlb.Hits.Value()
		s.tr.tlbMisses += t.tlb.Misses.Value()
	}
	s.tr.instr += s.opCount
	out.snap = s.reg.Snapshot()
	return out
}

// ownerTable mirrors sim's chunked PFN-indexed arena of frame owners.
const (
	ownerChunkShift = 9
	ownerChunkSize  = 1 << ownerChunkShift
	ownerChunkMask  = ownerChunkSize - 1
)

type owner struct {
	vpn    layout.VPN
	domain int32
	valid  bool
}

type ownerTable struct {
	chunks [][]owner
}

func (t *ownerTable) get(pfn layout.PFN) *owner {
	ci := int(pfn >> ownerChunkShift)
	if ci >= len(t.chunks) || t.chunks[ci] == nil {
		return nil
	}
	return &t.chunks[ci][int(pfn&ownerChunkMask)]
}

func (t *ownerTable) set(pfn layout.PFN, domain int, vpn layout.VPN) {
	ci := int(pfn >> ownerChunkShift)
	for len(t.chunks) <= ci {
		t.chunks = append(t.chunks, nil)
	}
	if t.chunks[ci] == nil {
		t.chunks[ci] = make([]owner, ownerChunkSize)
	}
	t.chunks[ci][int(pfn&ownerChunkMask)] = owner{vpn: vpn, domain: int32(domain), valid: true}
}

func (t *ownerTable) del(pfn layout.PFN) {
	if o := t.get(pfn); o != nil {
		*o = owner{}
	}
}
