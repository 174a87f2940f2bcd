// Package workload provides synthetic access-pattern generators standing
// in for the paper's SPEC2017, PARSEC3 and GAP benchmarks, plus the 16
// multi-programmed mixes of Table II. Each benchmark is parameterised by
// its published memory behaviour: footprint, memory-operation density,
// write ratio, hot-page skew, streaming fraction and allocation churn —
// exactly the knobs the evaluated schemes differentiate on (see DESIGN.md
// for the substitution argument).
package workload

import (
	"fmt"

	"ivleague/internal/config"
	"ivleague/internal/rng"
)

// Class is the paper's footprint classification of a mix.
type Class int

// Small (<5 GB), Medium (5–10 GB), Large (>10 GB) per Section IX.
const (
	Small Class = iota
	Medium
	Large
)

// String returns S/M/L as used in mix names.
func (c Class) String() string {
	switch c {
	case Small:
		return "S"
	case Medium:
		return "M"
	default:
		return "L"
	}
}

// Profile describes one benchmark's synthetic memory behaviour.
type Profile struct {
	Name        string
	FootprintMB int     // virtual memory footprint
	MemOpFrac   float64 // fraction of instructions touching memory
	WriteFrac   float64 // fraction of memory ops that are stores
	ReuseProb   float64 // temporal locality: re-touch a recent line
	HotFrac     float64 // fraction of pages forming the hot set
	HotProb     float64 // probability a fresh access targets the hot set
	Zipf        float64 // skew within the cold region
	SeqProb     float64 // probability of continuing a sequential stream
	ScanPages   int     // looping scan-window size in pages (0 = whole footprint)
	BurstLen    int     // accesses per page visit (object/record walks; 0 = 1)
	ChurnPeriod int     // memory ops between free/realloc bursts (0 = none)
	ChurnPages  int     // pages freed per burst
	Threads     int     // worker threads (1 for SPEC, 2 for PARSEC/GAP)
}

// reuseRing is the small window of recently touched lines that models
// register/stack/inner-loop temporal locality; reused lines mostly hit in
// the L1/L2, which is what gives realistic cache hit rates.
const reuseRing = 96

// streamDwell is how many consecutive accesses land in one 64-byte line
// while streaming (word-granular walks over arrays).
const streamDwell = 4

// Pages returns the footprint in 4 KiB pages.
func (p Profile) Pages() uint64 {
	return uint64(p.FootprintMB) << 20 >> config.PageShift
}

// Event is one generated instruction.
type Event struct {
	Mem   bool
	Write bool
	VPN   uint64
	Block int // block index within the page
}

// Generator produces a deterministic instruction stream for one thread of
// a benchmark.
type Generator struct {
	p        Profile
	r        *rng.Source
	hotZipf  *rng.Zipf
	coldZipf *rng.Zipf
	hotPages uint64
	pages    uint64

	// perm scatters zipf rank over the virtual address space so that page
	// hotness is independent of virtual address (and hence of first-touch
	// allocation order), as in real programs. Threads of one process
	// have identical permutations (same process seed); NewGenerators
	// shares one between them. Never written after construction.
	perm []uint32

	// Initialization sweep state: each thread touches its share of the
	// first InitFrac×pages in VA order before steady state.
	initNext uint64
	initEnd  uint64

	seqVPN   uint64 // current streaming position
	scanBase uint64 // start of this thread's looping scan window
	scanLen  uint64 // scan window length in pages
	seqBlock int
	seqDwell int
	opCount  int

	burstVPN  uint64 // current bursty page visit
	burstLeft int

	ring    [reuseRing]Event
	ringLen int
	ringPos int

	// OnFreeRange, when set, is invoked for churn bursts; the simulator
	// unmaps the pages so the next touch re-faults (exercising the NFL
	// deallocation and reallocation paths).
	OnFreeRange func(vpnStart uint64, pages int)
}

// GenOpts tunes a generator independently of the benchmark profile.
type GenOpts struct {
	// Scale multiplies the footprint (0 < Scale ≤ 1; 0 means 1.0).
	Scale float64
	// InitFrac is the fraction of the footprint pre-touched by the
	// initialization sweep (negative means the 0.5 default).
	InitFrac float64
}

// NewGenerator builds the generator for one thread of a process. seed must
// be the process seed (threads of one process pass the same seed with
// their own thread index).
func NewGenerator(p Profile, seed uint64, thread int, opts GenOpts) *Generator {
	return newGenerator(p, seed, thread, opts, nil)
}

// NewGenerators builds the generators of every thread of a process, in
// thread order. Each is the generator NewGenerator builds for its thread,
// but the threads share one VA permutation, built once and only read.
func NewGenerators(p Profile, seed uint64, opts GenOpts) []*Generator {
	gens := make([]*Generator, p.Threads)
	var perm []uint32
	for ti := range gens {
		gens[ti] = newGenerator(p, seed, ti, opts, perm)
		perm = gens[ti].perm
	}
	return gens
}

// newGenerator builds one thread's generator. perm is the process's VA
// permutation when a sibling thread already built it, else nil.
func newGenerator(p Profile, seed uint64, thread int, opts GenOpts, perm []uint32) *Generator {
	scale := opts.Scale
	if scale <= 0 {
		scale = 1
	}
	initFrac := opts.InitFrac
	if initFrac < 0 {
		initFrac = 0.5
	}
	pages := uint64(float64(p.Pages()) * scale)
	if pages < 64 {
		pages = 64
	}
	hot := uint64(float64(pages) * p.HotFrac)
	if hot == 0 {
		hot = 1
	}
	g := &Generator{
		p:        p,
		r:        rng.New(seed ^ (uint64(thread)+1)*0x9e3779b97f4a7c15),
		hotPages: hot,
		pages:    pages,
		perm:     perm,
	}
	if g.perm == nil {
		// Process-level permutation: identical across threads.
		pr := rng.New(seed ^ 0x50e21f0e21)
		g.perm = make([]uint32, pages)
		for i := range g.perm {
			j := pr.Intn(i + 1)
			g.perm[i] = g.perm[j]
			g.perm[j] = uint32(i)
		}
	}
	g.hotZipf = rng.NewZipf(hot, 0.9)
	g.coldZipf = rng.NewZipf(pages, p.Zipf)
	// Threads split the streaming space and the init sweep. Streaming
	// loops over a bounded scan window — regions larger than the LLC that
	// are revisited periodically (page-hot, line-cold), the access class
	// IvLeague-Pro accelerates.
	chunk := pages / uint64(p.Threads)
	g.scanLen = uint64(p.ScanPages)
	if g.scanLen == 0 || g.scanLen > chunk {
		g.scanLen = chunk
	}
	if g.scanLen == 0 {
		g.scanLen = 1
	}
	g.scanBase = chunk * uint64(thread) % pages
	g.seqVPN = g.scanBase
	initPages := uint64(float64(pages) * initFrac)
	initChunk := initPages / uint64(p.Threads)
	g.initNext = initChunk * uint64(thread)
	g.initEnd = g.initNext + initChunk
	if thread == p.Threads-1 {
		g.initEnd = initPages
	}
	return g
}

// Pages returns the effective (scaled) footprint in pages.
func (g *Generator) Pages() uint64 { return g.pages }

// InitInstr estimates the instructions this thread spends in its
// initialization sweep; the simulator extends the warmup window past it.
func (g *Generator) InitInstr() uint64 {
	remaining := g.initEnd - g.initNext
	return uint64(float64(remaining)/g.p.MemOpFrac) + remaining
}

// rankVPN maps a zipf rank, hot or cold, to its scattered virtual page.
func (g *Generator) rankVPN(rank uint64) uint64 { return uint64(g.perm[rank]) }

// Next produces the next instruction event.
func (g *Generator) Next() Event {
	if !g.r.Bool(g.p.MemOpFrac) {
		return Event{}
	}
	g.opCount++
	// Initialization sweep: touch the data set in VA order (writes).
	if g.initNext < g.initEnd {
		ev := Event{Mem: true, Write: true, VPN: g.initNext, Block: 0}
		g.initNext++
		return ev
	}
	if g.p.ChurnPeriod > 0 && g.opCount%g.p.ChurnPeriod == 0 && g.OnFreeRange != nil {
		// Free a random aligned range; those pages re-fault on next use.
		n := g.p.ChurnPages
		start := g.r.Uint64n(g.pages)
		if start+uint64(n) > g.pages {
			start = g.pages - uint64(n)
		}
		g.OnFreeRange(start, n)
	}
	ev := Event{Mem: true, Write: g.r.Bool(g.p.WriteFrac)}
	// Temporal locality: most memory operations re-touch a recently used
	// line (stack/register spills, inner loops) and hit high in the cache
	// hierarchy.
	if g.ringLen > 0 && g.r.Bool(g.p.ReuseProb) {
		recent := g.ring[g.r.Intn(g.ringLen)]
		ev.VPN, ev.Block = recent.VPN, recent.Block
		return ev
	}
	// Continue a bursty page visit: several lines of one page touched in
	// quick succession (record/object walks) before moving on.
	if g.burstLeft > 0 {
		g.burstLeft--
		ev.VPN = g.burstVPN
		ev.Block = g.r.Intn(config.BlocksPerPage)
		g.pushRing(ev)
		return ev
	}
	switch {
	case g.r.Bool(g.p.SeqProb):
		// Streaming: dwell a few word accesses per line, then advance.
		ev.VPN = g.seqVPN
		ev.Block = g.seqBlock
		g.seqDwell++
		if g.seqDwell >= streamDwell {
			g.seqDwell = 0
			g.seqBlock++
			if g.seqBlock >= config.BlocksPerPage {
				g.seqBlock = 0
				g.seqVPN++
				if g.seqVPN >= g.scanBase+g.scanLen {
					g.seqVPN = g.scanBase // loop the scan window
				}
			}
		}
	case g.r.Bool(g.p.HotProb):
		ev.VPN = g.rankVPN(g.hotZipf.Next(g.r))
		ev.Block = g.r.Intn(config.BlocksPerPage)
		g.startBurst(ev.VPN)
	default:
		ev.VPN = g.rankVPN(g.coldZipf.Next(g.r))
		ev.Block = g.r.Intn(config.BlocksPerPage)
		g.startBurst(ev.VPN)
	}
	g.pushRing(ev)
	return ev
}

// startBurst begins a multi-access visit of a freshly drawn page.
func (g *Generator) startBurst(vpn uint64) {
	if g.p.BurstLen > 1 {
		g.burstVPN = vpn
		g.burstLeft = g.p.BurstLen - 1
	}
}

// pushRing records an event in the temporal-reuse window.
func (g *Generator) pushRing(ev Event) {
	g.ring[g.ringPos] = ev
	g.ringPos = (g.ringPos + 1) % reuseRing
	if g.ringLen < reuseRing {
		g.ringLen++
	}
}

// Mix is one multi-programmed workload of Table II.
type Mix struct {
	Name  string
	Class Class
	Procs []Profile // one entry per process
}

// FootprintMB returns the combined memory footprint of the mix.
func (m Mix) FootprintMB() int {
	total := 0
	for _, p := range m.Procs {
		total += p.FootprintMB
	}
	return total
}

// Benchmarks returns the profile of every benchmark by name.
func Benchmarks() map[string]Profile {
	out := make(map[string]Profile, len(profiles))
	for _, p := range profiles {
		out[p.Name] = p
	}
	return out
}

// ByName returns a benchmark profile, or an error for unknown names.
func ByName(name string) (Profile, error) {
	for _, p := range profiles {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("workload: unknown benchmark %q", name)
}

// profiles parameterises all 26 benchmarks. SPEC2017 entries are
// single-threaded; PARSEC3 and GAP entries use two worker threads, as in
// the paper's setup. Footprints and behaviour knobs follow published
// characterizations (SPEC: Singh & Awasthi; PARSEC: Bienia; GAP with the
// 5 GB twitter graph), scaled so mix classes land in the paper's <5 GB /
// 5–10 GB / >10 GB bands.
var profiles = []Profile{
	// SPEC2017 (Small mixes).
	{Name: "gcc", FootprintMB: 900, MemOpFrac: 0.36, WriteFrac: 0.32, ReuseProb: 0.88, HotFrac: 0.02, HotProb: 0.75, Zipf: 0.8, SeqProb: 0.15, ScanPages: 512, BurstLen: 4, ChurnPeriod: 40000, ChurnPages: 64, Threads: 1},
	{Name: "cactuBSSN", FootprintMB: 760, MemOpFrac: 0.42, WriteFrac: 0.35, ReuseProb: 0.8, HotFrac: 0.01, HotProb: 0.35, Zipf: 0.4, SeqProb: 0.55, ScanPages: 1024, BurstLen: 3, Threads: 1},
	{Name: "perlbench", FootprintMB: 260, MemOpFrac: 0.40, WriteFrac: 0.30, ReuseProb: 0.9, HotFrac: 0.03, HotProb: 0.85, Zipf: 0.9, SeqProb: 0.08, ScanPages: 256, BurstLen: 4, ChurnPeriod: 60000, ChurnPages: 32, Threads: 1},
	{Name: "deepsjeng", FootprintMB: 700, MemOpFrac: 0.32, WriteFrac: 0.25, ReuseProb: 0.87, HotFrac: 0.02, HotProb: 0.60, Zipf: 0.6, SeqProb: 0.05, ScanPages: 384, BurstLen: 4, Threads: 1},
	{Name: "mcf", FootprintMB: 1700, MemOpFrac: 0.45, WriteFrac: 0.25, ReuseProb: 0.74, HotFrac: 0.01, HotProb: 0.40, Zipf: 0.55, SeqProb: 0.05, ScanPages: 512, BurstLen: 6, Threads: 1},
	{Name: "omnetpp", FootprintMB: 250, MemOpFrac: 0.40, WriteFrac: 0.30, ReuseProb: 0.84, HotFrac: 0.02, HotProb: 0.55, Zipf: 0.6, SeqProb: 0.05, ScanPages: 256, BurstLen: 5, ChurnPeriod: 50000, ChurnPages: 16, Threads: 1},
	{Name: "lbm", FootprintMB: 420, MemOpFrac: 0.48, WriteFrac: 0.45, ReuseProb: 0.78, HotFrac: 0.01, HotProb: 0.25, Zipf: 0.3, SeqProb: 0.70, ScanPages: 1024, BurstLen: 2, Threads: 1},
	{Name: "xalancbmk", FootprintMB: 480, MemOpFrac: 0.38, WriteFrac: 0.28, ReuseProb: 0.86, HotFrac: 0.03, HotProb: 0.70, Zipf: 0.8, SeqProb: 0.10, ScanPages: 384, BurstLen: 4, ChurnPeriod: 45000, ChurnPages: 32, Threads: 1},
	{Name: "bwaves", FootprintMB: 720, MemOpFrac: 0.46, WriteFrac: 0.35, ReuseProb: 0.8, HotFrac: 0.01, HotProb: 0.30, Zipf: 0.35, SeqProb: 0.60, ScanPages: 1024, BurstLen: 2, Threads: 1},
	{Name: "x264", FootprintMB: 150, MemOpFrac: 0.35, WriteFrac: 0.30, ReuseProb: 0.9, HotFrac: 0.05, HotProb: 0.80, Zipf: 0.9, SeqProb: 0.25, ScanPages: 512, BurstLen: 4, Threads: 1},
	// PARSEC3 (Medium mixes, native inputs, 2 worker threads).
	{Name: "dedup", FootprintMB: 2400, MemOpFrac: 0.38, WriteFrac: 0.35, ReuseProb: 0.84, HotFrac: 0.02, HotProb: 0.55, Zipf: 0.6, SeqProb: 0.35, ScanPages: 768, BurstLen: 5, ChurnPeriod: 25000, ChurnPages: 128, Threads: 2},
	{Name: "ferret", FootprintMB: 2000, MemOpFrac: 0.36, WriteFrac: 0.25, ReuseProb: 0.85, HotFrac: 0.02, HotProb: 0.60, Zipf: 0.65, SeqProb: 0.20, ScanPages: 640, BurstLen: 5, Threads: 2},
	{Name: "blackscholes", FootprintMB: 1000, MemOpFrac: 0.30, WriteFrac: 0.20, ReuseProb: 0.88, HotFrac: 0.03, HotProb: 0.65, Zipf: 0.7, SeqProb: 0.45, ScanPages: 1024, BurstLen: 4, Threads: 2},
	{Name: "bodytrack", FootprintMB: 760, MemOpFrac: 0.33, WriteFrac: 0.25, ReuseProb: 0.88, HotFrac: 0.04, HotProb: 0.75, Zipf: 0.8, SeqProb: 0.20, ScanPages: 512, BurstLen: 4, Threads: 2},
	{Name: "canneal", FootprintMB: 2800, MemOpFrac: 0.42, WriteFrac: 0.22, ReuseProb: 0.72, HotFrac: 0.01, HotProb: 0.30, Zipf: 0.45, SeqProb: 0.05, ScanPages: 640, BurstLen: 8, Threads: 2},
	{Name: "swaptions", FootprintMB: 500, MemOpFrac: 0.30, WriteFrac: 0.25, ReuseProb: 0.91, HotFrac: 0.06, HotProb: 0.85, Zipf: 0.95, SeqProb: 0.10, ScanPages: 256, BurstLen: 3, Threads: 2},
	{Name: "vips", FootprintMB: 1200, MemOpFrac: 0.35, WriteFrac: 0.35, ReuseProb: 0.85, HotFrac: 0.02, HotProb: 0.55, Zipf: 0.6, SeqProb: 0.45, ScanPages: 768, BurstLen: 4, Threads: 2},
	{Name: "freqmine", FootprintMB: 1900, MemOpFrac: 0.37, WriteFrac: 0.25, ReuseProb: 0.84, HotFrac: 0.02, HotProb: 0.60, Zipf: 0.65, SeqProb: 0.15, ScanPages: 640, BurstLen: 5, Threads: 2},
	{Name: "fluidanimate", FootprintMB: 1500, MemOpFrac: 0.38, WriteFrac: 0.35, ReuseProb: 0.84, HotFrac: 0.02, HotProb: 0.50, Zipf: 0.55, SeqProb: 0.40, ScanPages: 1024, BurstLen: 4, Threads: 2},
	{Name: "facesim", FootprintMB: 1500, MemOpFrac: 0.36, WriteFrac: 0.30, ReuseProb: 0.85, HotFrac: 0.02, HotProb: 0.55, Zipf: 0.6, SeqProb: 0.35, ScanPages: 1024, BurstLen: 4, Threads: 2},
	// GAP on twitter-large (Large mixes, 2 worker threads).
	{Name: "bfs", FootprintMB: 2800, MemOpFrac: 0.48, WriteFrac: 0.18, ReuseProb: 0.62, HotFrac: 0.005, HotProb: 0.25, Zipf: 0.5, SeqProb: 0.35, ScanPages: 1536, BurstLen: 8, Threads: 2},
	{Name: "pr", FootprintMB: 3000, MemOpFrac: 0.50, WriteFrac: 0.25, ReuseProb: 0.66, HotFrac: 0.005, HotProb: 0.22, Zipf: 0.45, SeqProb: 0.45, ScanPages: 1792, BurstLen: 8, Threads: 2},
	{Name: "bc", FootprintMB: 3300, MemOpFrac: 0.49, WriteFrac: 0.22, ReuseProb: 0.6, HotFrac: 0.005, HotProb: 0.20, Zipf: 0.45, SeqProb: 0.30, ScanPages: 1536, BurstLen: 8, Threads: 2},
	{Name: "sssp", FootprintMB: 3100, MemOpFrac: 0.48, WriteFrac: 0.20, ReuseProb: 0.62, HotFrac: 0.005, HotProb: 0.22, Zipf: 0.5, SeqProb: 0.30, ScanPages: 1536, BurstLen: 8, Threads: 2},
	{Name: "cc", FootprintMB: 2800, MemOpFrac: 0.47, WriteFrac: 0.20, ReuseProb: 0.64, HotFrac: 0.005, HotProb: 0.25, Zipf: 0.5, SeqProb: 0.40, ScanPages: 1536, BurstLen: 8, Threads: 2},
	{Name: "tc", FootprintMB: 3600, MemOpFrac: 0.50, WriteFrac: 0.15, ReuseProb: 0.58, HotFrac: 0.004, HotProb: 0.18, Zipf: 0.4, SeqProb: 0.35, ScanPages: 1792, BurstLen: 10, Threads: 2},
}

// mix assembles a Table II entry.
func mix(name string, class Class, names ...string) Mix {
	m := Mix{Name: name, Class: class}
	for _, n := range names {
		p, err := ByName(n)
		if err != nil {
			//ivlint:allow panicpath — static Table II entries resolve at package init; a typo here is a programming error
			panic(err)
		}
		m.Procs = append(m.Procs, p)
	}
	return m
}

// Mixes returns the 16 multi-programmed workloads of Table II.
func Mixes() []Mix {
	return []Mix{
		mix("S-1", Small, "gcc", "cactuBSSN", "perlbench", "deepsjeng"),
		mix("S-2", Small, "mcf", "omnetpp", "lbm", "xalancbmk"),
		mix("S-3", Small, "bwaves", "lbm", "x264", "cactuBSSN"),
		mix("S-4", Small, "perlbench", "xalancbmk", "gcc", "omnetpp"),
		mix("S-5", Small, "mcf", "bwaves", "deepsjeng", "x264"),
		mix("S-6", Small, "omnetpp", "gcc", "mcf", "perlbench"),
		mix("M-1", Medium, "dedup", "ferret", "blackscholes", "bodytrack"),
		mix("M-2", Medium, "canneal", "swaptions", "vips", "ferret"),
		mix("M-3", Medium, "freqmine", "fluidanimate", "canneal", "facesim"),
		mix("M-4", Medium, "vips", "swaptions", "dedup", "ferret"),
		mix("M-5", Medium, "blackscholes", "bodytrack", "freqmine", "fluidanimate"),
		mix("M-6", Medium, "dedup", "facesim", "bodytrack", "swaptions"),
		mix("L-1", Large, "bfs", "pr", "bc", "sssp"),
		mix("L-2", Large, "bfs", "pr", "cc", "tc"),
		mix("L-3", Large, "bc", "sssp", "cc", "tc"),
		mix("L-4", Large, "sssp", "pr", "bc", "tc"),
	}
}

// MixByName returns one of the Table II mixes.
func MixByName(name string) (Mix, error) {
	for _, m := range Mixes() {
		if m.Name == name {
			return m, nil
		}
	}
	return Mix{}, fmt.Errorf("workload: unknown mix %q", name)
}
