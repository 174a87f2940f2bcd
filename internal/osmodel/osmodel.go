// Package osmodel provides the minimal operating-system substrate the
// simulator needs: a physical frame allocator and process/domain
// lifecycle with lazily-populated page tables. The OS is untrusted in the
// paper's threat model — it only picks physical frames; all security
// metadata mapping is done by the (simulated) hardware in internal/core
// and internal/secmem.
package osmodel

import (
	"errors"
	"fmt"
	"io"

	"ivleague/internal/layout"
	"ivleague/internal/pagetable"
	"ivleague/internal/stats"
)

// Typed sentinel errors. Callers — in particular the model checker, which
// must distinguish "expected rejection" transitions (out of memory, benign
// re-unmap) from genuine accounting corruption — match them with errors.Is.
var (
	// ErrOutOfMemory is returned when no physical frame is available.
	ErrOutOfMemory = errors.New("osmodel: out of physical memory")
	// ErrOutOfRange is returned when a freed frame lies outside the
	// allocator's [lo, hi) range.
	ErrOutOfRange = errors.New("osmodel: frame outside allocator range")
	// ErrNeverAllocated is returned when a freed frame was never handed out.
	ErrNeverAllocated = errors.New("osmodel: frame never allocated")
	// ErrDoubleFree is returned when a frame is freed twice.
	ErrDoubleFree = errors.New("osmodel: double free")
	// ErrNotMapped is returned by Process.Unmap for a VPN with no mapping.
	ErrNotMapped = errors.New("osmodel: page not mapped")
)

// FrameAllocator hands out physical page frames in [lo, hi). Freed frames
// are recycled LIFO, which creates the address-reuse patterns that
// exercise the NFL deallocation paths.
type FrameAllocator struct {
	lo, hi  layout.PFN
	next    layout.PFN
	free    []layout.PFN
	freeSet map[layout.PFN]bool // mirrors free for O(1) double-free detection
	inUse   uint64
}

// NewFrameAllocator creates an allocator over frames [lo, hi).
func NewFrameAllocator(lo, hi layout.PFN) *FrameAllocator {
	if hi <= lo {
		panic("osmodel: empty frame range")
	}
	return &FrameAllocator{lo: lo, hi: hi, next: lo, freeSet: make(map[layout.PFN]bool)}
}

// Alloc returns a free frame.
func (f *FrameAllocator) Alloc() (layout.PFN, error) {
	if n := len(f.free); n > 0 {
		pfn := f.free[n-1]
		f.free = f.free[:n-1]
		delete(f.freeSet, pfn)
		f.inUse++
		return pfn, nil
	}
	if f.next >= f.hi {
		return 0, ErrOutOfMemory
	}
	pfn := f.next
	f.next++
	f.inUse++
	return pfn, nil
}

// Free returns a frame to the allocator.
func (f *FrameAllocator) Free(pfn layout.PFN) error {
	if pfn < f.lo || pfn >= f.hi {
		return fmt.Errorf("%w: freeing frame %d outside [%d,%d)", ErrOutOfRange, pfn, f.lo, f.hi)
	}
	if pfn >= f.next {
		return fmt.Errorf("%w: frame %d", ErrNeverAllocated, pfn)
	}
	if f.freeSet[pfn] {
		return fmt.Errorf("%w: frame %d", ErrDoubleFree, pfn)
	}
	f.free = append(f.free, pfn)
	f.freeSet[pfn] = true
	f.inUse--
	return nil
}

// WriteState dumps the allocator's behavioural state — range, bump
// pointer and the free list in LIFO pop order — in a canonical text form.
// The model checker folds it into its state fingerprint: two allocators
// with equal dumps hand out identical frame sequences from here on.
func (f *FrameAllocator) WriteState(w io.Writer) {
	fmt.Fprintf(w, "frames lo=%d hi=%d next=%d inuse=%d free=%v\n",
		f.lo, f.hi, f.next, f.inUse, f.free)
}

// Process is one running program: an IV domain with a page table. Threads
// of the same process share the Process (same domain).
type Process struct {
	PID      int
	DomainID int
	Table    *pagetable.Table
	frames   *FrameAllocator

	// Hooks into the secure-memory scheme, set by the simulator.
	// OnPageMap is called after a frame is mapped (hardware assigns a
	// tree slot); OnPageUnmap before the frame is freed.
	OnPageMap   func(domainID int, vpn layout.VPN, pfn layout.PFN)
	OnPageUnmap func(domainID int, vpn layout.VPN, pfn layout.PFN)

	PagesFreed stats.Counter
}

// NewProcess creates a process with its own page table drawing frames from
// frames. ptLevels selects the classic or IvLeague PTE layout.
func NewProcess(pid, domainID int, frames *FrameAllocator, ptLevels []uint) *Process {
	return &Process{
		PID:      pid,
		DomainID: domainID,
		Table:    pagetable.New(ptLevels),
		frames:   frames,
	}
}

// Touch ensures vpn is mapped, allocating and mapping a frame on first
// touch. It returns the PFN and whether a fault (new mapping) occurred.
func (p *Process) Touch(vpn layout.VPN) (pfn layout.PFN, fault bool, err error) {
	if pfn, ok := p.Table.Lookup(vpn); ok {
		return pfn, false, nil
	}
	pfn, err = p.frames.Alloc()
	if err != nil {
		return 0, false, err
	}
	if err := p.Table.Map(vpn, pfn); err != nil {
		return 0, false, err
	}
	if p.OnPageMap != nil {
		p.OnPageMap(p.DomainID, vpn, pfn)
	}
	return pfn, true, nil
}

// Unmap releases vpn if mapped, reporting whether it was. An unmapped VPN
// returns ErrNotMapped (benign — callers filter it with errors.Is); any
// other error covers frame-accounting corruption (freeing a frame outside
// the allocator's range), which must fail the run instead of crashing it.
func (p *Process) Unmap(vpn layout.VPN) (bool, error) {
	pfn, ok := p.Table.Lookup(vpn)
	if !ok {
		return false, fmt.Errorf("%w: vpn %#x", ErrNotMapped, uint64(vpn))
	}
	if p.OnPageUnmap != nil {
		p.OnPageUnmap(p.DomainID, vpn, pfn)
	}
	p.Table.Unmap(vpn)
	if err := p.frames.Free(pfn); err != nil {
		return false, err
	}
	p.PagesFreed.Inc()
	return true, nil
}
