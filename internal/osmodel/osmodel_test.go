package osmodel

import (
	"errors"
	"testing"

	"ivleague/internal/layout"
	"ivleague/internal/pagetable"
)

func TestFrameAllocatorBasics(t *testing.T) {
	f := NewFrameAllocator(10, 20)
	a, err := f.Alloc()
	if err != nil || a != 10 {
		t.Fatalf("first frame %d err %v", a, err)
	}
	if f.InUse() != 1 {
		t.Fatal("in-use not tracked")
	}
	f.Free(a)
	if f.InUse() != 0 {
		t.Fatal("free not tracked")
	}
	// Freed frames are recycled (LIFO).
	b, _ := f.Alloc()
	if b != a {
		t.Fatalf("freed frame not recycled: %d", b)
	}
}

func TestFrameExhaustion(t *testing.T) {
	f := NewFrameAllocator(0, 3)
	for i := 0; i < 3; i++ {
		if _, err := f.Alloc(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f.Alloc(); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("expected OOM, got %v", err)
	}
}

func TestFreeOutOfRangeErrors(t *testing.T) {
	f := NewFrameAllocator(0, 3)
	if err := f.Free(5); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("out-of-range free: got %v, want ErrOutOfRange", err)
	}
	a, _ := f.Alloc()
	if err := f.Free(a); err != nil {
		t.Fatalf("valid free errored: %v", err)
	}
	if err := f.Free(a); !errors.Is(err, ErrDoubleFree) {
		t.Fatalf("double free: got %v, want ErrDoubleFree", err)
	}
	if err := f.Free(2); !errors.Is(err, ErrNeverAllocated) {
		t.Fatalf("never-allocated free: got %v, want ErrNeverAllocated", err)
	}
}

func TestProcessTouchAndUnmap(t *testing.T) {
	frames := NewFrameAllocator(0, 100)
	var mapped, unmapped int
	p := NewProcess(1, 7, frames, pagetable.IvLeagueLevels)
	p.OnPageMap = func(dom int, vpn layout.VPN, pfn layout.PFN) {
		if dom != 7 {
			t.Fatalf("domain %d", dom)
		}
		mapped++
	}
	p.OnPageUnmap = func(dom int, vpn layout.VPN, pfn layout.PFN) { unmapped++ }

	pfn, fault, err := p.Touch(42)
	if err != nil || !fault {
		t.Fatalf("first touch: fault=%v err=%v", fault, err)
	}
	pfn2, fault2, _ := p.Touch(42)
	if fault2 || pfn2 != pfn {
		t.Fatal("second touch faulted or changed frame")
	}
	if mapped != 1 {
		t.Fatalf("map hook fired %d times", mapped)
	}
	if ok, err := p.Unmap(42); !ok || err != nil {
		t.Fatalf("unmap failed: ok=%v err=%v", ok, err)
	}
	if unmapped != 1 || p.Mapped() != 0 || frames.InUse() != 0 {
		t.Fatal("unmap bookkeeping wrong")
	}
	if ok, err := p.Unmap(42); ok || !errors.Is(err, ErrNotMapped) {
		t.Fatalf("double unmap: ok=%v err=%v, want ErrNotMapped", ok, err)
	}
}

func TestProcessOOMPropagates(t *testing.T) {
	frames := NewFrameAllocator(0, 2)
	p := NewProcess(1, 1, frames, pagetable.ClassicLevels)
	p.Touch(0)
	p.Touch(1)
	if _, _, err := p.Touch(2); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("expected OOM, got %v", err)
	}
}

func TestTwoProcessesShareFrames(t *testing.T) {
	frames := NewFrameAllocator(0, 100)
	p1 := NewProcess(1, 1, frames, pagetable.IvLeagueLevels)
	p2 := NewProcess(2, 2, frames, pagetable.IvLeagueLevels)
	f1, _, _ := p1.Touch(0)
	f2, _, _ := p2.Touch(0)
	if f1 == f2 {
		t.Fatal("two processes got the same frame")
	}
}
