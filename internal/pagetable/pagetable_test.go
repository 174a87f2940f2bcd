package pagetable

import (
	"testing"
	"testing/quick"

	"ivleague/internal/layout"
)

func TestMapLookupUnmap(t *testing.T) {
	for _, levels := range [][]uint{ClassicLevels, IvLeagueLevels} {
		pt := New(levels)
		pt.Map(0x12345, 99)
		if pfn, ok := pt.Lookup(0x12345); !ok || pfn != 99 {
			t.Fatalf("lookup = %d, %v; want 99, true", pfn, ok)
		}
		if n := len(pt.VPNs()); n != 1 {
			t.Fatalf("mapped %d", n)
		}
		old, ok := pt.Unmap(0x12345)
		if !ok || old != 99 {
			t.Fatal("unmap failed")
		}
		if _, ok := pt.Lookup(0x12345); ok || len(pt.VPNs()) != 0 {
			t.Fatal("entry survives unmap")
		}
	}
}

func TestDoubleMapErrors(t *testing.T) {
	pt := New(IvLeagueLevels)
	if err := pt.Map(5, 1); err != nil {
		t.Fatal(err)
	}
	if err := pt.Map(5, 2); err == nil {
		t.Fatal("double map did not return an error")
	}
}

func TestBadLevelWidthsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad widths did not panic")
		}
	}()
	New([]uint{9, 9, 9})
}

func TestDistinctVPNsNoAliasing(t *testing.T) {
	pt := New(IvLeagueLevels)
	f := func(vpns []uint32) bool {
		fresh := New(IvLeagueLevels)
		seen := map[uint64]uint64{}
		for i, raw := range vpns {
			vpn := uint64(raw)
			if _, dup := seen[vpn]; dup {
				continue
			}
			fresh.Map(layout.VPN(vpn), layout.PFN(i))
			seen[vpn] = uint64(i)
		}
		for vpn, pfn := range seen {
			if got, ok := fresh.Lookup(layout.VPN(vpn)); !ok || uint64(got) != pfn {
				return false
			}
		}
		return len(fresh.VPNs()) == len(seen)
	}
	_ = pt
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestVPNsDifferingOnlyInHighBits(t *testing.T) {
	pt := New(IvLeagueLevels)
	a := layout.VPN(0x123)
	b := a | 1<<35 // top-level index differs
	pt.Map(a, 1)
	pt.Map(b, 2)
	pa, _ := pt.Lookup(a)
	pb, _ := pt.Lookup(b)
	if pa != 1 || pb != 2 {
		t.Fatal("high-bit aliasing")
	}
}

// TestVPNBeyond36BitsRejected: the radix index keeps only VPNBits bits,
// so a wider VPN would alias the VPN of its low bits. Map rejects it, and
// Lookup and Unmap report it unmapped even when its alias is mapped.
func TestVPNBeyond36BitsRejected(t *testing.T) {
	for _, levels := range [][]uint{ClassicLevels, IvLeagueLevels} {
		pt := New(levels)
		wide := layout.VPN(1<<VPNBits + 5)
		if err := pt.Map(wide, 7); err == nil {
			t.Fatalf("Map(%#x) accepted a VPN wider than %d bits", uint64(wide), VPNBits)
		}
		if n := len(pt.VPNs()); n != 0 {
			t.Fatalf("rejected Map left %d mapped", n)
		}
		if err := pt.Map(5, 9); err != nil {
			t.Fatalf("Map(5) after the rejected alias: %v", err)
		}
		if pfn, ok := pt.Lookup(wide); ok {
			t.Fatalf("Lookup(%#x) = %d, true; want unmapped", uint64(wide), pfn)
		}
		if _, ok := pt.Unmap(wide); ok {
			t.Fatalf("Unmap(%#x) removed its alias VPN 5", uint64(wide))
		}
		if pfn, ok := pt.Lookup(5); !ok || pfn != 9 {
			t.Fatalf("Lookup(5) = %d, %v; want 9, true", pfn, ok)
		}
		if err := pt.Map(1<<VPNBits-1, 3); err != nil {
			t.Fatalf("Map of the largest VPN: %v", err)
		}
	}
}

func TestTLBHitMiss(t *testing.T) {
	tlb := NewTLB(64, 4)
	if _, hit := tlb.Lookup(10); hit {
		t.Fatal("cold TLB hit")
	}
	tlb.Insert(10, 77)
	pfn, hit := tlb.Lookup(10)
	if !hit || pfn != 77 {
		t.Fatal("TLB miss after insert")
	}
	if tlb.Hits.Value() != 1 || tlb.Misses.Value() != 1 {
		t.Fatalf("hits %d, misses %d, want 1 and 1", tlb.Hits.Value(), tlb.Misses.Value())
	}
}

func TestTLBEvictionCallback(t *testing.T) {
	tlb := NewTLB(8, 2) // 4 sets × 2 ways
	var evicted []layout.VPN
	tlb.OnEvict = func(vpn layout.VPN) { evicted = append(evicted, vpn) }
	// Fill one set (vpns congruent mod 4) beyond capacity.
	tlb.Insert(0, 1)
	tlb.Insert(4, 2)
	tlb.Insert(8, 3) // evicts vpn 0 (LRU)
	if len(evicted) != 1 || evicted[0] != 0 {
		t.Fatalf("evictions: %v", evicted)
	}
	if _, hit := tlb.Lookup(0); hit {
		t.Fatal("evicted vpn still hits")
	}
}

func TestTLBInvalidate(t *testing.T) {
	tlb := NewTLB(8, 2)
	tlb.Insert(3, 9)
	if !tlb.Invalidate(3) {
		t.Fatal("invalidate missed")
	}
	if _, hit := tlb.Lookup(3); hit {
		t.Fatal("invalidated entry hits")
	}
	if tlb.Invalidate(3) {
		t.Fatal("double invalidate succeeded")
	}
}

func TestTLBBadGeometry(t *testing.T) {
	for _, g := range [][2]int{{0, 1}, {7, 2}, {12, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("geometry %v did not panic", g)
				}
			}()
			NewTLB(g[0], g[1])
		}()
	}
}
