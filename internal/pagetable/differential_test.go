package pagetable

import (
	"slices"
	"testing"

	"ivleague/internal/layout"
	"ivleague/internal/rng"
)

// TestMatchesReferenceTable drives Table and the 16-byte-entry reference
// with the same random Map, Unmap and Lookup stream under both level
// layouts, and requires every return value to agree, and every 10,000 ops
// the VPN enumeration, which holds the mapped count. VPNs come from a few indices per level, so leaves
// fill and empty and intermediate nodes are shared; a third of the frames
// are 0, which only the present encoding tells apart from no mapping.
func TestMatchesReferenceTable(t *testing.T) {
	const ops = 200_000
	for li, levels := range [][]uint{ClassicLevels, IvLeagueLevels} {
		pt, ref := New(levels), newRefTable(levels)
		r := rng.New(uint64(li) + 7)
		for i := 0; i < ops; i++ {
			vpn := layout.VPN(r.Uint64n(4)<<33 | r.Uint64n(4)<<20 | r.Uint64n(4)<<9 | r.Uint64n(16))
			if r.Intn(128) == 0 {
				vpn = layout.VPN(r.Uint64n(1 << VPNBits))
			}
			pfn := layout.PFN(r.Uint64n(1 << 40))
			if r.Intn(3) == 0 {
				pfn = 0
			}
			switch p := r.Intn(10); {
			case p < 4:
				got, want := pt.Map(vpn, pfn), ref.Map(vpn, pfn)
				if (got == nil) != (want == nil) {
					t.Fatalf("levels %v op %d: Map(%#x, %d) = %v; reference %v", levels, i, uint64(vpn), pfn, got, want)
				}
			case p < 7:
				got, ok := pt.Unmap(vpn)
				want, wok := ref.Unmap(vpn)
				if ok != wok || got != want.PFN {
					t.Fatalf("levels %v op %d: Unmap(%#x) = %d, %v; reference %d, %v", levels, i, uint64(vpn), got, ok, want.PFN, wok)
				}
			default:
				got, ok := pt.Lookup(vpn)
				want := ref.Lookup(vpn)
				if ok != (want != nil) || ok && got != want.PFN {
					t.Fatalf("levels %v op %d: Lookup(%#x) = %d, %v; reference %+v", levels, i, uint64(vpn), got, ok, want)
				}
			}
			if i%10_000 == 0 || i == ops-1 {
				if got, want := pt.VPNs(), ref.VPNs(); !slices.Equal(got, want) {
					t.Fatalf("levels %v op %d: VPNs = %v; reference %v", levels, i, got, want)
				}
			}
		}
	}
}
