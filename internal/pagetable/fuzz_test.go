package pagetable

import (
	"slices"
	"testing"

	"ivleague/internal/layout"
)

// FuzzPageTableMapUnmap drives the page table with an arbitrary op
// sequence decoded from the fuzz input. The contract under test: misuse
// (double map, unmap or lookup of absent VPNs) returns errors or false,
// never panics, the table's mapped count always matches a shadow map, and
// every return agrees with the 16-byte-entry reference table.
func FuzzPageTableMapUnmap(f *testing.F) {
	f.Add([]byte{0x01, 0x02, 0x81, 0x01})
	f.Add([]byte{0xff, 0xff, 0x00, 0x40, 0x40})
	f.Add([]byte{0x01, 0xc1, 0x81, 0xc1}) // map, look up, unmap, look up
	f.Add([]byte{0x00, 0xc0, 0x80, 0xc0}) // the same with frame 0

	f.Fuzz(func(t *testing.T, ops []byte) {
		pt := New([]uint{9, 9, 9, 9})
		ref := newRefTable([]uint{9, 9, 9, 9})
		shadow := map[uint64]uint64{}
		for i, b := range ops {
			// Decode each byte into an op and a VPN; a small VPN space
			// makes map/unmap collisions (the interesting cases) likely.
			vpn := uint64(b&0x3f) << 27 // exercise all four walk levels
			pfn := uint64(i)
			switch {
			case b&0x80 == 0: // map
				err := pt.Map(layout.VPN(vpn), layout.PFN(pfn))
				if rerr := ref.Map(layout.VPN(vpn), layout.PFN(pfn)); (err == nil) != (rerr == nil) {
					t.Fatalf("map(%#x) = %v; reference %v", vpn, err, rerr)
				}
				if _, dup := shadow[vpn]; dup {
					if err == nil {
						t.Fatalf("double map of vpn %#x accepted", vpn)
					}
				} else {
					if err != nil {
						t.Fatalf("map of fresh vpn %#x failed: %v", vpn, err)
					}
					shadow[vpn] = pfn
				}
			case b&0x40 == 0: // unmap
				old, ok := pt.Unmap(layout.VPN(vpn))
				if rold, rok := ref.Unmap(layout.VPN(vpn)); ok != rok || old != rold.PFN {
					t.Fatalf("unmap(%#x) = %d, %v; reference %d, %v", vpn, old, ok, rold.PFN, rok)
				}
				want, mapped := shadow[vpn]
				if ok != mapped {
					t.Fatalf("unmap(%#x) = %v, shadow says %v", vpn, ok, mapped)
				}
				if ok && uint64(old) != want {
					t.Fatalf("unmap(%#x) returned pfn %d, want %d", vpn, old, want)
				}
				delete(shadow, vpn)
			default: // lookup
				got, ok := pt.Lookup(layout.VPN(vpn))
				if rpte := ref.Lookup(layout.VPN(vpn)); ok != (rpte != nil) || ok && got != rpte.PFN {
					t.Fatalf("lookup(%#x) = %d, %v; reference %+v", vpn, got, ok, rpte)
				}
				want, mapped := shadow[vpn]
				if mapped != ok {
					t.Fatalf("lookup(%#x) = %d, %v; shadow mapped=%v", vpn, got, ok, mapped)
				}
				if mapped && uint64(got) != want {
					t.Fatalf("lookup(%#x) returned pfn %d, want %d", vpn, got, want)
				}
			}
			if n := uint64(len(pt.VPNs())); n != uint64(len(shadow)) || ref.Mapped() != n {
				t.Fatalf("mapped count %d, reference %d, shadow %d", n, ref.Mapped(), len(shadow))
			}
		}
		// Every shadow entry must still look up correctly.
		for vpn, pfn := range shadow {
			if got, ok := pt.Lookup(layout.VPN(vpn)); !ok || uint64(got) != pfn {
				t.Fatalf("lookup(%#x) lost mapping to pfn %d", vpn, pfn)
			}
		}
		if got, want := pt.VPNs(), ref.VPNs(); !slices.Equal(got, want) {
			t.Fatalf("VPNs = %v; reference %v", got, want)
		}
	})
}
