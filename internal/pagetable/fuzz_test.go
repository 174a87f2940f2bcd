package pagetable

import (
	"testing"

	"ivleague/internal/layout"
)

// FuzzPageTableMapUnmap drives the page table with an arbitrary op
// sequence decoded from the fuzz input. The contract under test: misuse
// (double map, unmap or lookup of absent VPNs) returns errors, false or nil,
// never panics, and the table's mapped count always matches a shadow map.
func FuzzPageTableMapUnmap(f *testing.F) {
	f.Add([]byte{0x01, 0x02, 0x81, 0x01})
	f.Add([]byte{0xff, 0xff, 0x00, 0x40, 0x40})
	f.Add([]byte{0x01, 0xc1, 0x81, 0xc1}) // map, look up, unmap, look up

	f.Fuzz(func(t *testing.T, ops []byte) {
		pt := New([]uint{9, 9, 9, 9})
		shadow := map[uint64]uint64{}
		for i, b := range ops {
			// Decode each byte into an op and a VPN; a small VPN space
			// makes map/unmap collisions (the interesting cases) likely.
			vpn := uint64(b&0x3f) << 27 // exercise all four walk levels
			pfn := uint64(i)
			switch {
			case b&0x80 == 0: // map
				err := pt.Map(layout.VPN(vpn), layout.PFN(pfn))
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
				want, mapped := shadow[vpn]
				if ok != mapped {
					t.Fatalf("unmap(%#x) = %v, shadow says %v", vpn, ok, mapped)
				}
				if ok && uint64(old.PFN) != want {
					t.Fatalf("unmap(%#x) returned pfn %d, want %d", vpn, old.PFN, want)
				}
				delete(shadow, vpn)
			default: // lookup
				pte := pt.Lookup(layout.VPN(vpn))
				want, mapped := shadow[vpn]
				if mapped != (pte != nil) {
					t.Fatalf("lookup(%#x) = %+v, shadow mapped=%v", vpn, pte, mapped)
				}
				if mapped && uint64(pte.PFN) != want {
					t.Fatalf("lookup(%#x) returned pfn %d, want %d", vpn, pte.PFN, want)
				}
			}
			if pt.Mapped() != uint64(len(shadow)) {
				t.Fatalf("mapped count %d != shadow %d", pt.Mapped(), len(shadow))
			}
		}
		// Every shadow entry must still look up correctly.
		for vpn, pfn := range shadow {
			pte := pt.Lookup(layout.VPN(vpn))
			if pte == nil || uint64(pte.PFN) != pfn {
				t.Fatalf("lookup(%#x) lost mapping to pfn %d", vpn, pfn)
			}
		}
	})
}
