package secmem

import (
	"errors"
	"strings"
	"testing"

	"ivleague/internal/config"
	"ivleague/internal/layout"
	"ivleague/internal/tree"
)

// TestCheckRecovery round-trips a controller with written pages in two
// domains under every scheme, then corrupts the stored slot that verifies
// the first mapped page: recovery must refuse the image. Under a deep
// tree the bottom-up rebuild finds the torn node; under Invert and Pro
// that page sits in its TreeLing's root, so the rebuilt root differs.
func TestCheckRecovery(t *testing.T) {
	for _, scheme := range allSchemes {
		c := newCtl(t, scheme, true)
		for _, dom := range []int{1, 2} {
			if err := c.CreateDomain(dom); err != nil {
				t.Fatal(err)
			}
			lo, _ := c.PartitionRange(dom)
			for i := 0; i < 4; i++ {
				req := AccessRequest{Domain: dom, VPN: layout.VPN(i), PFN: lo + layout.PFN(dom*8+i)}
				mapPage(t, c, dom, uint64(req.VPN), uint64(req.PFN))
				if _, err := c.WriteBlock(req, make([]byte, config.BlockBytes)); err != nil {
					t.Fatal(err)
				}
			}
		}
		rec, err := c.CheckRecovery()
		if err != nil {
			t.Fatalf("%v: clean round trip: %v", scheme, err)
		}
		p := c.MappedPages()[0]
		req := AccessRequest{Domain: p.Domain, VPN: p.VPN, PFN: p.PFN}
		if _, err := readBlock(rec, req); err != nil {
			t.Fatalf("%v: recovered read: %v", scheme, err)
		}

		if f := c.Forest(); f != nil {
			slot, _ := c.SlotOf(p.PFN)
			f.Corrupt(slot.TreeLing(), slot.Node(), slot.Slot(), 0xbad)
		} else {
			lay := c.Layout()
			c.GlobalTree().Corrupt(1, lay.GlobalNodeIndex(p.PFN, 1), int(uint64(p.PFN)%uint64(lay.Arity)), 0xbad)
		}
		_, err = c.CheckRecovery()
		var ie *tree.IntegrityError
		switch scheme {
		case config.SchemeIvLeagueInvert, config.SchemeIvLeaguePro:
			if err == nil || !strings.Contains(err.Error(), `"forest tl=0 root=`) {
				t.Errorf("%v: corrupted root slot: %v, want a digest mismatch on TreeLing 0's root", scheme, err)
			}
		default:
			if !errors.As(err, &ie) || ie.Class != tree.ViolationTorn {
				t.Errorf("%v: corrupted tree slot: %v, want a torn-state IntegrityError", scheme, err)
			}
		}
	}
}

func TestDigestDiff(t *testing.T) {
	for _, tc := range []struct{ a, b, want string }{
		{"x\ny\nz\n", "x\nY\nz\n", `line 2: "y" vs "Y"`},
		{"x\ny\n", "x\ny\nz\n", "lengths differ: 2 vs 3 lines"},
	} {
		if got := DigestDiff([]byte(tc.a), []byte(tc.b)); got != tc.want {
			t.Errorf("DigestDiff(%q, %q) = %q, want %q", tc.a, tc.b, got, tc.want)
		}
	}
}
