package secmem

import (
	"bytes"
	"errors"
	"slices"
	"testing"
	"unsafe"

	"ivleague/internal/config"
	"ivleague/internal/core"
	"ivleague/internal/layout"
	"ivleague/internal/rng"
)

// TestPageMetaIsTwoWords pins the packed record DESIGN.md §17 describes.
func TestPageMetaIsTwoWords(t *testing.T) {
	if n := unsafe.Sizeof(pageMeta{}); n != 16 {
		t.Fatalf("pageMeta is %d bytes, want 16", n)
	}
}

// TestOnPageMapRejectsUnpackableOwner: the owner word holds a 36-bit VPN
// and a 27-bit domain, so OnPageMap refuses anything wider and leaves no
// residue, and accepts the widest values that fit.
func TestOnPageMapRejectsUnpackableOwner(t *testing.T) {
	c := newCtl(t, config.SchemeBaseline, false)
	if _, err := c.OnPageMap(0, 1<<27, 5, 7); err == nil {
		t.Fatal("domain 2^27 accepted")
	}
	if _, err := c.OnPageMap(0, 1, 1<<36, 7); err == nil {
		t.Fatal("VPN 2^36 accepted")
	}
	if _, err := c.OnPageMap(0, -1, 5, 7); err == nil {
		t.Fatal("domain -1 accepted")
	}
	if _, _, ok := c.Owner(7); ok || len(c.MappedPages()) != 0 {
		t.Fatal("a rejected map left the frame mapped")
	}
	mapPage(t, c, 1<<27-1, 1<<36-1, 7)
	if dom, vpn, ok := c.Owner(7); !ok || dom != 1<<27-1 || vpn != 1<<36-1 {
		t.Fatalf("Owner(7) = (%d, %#x, %v), want (2^27-1, 2^36-1, true)", dom, uint64(vpn), ok)
	}
}

// TestTamperLMMRefusesInvalidSlot: the Leaf-ID word encodes InvalidSlot as
// "no entry", so forging it would delete the entry rather than forge one.
func TestTamperLMMRefusesInvalidSlot(t *testing.T) {
	c := newCtl(t, config.SchemeIvLeagueBasic, false)
	if err := c.CreateDomain(1); err != nil {
		t.Fatal(err)
	}
	mapPage(t, c, 1, 3, 3)
	want, _ := c.SlotOf(3)
	if _, err := c.TamperLMM(3, core.InvalidSlot); err == nil {
		t.Fatal("TamperLMM accepted InvalidSlot")
	}
	if got, ok := c.SlotOf(3); !ok || got != want {
		t.Fatalf("SlotOf(3) = %v, %v after the refused forgery; want %v", got, ok, want)
	}
}

// pageLines returns a state digest's page lines.
func pageLines(digest []byte) []byte {
	var b bytes.Buffer
	for _, l := range bytes.SplitAfter(digest, []byte("\n")) {
		if bytes.HasPrefix(l, []byte("page ")) {
			b.Write(l)
		}
	}
	return b.Bytes()
}

// TestPageMetaMatchesReference drives the controller and the reference
// model (reference_test.go) through one random sequence: maps, maps the
// scheme rejects for TreeLing starvation, unmaps, accesses (which resolve
// Invert's converted slots and migrate Pro's hot pages) and TamperLMM
// forgeries with their restores. After every step Owner, SlotOf,
// MappedPages, StateDigest's page lines and the two domain controllers'
// digests must agree. Every 500 steps the controller also passes
// CheckRecovery, which round-trips the records through the crash image,
// and the recovered controller must agree too.
func TestPageMetaMatchesReference(t *testing.T) {
	for _, scheme := range []config.Scheme{
		config.SchemeBaseline, config.SchemeIvLeagueBasic, config.SchemeIvLeagueInvert, config.SchemeIvLeaguePro,
	} {
		t.Run(scheme.String(), func(t *testing.T) {
			cfg := config.Default()
			cfg.SecureMem.TreeArity = 4
			cfg.IvLeague.TreeLingHeight = 3 // 64 pages per TreeLing
			cfg.IvLeague.TreeLingCount = 3
			cfg.IvLeague.HotRegionLeaves = 1
			cfg.IvLeague.HotThreshold = 4
			cfg.DRAM.SizeBytes = 3 * cfg.TreeLingBytes()
			c, err := New(&cfg, scheme, 0, WithFunctional())
			if err != nil {
				t.Fatal(err)
			}
			ref, err := newRefModel(&cfg, scheme)
			if err != nil {
				t.Fatal(err)
			}
			// Two domains of up to 96 pages each outgrow three 64-page
			// TreeLings, so maps starve.
			const (
				domains = 2
				pool    = 96
				steps   = 2000
			)
			for d := 1; d <= domains; d++ {
				if err := c.CreateDomain(d); err != nil {
					t.Fatal(err)
				}
				if err := ref.createDomain(d); err != nil {
					t.Fatal(err)
				}
			}
			compare := func(step int, c *Controller) {
				t.Helper()
				for pfn := layout.PFN(0); pfn < domains*pool; pfn++ {
					gd, gv, gok := c.Owner(pfn)
					wd, wv, wok := ref.owner(pfn)
					if gd != wd || gv != wv || gok != wok {
						t.Fatalf("step %d: Owner(%d) = (%d, %d, %v); reference (%d, %d, %v)", step, pfn, gd, gv, gok, wd, wv, wok)
					}
					gs, gsok := c.SlotOf(pfn)
					ws, wsok := ref.slotOf(pfn)
					if gs != ws || gsok != wsok {
						t.Fatalf("step %d: SlotOf(%d) = (%v, %v); reference (%v, %v)", step, pfn, gs, gsok, ws, wsok)
					}
				}
				if got, want := c.MappedPages(), ref.mappedPages(); !slices.Equal(got, want) {
					t.Fatalf("step %d: MappedPages = %v; reference %v", step, got, want)
				}
				if got, want := pageLines(c.StateDigest()), ref.pageDigest(); !bytes.Equal(got, want) {
					t.Fatalf("step %d: StateDigest page lines differ (%s)", step, DigestDiff(got, want))
				}
				if ref.ivc != nil {
					var got, want bytes.Buffer
					c.IvLeague().WriteStateDigest(&got)
					ref.ivc.WriteStateDigest(&want)
					if !bytes.Equal(got.Bytes(), want.Bytes()) {
						t.Fatalf("step %d: domain controllers diverged (%s)", step, DigestDiff(got.Bytes(), want.Bytes()))
					}
				}
			}
			lay := c.Layout()
			mapped := make([]bool, domains*pool)
			r := rng.New(uint64(scheme) + 7)
			now := uint64(0)
			starved, tampered := 0, 0
			for step := 1; step <= steps; step++ {
				d := 1 + r.Intn(domains)
				i := r.Intn(pool)
				if r.Bool(0.5) {
					i = r.Intn(8) // the hot pages
				}
				k := (d-1)*pool + i
				pfn, vpn := layout.PFN(k), layout.VPN(i)
				switch {
				case !mapped[k]:
					_, gerr := c.OnPageMap(now, d, vpn, pfn)
					if werr := ref.onPageMap(d, vpn, pfn); (gerr == nil) != (werr == nil) {
						t.Fatalf("step %d: OnPageMap(%d) = %v; reference %v", step, pfn, gerr, werr)
					}
					if errors.Is(gerr, core.ErrStarvation) {
						starved++
					} else if gerr != nil {
						t.Fatalf("step %d: OnPageMap(%d): %v", step, pfn, gerr)
					}
					mapped[k] = gerr == nil
				case r.Bool(0.05):
					_, gerr := c.OnPageUnmap(now, d, vpn, pfn)
					if werr := ref.onPageUnmap(d, pfn); gerr != nil || werr != nil {
						t.Fatalf("step %d: OnPageUnmap(%d) = %v; reference %v", step, pfn, gerr, werr)
					}
					mapped[k] = false
				case ref.ivc != nil && r.Bool(0.05):
					forged := core.MakeSlot(r.Intn(cfg.IvLeague.TreeLingCount), r.Intn(lay.NodesPerTreeLing), r.Intn(lay.Arity))
					gold, gerr := c.TamperLMM(pfn, forged)
					wold, werr := ref.tamperLMM(pfn, forged)
					if gold != wold || (gerr == nil) != (werr == nil) {
						t.Fatalf("step %d: TamperLMM(%d) = (%v, %v); reference (%v, %v)", step, pfn, gold, gerr, wold, werr)
					}
					compare(step, c)
					if _, err := c.TamperLMM(pfn, gold); err != nil {
						t.Fatalf("step %d: restoring the Leaf ID: %v", step, err)
					}
					ref.tamperLMM(pfn, wold)
					tampered++
				default:
					res, err := c.Do(AccessRequest{Now: now, Domain: d, VPN: vpn, PFN: pfn,
						Block: r.Intn(config.BlocksPerPage), Write: r.Bool(0.5)})
					if err != nil {
						t.Fatalf("step %d: access: %v", step, err)
					}
					if err := ref.access(d, pfn); err != nil {
						t.Fatalf("step %d: reference access: %v", step, err)
					}
					now += uint64(res.Latency)
				}
				compare(step, c)
				if step%500 == 0 {
					rec, err := c.CheckRecovery()
					if err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
					compare(step, rec)
				}
			}
			if ivc := c.IvLeague(); ivc != nil {
				if starved == 0 || tampered == 0 {
					t.Fatalf("%d starved maps and %d forgeries; the sequence must have both", starved, tampered)
				}
				if scheme == config.SchemeIvLeagueInvert && ivc.Conversions.Value() == 0 {
					t.Fatal("the sequence converted no Invert slot")
				}
				if scheme == config.SchemeIvLeaguePro && ivc.Migrations.Value() == 0 {
					t.Fatal("the sequence migrated no Pro page")
				}
			}
		})
	}
}
