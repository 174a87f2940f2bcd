package secmem

import (
	"bytes"
	"errors"
	"fmt"

	"ivleague/internal/config"
	"ivleague/internal/core"
	"ivleague/internal/ctr"
	"ivleague/internal/layout"
	"ivleague/internal/stats"
	"ivleague/internal/tree"
)

// This file implements the crash model for the secure-memory controller.
//
// Persist captures everything that lives in (simulated) DRAM and
// therefore survives a power loss: counter blocks, integrity-tree node
// images, the encrypted data plane with its MACs, the extended-PTE state
// (page→slot/domain/VPN tables) and the domain controller's persisted
// image (NFL blocks, assignment metadata). Everything on-chip —
// metadata caches, the LMM cache, the NFLB, the tree root registers, the
// NFL head registers — is deliberately absent from the image.
//
// Recover builds a cold controller and rebuilds each on-chip structure
// from the image alone, Phoenix-style: TreeLing roots are recomputed
// bottom-up (detecting torn images as tree.ViolationTorn), NFL frontiers
// are re-derived by scanning block contents, and caches restart empty.
// StateDigest then canonicalizes both controllers' persisted +
// architectural state so recovery can be asserted byte-identical to a
// clean rerun.

// pageImage is the persisted form of one frame's extended-PTE state.
type pageImage struct {
	pfn  layout.PFN
	meta pageMeta
}

// Image is the persisted off-chip state of a controller at a crash point.
type Image struct {
	scheme    config.Scheme
	partCount int
	counters  *ctr.Store
	datamem   *dataPlane
	pages     []pageImage
	partOf    map[int]int
	forest    *tree.Forest
	global    *tree.Global
	core      *core.Image
}

// Persist captures the controller's persisted (off-chip) state. It
// requires functional mode: only the functional layer maintains the real
// metadata a crash image consists of.
func (c *Controller) Persist() (*Image, error) {
	if !c.functional {
		return nil, errors.New("secmem: Persist requires WithFunctional")
	}
	img := &Image{
		scheme:    c.scheme,
		partCount: c.partCount,
		counters:  c.counters.Clone(),
	}
	if c.datamem != nil {
		img.datamem = c.datamem.clone()
	}
	// Every frame with live metadata (mapped, or carrying a slot entry)
	// is persisted in ascending PFN order.
	for ci, ch := range c.pages.chunks {
		if ch == nil {
			continue
		}
		base := layout.PFN(ci) << pageChunkShift
		for i := range ch {
			if ch[i].mapped || ch[i].hasSlot {
				img.pages = append(img.pages, pageImage{pfn: base + layout.PFN(i), meta: ch[i]})
			}
		}
	}
	if c.partOf != nil {
		img.partOf = make(map[int]int, len(c.partOf))
		for _, id := range stats.SortedKeys(c.partOf) {
			img.partOf[id] = c.partOf[id]
		}
	}
	if c.forest != nil {
		img.forest = c.forest.Clone()
	}
	if c.global != nil {
		img.global = c.global.Clone()
	}
	if c.ivc != nil {
		ci, err := c.ivc.Persist()
		if err != nil {
			return nil, err
		}
		img.core = ci
	}
	return img, nil
}

// Recover builds a controller from a persisted image: cold caches, NFLB
// and LMM cache; page tables, counters, data plane and NFL contents
// restored from the image; and TreeLing / global-tree roots recomputed
// bottom-up from the persisted nodes. A torn image surfaces as a
// *tree.IntegrityError (class torn-state).
func Recover(cfg *config.Config, img *Image, opts ...Option) (*Controller, error) {
	opts = append(opts, WithFunctional())
	c, err := New(cfg, img.scheme, img.partCount, opts...)
	if err != nil {
		return nil, err
	}
	c.counters = img.counters.Clone()
	if img.datamem != nil {
		c.datamem = img.datamem.clone()
	}
	for _, pi := range img.pages {
		pm := c.pages.ensure(pi.pfn)
		*pm = pi.meta
		if pm.mapped {
			c.pages.n++
		}
	}
	if img.partOf != nil {
		for _, id := range stats.SortedKeys(img.partOf) {
			c.partOf[id] = img.partOf[id]
		}
	}
	switch {
	case c.ivc != nil:
		if img.core == nil || img.forest == nil {
			return nil, errors.New("secmem: image misses IvLeague state")
		}
		c.forest.RestoreFrom(img.forest)
		if err := c.ivc.Restore(img.core); err != nil {
			return nil, err
		}
		for _, id := range c.ivc.DomainIDs() {
			for _, tl := range c.ivc.TreeLingsOf(id) {
				if err := c.forest.RecoverRoot(tl); err != nil {
					return nil, err
				}
			}
		}
	default:
		if img.global == nil {
			return nil, errors.New("secmem: image misses the global tree")
		}
		c.global.RestoreFrom(img.global)
		if _, err := c.global.RecoverRoot(); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// CheckRecovery is the crash-recovery check: it persists the controller,
// recovers a cold controller from the image and requires the two state
// digests to be byte-identical. It returns the recovered controller for
// callers that go on to exercise it. A torn image fails with the
// *tree.IntegrityError Recover raised; a digest mismatch names the first
// differing line.
func (c *Controller) CheckRecovery() (*Controller, error) {
	img, err := c.Persist()
	if err != nil {
		return nil, fmt.Errorf("secmem: persist: %w", err)
	}
	rec, err := Recover(&c.cfg, img)
	if err != nil {
		return nil, fmt.Errorf("secmem: recover: %w", err)
	}
	if live, got := c.StateDigest(), rec.StateDigest(); !bytes.Equal(live, got) {
		return nil, fmt.Errorf("secmem: recovered state differs from the live controller (%s)", DigestDiff(live, got))
	}
	return rec, nil
}

// DigestDiff locates the first differing line of two state digests, for
// readable failure messages.
func DigestDiff(a, b []byte) string {
	la := bytes.Split(bytes.TrimSuffix(a, []byte("\n")), []byte("\n"))
	lb := bytes.Split(bytes.TrimSuffix(b, []byte("\n")), []byte("\n"))
	for i := 0; i < len(la) && i < len(lb); i++ {
		if !bytes.Equal(la[i], lb[i]) {
			return fmt.Sprintf("line %d: %q vs %q", i+1, la[i], lb[i])
		}
	}
	return fmt.Sprintf("lengths differ: %d vs %d lines", len(la), len(lb))
}

// StateDigest returns a canonical dump of the controller's persisted and
// architectural state — counters, data plane, page tables, tree images
// and roots, and the domain controller's digest — excluding everything
// volatile (cache contents, statistics, on-chip replacement state). Two
// controllers whose digests are byte-identical hold equivalent secure-
// memory state; this is the crash-recovery equality check.
func (c *Controller) StateDigest() []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "scheme=%d partitions=%d\n", c.scheme, c.partCount)
	for _, pfn := range c.counters.PFNs() {
		blk := c.counters.Snapshot(pfn)
		fmt.Fprintf(&b, "ctr %d major=%d minors=%x\n", uint64(pfn), blk.Major, blk.Minors)
	}
	if c.datamem != nil {
		c.datamem.forEach(func(pfn layout.PFN, block int, st *blockState) {
			addr := layout.DataBlockAddr(pfn, block)
			fmt.Fprintf(&b, "data %#x mac=%x ct=%x\n", addr, st.mac, st.ct)
		})
	}
	c.pages.forEachMapped(func(pfn layout.PFN, pm *pageMeta) {
		slot := uint64(0)
		if pm.hasSlot {
			slot = uint64(pm.slot)
		}
		fmt.Fprintf(&b, "page pfn=%d dom=%d vpn=%d slot=%x\n", uint64(pfn), pm.dom, uint64(pm.vpn), slot)
	})
	for _, id := range stats.SortedKeys(c.partOf) {
		fmt.Fprintf(&b, "part %d=%d\n", id, c.partOf[id])
	}
	if c.ivc != nil {
		c.ivc.WriteStateDigest(&b)
	}
	if c.forest != nil && c.ivc != nil {
		for _, id := range c.ivc.DomainIDs() {
			for _, tl := range c.ivc.TreeLingsOf(id) {
				fmt.Fprintf(&b, "forest tl=%d root=%x nodes=%x\n", tl, c.forest.Root(tl), c.forest.DigestTreeLing(tl))
			}
		}
	}
	if c.global != nil {
		fmt.Fprintf(&b, "global root=%x nodes=%x\n", c.global.Root(), c.global.DigestImage())
	}
	return b.Bytes()
}
