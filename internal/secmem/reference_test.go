package secmem

import (
	"bytes"
	"fmt"

	"ivleague/internal/config"
	"ivleague/internal/core"
	"ivleague/internal/layout"
)

// refPageMeta and refPageTable are the page metadata as it stood before
// it was packed into two words: a 24-byte record in a chunked arena of its
// own. They are kept only as the reference TestPageMetaMatchesReference
// compares the controller against; apart from the ref prefix on their
// names, the code is unchanged.
const (
	refPageChunkShift = 9
	refPageChunkSize  = 1 << refPageChunkShift
	refPageChunkMask  = refPageChunkSize - 1
)

type refPageMeta struct {
	slot    core.SlotID
	vpn     layout.VPN
	dom     int32
	mapped  bool
	hasSlot bool
}

type refPageTable struct {
	chunks [][]refPageMeta
	n      int // mapped frames
}

func (t *refPageTable) get(pfn layout.PFN) *refPageMeta {
	ci := int(pfn >> refPageChunkShift)
	if ci >= len(t.chunks) || t.chunks[ci] == nil {
		return nil
	}
	return &t.chunks[ci][int(pfn&refPageChunkMask)]
}

func (t *refPageTable) ensure(pfn layout.PFN) *refPageMeta {
	ci := int(pfn >> refPageChunkShift)
	for len(t.chunks) <= ci {
		t.chunks = append(t.chunks, nil)
	}
	if t.chunks[ci] == nil {
		t.chunks[ci] = make([]refPageMeta, refPageChunkSize)
	}
	return &t.chunks[ci][int(pfn&refPageChunkMask)]
}

func (t *refPageTable) forEachMapped(fn func(pfn layout.PFN, pm *refPageMeta)) {
	for ci, ch := range t.chunks {
		if ch == nil {
			continue
		}
		base := layout.PFN(ci) << refPageChunkShift
		for i := range ch {
			if ch[i].mapped {
				fn(base+layout.PFN(i), &ch[i])
			}
		}
	}
}

// refModel is the controller's page-metadata bookkeeping as it stood, over
// the reference table: the page-metadata lines of OnPageMap, OnPageUnmap,
// Do, TamperLMM, the leaf updater and the digest, unchanged but for the
// ref names. It drives a core.Controller of its own with the same calls
// the controller under test makes to its own, so the two agree on every
// slot as long as the two representations agree.
type refModel struct {
	ivc   *core.Controller // nil for the global-tree schemes
	pages refPageTable
	ops   core.OpList
}

func newRefModel(cfg *config.Config, scheme config.Scheme) (*refModel, error) {
	m := &refModel{}
	if !scheme.IsIvLeague() {
		return m, nil
	}
	mode, err := ivMode(scheme)
	if err != nil {
		return nil, err
	}
	if m.ivc, err = core.NewController(cfg, layout.New(cfg), mode, nil); err != nil {
		return nil, err
	}
	m.ivc.SetLeafUpdater(refLeafUpdater{m})
	return m, nil
}

type refLeafUpdater struct{ m *refModel }

func (u refLeafUpdater) UpdateLeaf(domainID int, pfn layout.PFN, slot core.SlotID) {
	pm := u.m.pages.ensure(pfn)
	pm.slot = slot
	pm.hasSlot = true
}

func (m *refModel) createDomain(id int) error {
	if m.ivc == nil {
		return nil
	}
	_, err := m.ivc.CreateDomain(id)
	return err
}

func (m *refModel) onPageMap(domain int, vpn layout.VPN, pfn layout.PFN) error {
	pm := m.pages.ensure(pfn)
	if !pm.mapped {
		m.pages.n++
	}
	pm.vpn = vpn
	pm.dom = int32(domain)
	pm.mapped = true
	if m.ivc == nil {
		return nil
	}
	m.ops.Reset()
	slot, err := m.ivc.AllocPage(domain, pfn, &m.ops)
	if err != nil {
		pm.mapped = false
		m.pages.n--
		return err
	}
	pm.slot = slot
	pm.hasSlot = true
	return nil
}

func (m *refModel) onPageUnmap(domain int, pfn layout.PFN) error {
	pm := m.pages.get(pfn)
	if pm != nil && pm.mapped {
		pm.mapped = false
		m.pages.n--
	}
	if m.ivc == nil {
		return nil
	}
	m.ops.Reset()
	var slot core.SlotID
	if pm != nil && pm.hasSlot {
		slot = pm.slot
	}
	if rs, changed := m.ivc.Resolve(domain, slot); changed {
		slot = rs
	}
	if err := m.ivc.FreePage(domain, pfn, slot, &m.ops); err != nil {
		return fmt.Errorf("secmem: FreePage: %w", err)
	}
	if pm != nil {
		pm.slot = 0
		pm.hasSlot = false
	}
	return nil
}

func (m *refModel) access(domain int, pfn layout.PFN) error {
	if m.ivc == nil {
		return nil
	}
	m.ops.Reset()
	pm := m.pages.get(pfn)
	if pm == nil || !pm.hasSlot {
		return fmt.Errorf("secmem: access to unmapped pfn %d", uint64(pfn))
	}
	slot := pm.slot
	if rs, changed := m.ivc.Resolve(domain, slot); changed {
		pm.slot = rs
		slot = rs
	}
	m.ivc.OnAccess(domain, pfn, slot, &m.ops)
	return nil
}

func (m *refModel) tamperLMM(pfn layout.PFN, forged core.SlotID) (core.SlotID, error) {
	pm := m.pages.get(pfn)
	if pm == nil || !pm.hasSlot {
		return core.InvalidSlot, fmt.Errorf("%w: pfn %d has no LMM entry", ErrNoTamperTarget, uint64(pfn))
	}
	old := pm.slot
	pm.slot = forged
	return old, nil
}

func (m *refModel) owner(pfn layout.PFN) (domain int, vpn layout.VPN, ok bool) {
	pm := m.pages.get(pfn)
	if pm == nil || !pm.mapped {
		return 0, 0, false
	}
	return int(pm.dom), pm.vpn, true
}

func (m *refModel) slotOf(pfn layout.PFN) (core.SlotID, bool) {
	pm := m.pages.get(pfn)
	if pm == nil || !pm.hasSlot {
		return 0, false
	}
	return pm.slot, true
}

func (m *refModel) mappedPages() []PageRef {
	refs := make([]PageRef, 0, m.pages.n)
	m.pages.forEachMapped(func(pfn layout.PFN, pm *refPageMeta) {
		refs = append(refs, PageRef{Domain: int(pm.dom), VPN: pm.vpn, PFN: pfn})
	})
	return refs
}

// pageDigest is StateDigest's page lines.
func (m *refModel) pageDigest() []byte {
	var b bytes.Buffer
	m.pages.forEachMapped(func(pfn layout.PFN, pm *refPageMeta) {
		slot := uint64(0)
		if pm.hasSlot {
			slot = uint64(pm.slot)
		}
		fmt.Fprintf(&b, "page pfn=%d dom=%d vpn=%d slot=%x\n", uint64(pfn), pm.dom, uint64(pm.vpn), slot)
	})
	return b.Bytes()
}
