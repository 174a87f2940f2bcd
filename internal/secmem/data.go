package secmem

import (
	"errors"
	"fmt"

	"ivleague/internal/arena"
	"ivleague/internal/config"
	"ivleague/internal/ctr"
	"ivleague/internal/layout"
	"ivleague/internal/tree"
)

// ErrMACMismatch is returned when a data block fails authentication
// (spoofing/splicing detected).
var ErrMACMismatch = errors.New("secmem: MAC mismatch")

// blockState is the off-chip image of one data block in functional mode:
// its ciphertext and its MAC.
type blockState struct {
	ct  [config.BlockBytes]byte
	mac uint64
}

// dataPage holds one page's worth of functional block state plus a
// present bitmap (which blocks were ever written).
type dataPage struct {
	present [(config.BlocksPerPage + 63) / 64]uint64
	blocks  [config.BlocksPerPage]blockState
}

func (p *dataPage) isPresent(block int) bool {
	return p.present[block>>6]&(1<<uint(block&63)) != 0
}

func (p *dataPage) setPresent(block int) {
	p.present[block>>6] |= 1 << uint(block&63)
}

// eachBlock visits every written block of the data plane in ascending
// (pfn, block) order — equivalently ascending byte address, the digest's
// canonical order.
func eachBlock(data *arena.Chunked[*dataPage], fn func(pfn layout.PFN, block int, st *blockState)) {
	data.Each(func(pfn layout.PFN, pp **dataPage) {
		if p := *pp; p != nil {
			for b := range p.blocks {
				if p.isPresent(b) {
					fn(pfn, b, &p.blocks[b])
				}
			}
		}
	})
}

// cloneData deep-copies a data plane (the persisted data image of a crash
// snapshot).
func cloneData(data *arena.Chunked[*dataPage]) arena.Chunked[*dataPage] {
	c := data.Clone()
	c.Each(func(_ layout.PFN, pp **dataPage) {
		if *pp != nil {
			cp := **pp
			*pp = &cp
		}
	})
	return c
}

// dataPage returns pfn's data page, or nil if it was never written.
func (c *Controller) dataPage(pfn layout.PFN) *dataPage {
	if pp := c.data.Get(pfn); pp != nil {
		return *pp
	}
	return nil
}

// ensureDataPage returns pfn's data page, making it on the page's first
// write.
func (c *Controller) ensureDataPage(pfn layout.PFN) *dataPage {
	pp := c.data.Ensure(pfn)
	if *pp == nil {
		*pp = &dataPage{}
	}
	return *pp
}

// WriteBlock performs a full secure write: the timing path (counter bump,
// tree update, posted write) plus the functional path (encrypt the 64-byte
// plaintext under the fresh counter, store ciphertext and MAC in place).
// req.Write is implied. Requires functional mode.
func (c *Controller) WriteBlock(req AccessRequest, plain []byte) (AccessResult, error) {
	if !c.functional {
		return AccessResult{}, errors.New("secmem: WriteBlock requires WithFunctional")
	}
	if len(plain) != config.BlockBytes {
		return AccessResult{}, fmt.Errorf("secmem: WriteBlock needs %d bytes", config.BlockBytes)
	}
	req.Write = true
	res, err := c.Do(req)
	if err != nil {
		return AccessResult{}, err
	}
	addr := layout.DataBlockAddr(req.PFN, req.Block)
	cnt := c.counters.Counter(req.PFN, req.Block)
	p := c.ensureDataPage(req.PFN)
	st := &p.blocks[req.Block]
	c.engine.EncryptBlock(st.ct[:], plain, addr, cnt)
	st.mac = c.engine.MAC(st.ct[:], addr, cnt)
	p.setPresent(req.Block)
	return res, nil
}

// ReadBlock performs a full secure read: the timing path (data + counter
// fetch, tree verification) plus the functional path (MAC check and
// decryption). The plaintext is decrypted into dst, which must be
// config.BlockBytes long — the caller owns the buffer, so a steady-state
// read allocates nothing. req.Write is implied false. Tampered or replayed
// memory yields an error.
func (c *Controller) ReadBlock(req AccessRequest, dst []byte) (AccessResult, error) {
	if !c.functional {
		return AccessResult{}, errors.New("secmem: ReadBlock requires WithFunctional")
	}
	if len(dst) != config.BlockBytes {
		return AccessResult{}, fmt.Errorf("secmem: ReadBlock needs a %d-byte buffer", config.BlockBytes)
	}
	req.Write = false
	res, err := c.Do(req)
	if err != nil {
		return AccessResult{}, err // integrity-tree violation
	}
	addr := layout.DataBlockAddr(req.PFN, req.Block)
	p := c.dataPage(req.PFN)
	if p == nil || !p.isPresent(req.Block) {
		// Never-written memory decrypts to zeros by convention.
		for i := range dst {
			dst[i] = 0
		}
		return res, nil
	}
	st := &p.blocks[req.Block]
	cnt := c.counters.Counter(req.PFN, req.Block)
	if got := c.engine.MAC(st.ct[:], addr, cnt); got != st.mac {
		c.TamperEvents.Inc()
		return AccessResult{}, &tree.IntegrityError{
			Class:    tree.ViolationMAC,
			Domain:   req.Domain,
			TreeLing: -1,
			Level:    -1,
			Node:     -1,
			Slot:     -1,
			Addr:     addr,
			Detail:   "stored MAC disagrees with recomputed MAC",
			Err:      ErrMACMismatch,
		}
	}
	c.engine.DecryptBlock(dst, st.ct[:], addr, cnt)
	return res, nil
}

// BlockSnapshot captures a block's complete off-chip state (ciphertext,
// MAC and counter block) for a later replay attack.
type BlockSnapshot struct {
	pfn     layout.PFN
	block   int
	st      blockState
	counter ctr.Block
}

// SnapshotBlock records the current off-chip state of (pfn, block).
func (c *Controller) SnapshotBlock(pfn layout.PFN, block int) (*BlockSnapshot, error) {
	p := c.dataPage(pfn)
	if p == nil || !p.isPresent(block) {
		addr := layout.DataBlockAddr(pfn, block)
		return nil, fmt.Errorf("%w: no data at %#x to snapshot", ErrNoTamperTarget, addr)
	}
	return &BlockSnapshot{pfn: pfn, block: block, st: p.blocks[block], counter: c.counters.Snapshot(pfn)}, nil
}

// ReplayBlock restores an old (ciphertext, MAC, counter) triple into
// off-chip memory — the classic replay attack. The stale triple is
// self-consistent, so the MAC check alone cannot catch it; only the
// integrity tree (whose root is on-chip) detects the stale counter.
func (c *Controller) ReplayBlock(s *BlockSnapshot) {
	p := c.ensureDataPage(s.pfn)
	p.blocks[s.block] = s.st
	p.setPresent(s.block)
	c.counters.Set(s.pfn, s.counter)
}
