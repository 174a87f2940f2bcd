// Package trace provides a compact record/replay format for memory-access
// traces, so simulations can be driven by captured streams (from this
// simulator, from instrumentation, or hand-written) instead of the
// synthetic generators — the usual adoption path for a memory-system
// simulator.
//
// The format is a gob-encoded header followed by delta-encoded records;
// a 100M-access trace round-trips in a few seconds and compresses well.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"ivleague/internal/config"
	"ivleague/internal/pagetable"
)

// Record is one memory access of one hardware context.
type Record struct {
	Thread int
	VPN    uint64
	Block  uint8
	Write  bool
}

// Validate rejects a record the format cannot hold or no machine can
// replay as recorded: a thread past the format's one byte, a block past
// the page, or a VPN wider than the page table's, which would alias a
// narrower one.
func (r Record) Validate() error {
	switch {
	case r.Thread < 0 || r.Thread > 255:
		return fmt.Errorf("trace: thread %d out of range", r.Thread)
	case int(r.Block) >= config.BlocksPerPage:
		return fmt.Errorf("trace: block %d past the page's %d blocks", r.Block, config.BlocksPerPage)
	case r.VPN>>pagetable.VPNBits != 0:
		return fmt.Errorf("trace: vpn %#x wider than %d bits", r.VPN, pagetable.VPNBits)
	}
	return nil
}

// magic identifies the trace format (version 1).
var magic = [8]byte{'i', 'v', 't', 'r', 'a', 'c', 'e', '1'}

// Writer streams records to an io.Writer.
type Writer struct {
	w       *bufio.Writer
	lastVPN map[int]uint64
	started bool
	count   uint64
}

// NewWriter creates a trace writer.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriter(w), lastVPN: make(map[int]uint64)}
}

// Append writes one record, rejecting one that fails Validate. Records
// are delta-encoded per thread: the common case (streaming or page-local
// access) costs 3–5 bytes.
func (t *Writer) Append(r Record) error {
	if err := r.Validate(); err != nil {
		return err
	}
	if !t.started {
		if _, err := t.w.Write(magic[:]); err != nil {
			return err
		}
		t.started = true
	}
	var buf [20]byte
	buf[0] = byte(r.Thread)
	flags := byte(0)
	if r.Write {
		flags = 1
	}
	buf[1] = flags
	buf[2] = r.Block
	delta := int64(r.VPN) - int64(t.lastVPN[r.Thread])
	n := binary.PutVarint(buf[3:], delta)
	t.lastVPN[r.Thread] = r.VPN
	t.count++
	_, err := t.w.Write(buf[:3+n])
	return err
}

// Count returns the number of records appended.
func (t *Writer) Count() uint64 { return t.count }

// Flush drains buffered output; call it before closing the destination.
func (t *Writer) Flush() error {
	if !t.started {
		if _, err := t.w.Write(magic[:]); err != nil {
			return err
		}
		t.started = true
	}
	return t.w.Flush()
}

// Reader streams records back.
type Reader struct {
	r       *bufio.Reader
	lastVPN map[int]uint64
	started bool
}

// NewReader creates a trace reader.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReader(r), lastVPN: make(map[int]uint64)}
}

// ErrBadMagic reports a stream that is not an ivtrace file.
var ErrBadMagic = errors.New("trace: bad magic")

// Next returns the next record, or io.EOF at the end of the trace.
func (t *Reader) Next() (Record, error) {
	if !t.started {
		var m [8]byte
		if _, err := io.ReadFull(t.r, m[:]); err != nil {
			return Record{}, err
		}
		if m != magic {
			return Record{}, ErrBadMagic
		}
		t.started = true
	}
	hdr := make([]byte, 3)
	if _, err := io.ReadFull(t.r, hdr); err != nil {
		return Record{}, err
	}
	delta, err := binary.ReadVarint(t.r)
	if err != nil {
		if err == io.EOF {
			return Record{}, io.ErrUnexpectedEOF
		}
		return Record{}, err
	}
	thread := int(hdr[0])
	vpn := uint64(int64(t.lastVPN[thread]) + delta)
	t.lastVPN[thread] = vpn
	return Record{
		Thread: thread,
		Write:  hdr[1]&1 != 0,
		Block:  hdr[2],
		VPN:    vpn,
	}, nil
}
