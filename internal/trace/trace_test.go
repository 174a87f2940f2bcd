package trace

import (
	"bytes"
	"io"
	"strings"
	"testing"
	"testing/quick"
)

// readAll drains the trace into a slice.
func readAll(r io.Reader) ([]Record, error) {
	tr := NewReader(r)
	var out []Record
	for {
		rec, err := tr.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, rec)
	}
}

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	recs := []Record{
		{Thread: 0, VPN: 100, Block: 3, Write: false},
		{Thread: 0, VPN: 101, Block: 0, Write: true},
		{Thread: 1, VPN: 5000, Block: 63, Write: false},
		{Thread: 0, VPN: 99, Block: 1, Write: false}, // negative delta
	}
	for _, r := range recs {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != 4 {
		t.Fatalf("count %d", w.Count())
	}
	got, err := readAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("got %d records", len(got))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Fatalf("record %d: %+v != %+v", i, got[i], recs[i])
		}
	}
}

func TestEmptyTrace(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := readAll(&buf)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty trace: %v %d", err, len(got))
	}
}

func TestBadMagic(t *testing.T) {
	r := NewReader(bytes.NewReader([]byte("not-a-trace-file")))
	if _, err := r.Next(); err != ErrBadMagic {
		t.Fatalf("got %v", err)
	}
}

func TestTruncatedTrace(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Append(Record{Thread: 0, VPN: 1})
	w.Flush()
	raw := buf.Bytes()[:buf.Len()-1]
	_, err := readAll(bytes.NewReader(raw))
	if err == nil {
		t.Fatal("truncated trace read successfully")
	}
}

func TestThreadRangeRejected(t *testing.T) {
	w := NewWriter(io.Discard)
	if err := w.Append(Record{Thread: 256}); err == nil {
		t.Fatal("thread 256 accepted")
	}
}

// TestAppendRejectsUnreplayableRecords: the writer refuses what replay
// would refuse (a block past the page, a VPN of 36 bits or more), writes
// nothing for it, and keeps the largest valid values.
func TestAppendRejectsUnreplayableRecords(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, tc := range []struct {
		rec  Record
		want string
	}{
		{Record{Block: 64}, "block 64"},
		{Record{Block: 255}, "block 255"},
		{Record{VPN: 1<<36 + 5}, "vpn 0x1000000005"},
		{Record{VPN: 1 << 63}, "vpn 0x8000000000000000"},
	} {
		if err := w.Append(tc.rec); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Append(%+v) = %v, want an error naming %q", tc.rec, err, tc.want)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != 0 || buf.Len() != len(magic) {
		t.Fatalf("rejected records were written: count %d, %d bytes", w.Count(), buf.Len())
	}
	edge := Record{Thread: 255, VPN: 1<<36 - 1, Block: 63, Write: true}
	if err := w.Append(edge); err != nil {
		t.Fatalf("Append(%+v): %v", edge, err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := readAll(&buf)
	if err != nil || len(got) != 1 || got[0] != edge {
		t.Fatalf("read back %+v, %v; want [%+v]", got, err, edge)
	}
}

func TestCompactness(t *testing.T) {
	// Sequential same-thread accesses must average well under 8 bytes.
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i := 0; i < 1000; i++ {
		w.Append(Record{Thread: 0, VPN: uint64(i), Block: uint8(i % 64)})
	}
	w.Flush()
	if per := float64(buf.Len()) / 1000; per > 5 {
		t.Fatalf("%.1f bytes/record, want ≤ 5", per)
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(vpns []uint32, writes []bool) bool {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		var want []Record
		for i, v := range vpns {
			r := Record{
				Thread: i % 4,
				VPN:    uint64(v),
				Block:  uint8(i % 64),
				Write:  i < len(writes) && writes[i],
			}
			want = append(want, r)
			if err := w.Append(r); err != nil {
				return false
			}
		}
		if err := w.Flush(); err != nil {
			return false
		}
		got, err := readAll(&buf)
		if err != nil || len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
