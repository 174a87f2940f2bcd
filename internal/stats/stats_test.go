package stats

import (
	"math"
	"strings"
	"testing"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("got %d, want 5", c.Value())
	}
	c.Reset()
	if c.Value() != 0 {
		t.Fatal("reset failed")
	}
}

func TestRatio(t *testing.T) {
	if Ratio(1, 0) != 0 {
		t.Fatal("Ratio with zero denominator must be 0")
	}
	if got := Ratio(3, 4); got != 0.75 {
		t.Fatalf("got %v", got)
	}
}

func TestMean(t *testing.T) {
	var m Mean
	if m.Value() != 0 {
		t.Fatal("empty mean must be 0")
	}
	for _, v := range []float64{1, 2, 3, 4} {
		m.Observe(v)
	}
	if m.Value() != 2.5 || m.n != 4 || m.sum != 10 {
		t.Fatalf("mean=%v count=%d sum=%v", m.Value(), m.n, m.sum)
	}
}

func TestGmean(t *testing.T) {
	if Gmean(nil) != 0 {
		t.Fatal("empty gmean must be 0")
	}
	got := Gmean([]float64{1, 4})
	if math.Abs(got-2) > 1e-12 {
		t.Fatalf("gmean(1,4)=%v, want 2", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Gmean of non-positive did not panic")
		}
	}()
	Gmean([]float64{1, 0})
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(4)
	for _, v := range []int{0, 1, 1, 4, 9} {
		h.Observe(v)
	}
	if h.buckets[1] != 2 || h.over != 1 {
		t.Fatalf("buckets: %d %d", h.buckets[1], h.over)
	}
	if h.Count() != 5 {
		t.Fatalf("count %d", h.Count())
	}
	if got := h.Mean(); got != 3 {
		t.Fatalf("mean %v, want 3", got)
	}
}

func TestTableRendering(t *testing.T) {
	tb := &Table{Header: []string{"name", "v"}}
	tb.AddRow("x", "1.500")
	tb.AddRow("longer-name", "2")
	s := tb.String()
	if !strings.Contains(s, "longer-name") || !strings.Contains(s, "1.500") {
		t.Fatalf("table output missing content:\n%s", s)
	}
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 4 { // header, separator, two rows
		t.Fatalf("got %d lines", len(lines))
	}
}

func TestPercentile(t *testing.T) {
	vs := []float64{4, 1, 3, 2}
	if Percentile(vs, 0) != 1 || Percentile(vs, 100) != 4 {
		t.Fatal("extremes wrong")
	}
	if got := Percentile(vs, 50); got != 2.5 {
		t.Fatalf("median %v, want 2.5", got)
	}
	if Percentile(nil, 50) != 0 {
		t.Fatal("empty percentile must be 0")
	}
	// Input must not be mutated.
	if vs[0] != 4 {
		t.Fatal("Percentile mutated its input")
	}
}
