package stats

import (
	"math"
	"testing"
)

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram(20)
	for v := 1; v <= 100; v++ {
		h.Observe(v % 10) // uniform over 0..9
	}
	cases := []struct {
		p    float64
		want int
	}{
		{0, 0},
		{0.10, 0},
		{0.25, 2},
		{0.50, 4},
		{0.90, 8},
		{1.0, 9},
	}
	for _, c := range cases {
		if got := h.Quantile(c.p); got != c.want {
			t.Errorf("Quantile(%v) = %d, want %d", c.p, got, c.want)
		}
	}
}

func TestHistogramQuantileEdges(t *testing.T) {
	h := NewHistogram(8)
	if got := h.Quantile(0.5); got != 0 {
		t.Fatalf("empty histogram Quantile = %d, want 0", got)
	}
	h.Observe(3)
	// Out-of-range p is clamped.
	if got := h.Quantile(-1); got != 3 {
		t.Fatalf("Quantile(-1) = %d, want 3", got)
	}
	if got := h.Quantile(2); got != 3 {
		t.Fatalf("Quantile(2) = %d, want 3", got)
	}
}

func TestHistogramQuantileOverflow(t *testing.T) {
	h := NewHistogram(4) // buckets 0..4, overflow above
	h.Observe(1)
	h.Observe(100)
	h.Observe(200)
	// 2 of 3 samples overflowed: the median and above land in overflow,
	// reported as max+1 since their exact value is not retained.
	if got := h.Quantile(0.5); got != 5 {
		t.Fatalf("overflow Quantile(0.5) = %d, want 5 (max+1)", got)
	}
	if got := h.Quantile(0.1); got != 1 {
		t.Fatalf("Quantile(0.1) = %d, want 1", got)
	}
	if got := h.over; got != 2 {
		t.Fatalf("overflow bucket = %d, want 2", got)
	}
	// Mean still uses the true observed values.
	if want := (1.0 + 100 + 200) / 3; math.Abs(h.Mean()-want) > 1e-12 {
		t.Fatalf("Mean = %v, want %v", h.Mean(), want)
	}
}
