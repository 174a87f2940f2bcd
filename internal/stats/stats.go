// Package stats provides the light-weight statistics primitives used by the
// simulator: named counters, ratio helpers, running means, histograms, the
// geometric mean the paper's figures report, and the text-table formatter.
package stats

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
)

// SortedKeys returns m's keys in ascending order. Go randomizes map
// iteration order, so any loop whose effects can reach simulation state or
// an emitted table must iterate over a sorted key slice instead; this
// helper is the canonical way to do it (the determinism contract is
// enforced by cmd/ivlint).
func SortedKeys[M ~map[K]V, K cmp.Ordered, V any](m M) []K {
	keys := make([]K, 0, len(m))
	//ivlint:allow determinism — keys are sorted before any consumer sees them
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// Counter is a simple monotonically increasing event counter.
type Counter struct {
	n uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.n++ }

// Add adds delta.
func (c *Counter) Add(delta uint64) { c.n += delta }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n }

// Reset zeroes the counter.
func (c *Counter) Reset() { c.n = 0 }

// Ratio returns a/b, or 0 when b is zero.
func Ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// Mean accumulates a running arithmetic mean.
type Mean struct {
	sum float64
	n   uint64
}

// Observe records one sample.
func (m *Mean) Observe(v float64) {
	m.sum += v
	m.n++
}

// Value returns the mean of all samples, or 0 if none were recorded.
func (m *Mean) Value() float64 {
	if m.n == 0 {
		return 0
	}
	return m.sum / float64(m.n)
}

// Gmean returns the geometric mean of vs. Zero or negative entries are
// rejected with a panic since they indicate a logic error upstream (figure
// aggregation never legitimately produces them). Empty input returns 0.
func Gmean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	logSum := 0.0
	for _, v := range vs {
		if v <= 0 {
			panic(fmt.Sprintf("stats: Gmean of non-positive value %v", v))
		}
		logSum += math.Log(v)
	}
	return math.Exp(logSum / float64(len(vs)))
}

// Histogram is a fixed-bucket histogram over non-negative integer samples.
type Histogram struct {
	buckets []uint64
	over    uint64
	sum     uint64
	n       uint64
}

// NewHistogram creates a histogram with buckets [0..max]; samples above max
// are accumulated in an overflow bucket.
func NewHistogram(max int) *Histogram {
	return &Histogram{buckets: make([]uint64, max+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v int) {
	if v < 0 {
		v = 0
	}
	if v < len(h.buckets) {
		h.buckets[v]++
	} else {
		h.over++
	}
	h.sum += uint64(v)
	h.n++
}

// Mean returns the arithmetic mean of all samples.
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// Count returns the total number of samples.
func (h *Histogram) Count() uint64 { return h.n }

// Quantile returns the smallest sample value v such that at least p (in
// [0,1]) of all samples are <= v. When the quantile falls into the
// overflow bucket the result is max+1 (one past the largest tracked
// value), signalling "beyond the histogram's range". Empty histograms
// return 0.
func (h *Histogram) Quantile(p float64) int {
	if h.n == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	need := uint64(math.Ceil(p * float64(h.n)))
	if need == 0 {
		need = 1
	}
	cum := uint64(0)
	for v, c := range h.buckets {
		cum += c
		if cum >= need {
			return v
		}
	}
	return len(h.buckets) // overflow bucket
}

// Table renders rows of labeled float columns as an aligned text table;
// it is the shared formatter for cmd/ivbench figure output.
type Table struct {
	Header []string
	Rows   [][]string
}

// AddRow appends a row of pre-formatted cells.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i >= len(widths) {
				widths = append(widths, len(c))
			} else if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	if len(t.Header) > 0 {
		writeRow(t.Header)
		sep := make([]string, len(t.Header))
		for i := range sep {
			sep[i] = strings.Repeat("-", widths[i])
		}
		writeRow(sep)
	}
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// Percentile returns the p-th percentile (0..100) of vs using linear
// interpolation; vs is copied and sorted. Empty input returns 0.
func Percentile(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}
