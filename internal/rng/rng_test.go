package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(7), New(7)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/100 equal values", same)
	}
}

func TestForkIndependence(t *testing.T) {
	parent := New(3)
	child := parent.Fork(1)
	ref := New(3)
	// Forking must not perturb the parent stream.
	for i := 0; i < 100; i++ {
		if parent.Uint64() != ref.Uint64() {
			t.Fatalf("fork perturbed parent at %d", i)
		}
	}
	// Different labels give different children.
	c2 := New(3).Fork(2)
	if child.Uint64() == c2.Uint64() {
		t.Fatal("fork labels 1 and 2 produced identical streams")
	}
}

func TestUint64nBounds(t *testing.T) {
	r := New(11)
	for _, n := range []uint64{1, 2, 3, 7, 100, 1 << 40} {
		for i := 0; i < 200; i++ {
			if v := r.Uint64n(n); v >= n {
				t.Fatalf("Uint64n(%d) = %d", n, v)
			}
		}
	}
}

func TestUint64nUniform(t *testing.T) {
	r := New(5)
	const n, trials = 10, 100000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[r.Uint64n(n)]++
	}
	want := trials / n
	for i, c := range counts {
		if c < want*9/10 || c > want*11/10 {
			t.Fatalf("bucket %d has %d, want ~%d", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(13)
	sum := 0.0
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
		sum += v
	}
	if mean := sum / 10000; math.Abs(mean-0.5) > 0.02 {
		t.Fatalf("Float64 mean %v, want ~0.5", mean)
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestPermIsPermutation(t *testing.T) {
	r := New(17)
	p := r.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("bad permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestZipfSkew(t *testing.T) {
	r := New(19)
	z := NewZipf(1000, 0.99)
	counts := make(map[uint64]int)
	const trials = 50000
	for i := 0; i < trials; i++ {
		v := z.Next(r)
		if v >= 1000 {
			t.Fatalf("Zipf out of range: %d", v)
		}
		counts[v]++
	}
	// Rank 0 must dominate rank 100 heavily under theta=0.99.
	if counts[0] < 10*counts[100]+1 {
		t.Fatalf("Zipf not skewed: c0=%d c100=%d", counts[0], counts[100])
	}
}

func TestZipfLargeRange(t *testing.T) {
	r := New(23)
	z := NewZipf(1<<22, 0.8) // millions of pages, as in Large workloads
	for i := 0; i < 1000; i++ {
		if v := z.Next(r); v >= 1<<22 {
			t.Fatalf("Zipf out of range: %d", v)
		}
	}
}

func TestZipfThetaNearAndAboveOne(t *testing.T) {
	// Regression: alpha = 1/(1-theta) used to divide by zero at theta == 1
	// and the Gray inversion was invalid for theta >= 1. All three skews
	// must sample in range, be finite, and skew monotonically toward 0.
	const n, trials = 1000, 50000
	p0 := make(map[float64]float64)
	for _, theta := range []float64{0.99, 1.0, 1.2} {
		r := New(31)
		z := NewZipf(n, theta)
		counts := make([]int, n)
		for i := 0; i < trials; i++ {
			v := z.Next(r)
			if v >= n {
				t.Fatalf("theta=%v: Zipf out of range: %d", theta, v)
			}
			counts[v]++
		}
		if counts[0] < 10*counts[100]+1 {
			t.Fatalf("theta=%v not skewed: c0=%d c100=%d", theta, counts[0], counts[100])
		}
		p0[theta] = float64(counts[0]) / trials
	}
	if !(p0[0.99] < p0[1.0] && p0[1.0] < p0[1.2]) {
		t.Fatalf("P(0) not monotonic in theta: %v", p0)
	}
}

func TestZipfThetaOneLargeRange(t *testing.T) {
	// theta == 1 with n beyond the zeta cutoff exercises the logarithmic
	// integral-tail inversion.
	r := New(37)
	z := NewZipf(1<<22, 1.0)
	sawTail := false
	for i := 0; i < 20000; i++ {
		v := z.Next(r)
		if v >= 1<<22 {
			t.Fatalf("Zipf out of range: %d", v)
		}
		if v >= zetaCutoff {
			sawTail = true
		}
	}
	if !sawTail {
		t.Fatal("tail inversion never produced a value past the cutoff")
	}
}

func TestZipfThetaValidation(t *testing.T) {
	for _, theta := range []float64{0, -0.5, 5.1, math.NaN()} {
		theta := theta
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewZipf(10, %v) did not panic", theta)
				}
			}()
			NewZipf(10, theta)
		}()
	}
	// Boundary value 5 is legal.
	NewZipf(10, 5)
}

func TestForkLabelDeterministicAndDistinct(t *testing.T) {
	if ForkLabel(42, "alone/gcc") != ForkLabel(42, "alone/gcc") {
		t.Fatal("ForkLabel not deterministic")
	}
	if ForkLabel(42, "alone/gcc") == ForkLabel(42, "alone/mcf") {
		t.Fatal("different labels collided")
	}
	if ForkLabel(42, "alone/gcc") == ForkLabel(43, "alone/gcc") {
		t.Fatal("different seeds collided")
	}
	// ForkString must not perturb the parent stream.
	parent, ref := New(3), New(3)
	child := parent.ForkString("w1")
	for i := 0; i < 100; i++ {
		if parent.Uint64() != ref.Uint64() {
			t.Fatalf("ForkString perturbed parent at %d", i)
		}
	}
	if child.Uint64() == New(3).ForkString("w2").Uint64() {
		t.Fatal("ForkString labels w1 and w2 produced identical streams")
	}
}

func TestUint64nPropertyInRange(t *testing.T) {
	r := New(29)
	f := func(n uint64) bool {
		if n == 0 {
			n = 1
		}
		return r.Uint64n(n) < n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestUint64nGolden pins the first draws of Uint64n and Intn, recorded
// before Uint64n moved from a hand-written 128-bit multiply to bits.Mul64:
// every simulated result depends on these streams. The n above 2^63 make
// Lemire's rejection loop run, which the test confirms by counting the
// extra Uint64 draws.
func TestUint64nGolden(t *testing.T) {
	for _, tc := range []struct {
		n    uint64
		want []uint64
		// rejects: the draws include at least one rejected sample.
		rejects bool
	}{
		{0x1, []uint64{0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0}, false},
		{0x2, []uint64{0x0, 0x0, 0x1, 0x1, 0x1, 0x1, 0x1, 0x1}, false},
		{0x3, []uint64{0x0, 0x1, 0x2, 0x2, 0x2, 0x2, 0x2, 0x2}, false},
		{0xa, []uint64{0x0, 0x3, 0x6, 0x9, 0x9, 0x7, 0x7, 0x8}, false},
		{0x3e8, []uint64{0x53, 0x17a, 0x2a8, 0x39c, 0x3df, 0x301, 0x2cf, 0x352}, false},
		{0x10000000f, []uint64{0x15780b2f, 0x6104d98c, 0xae17533c, 0xecb8ad54, 0xfde6dc8e, 0xc50da53c, 0xb8215490, 0xd99a2750}, false},
		{0x7fffffffffffffe7, []uint64{0xabc059706176388, 0x30826cc336889d35, 0x570ba9991cf24cbf, 0x765c56a381d9b039, 0x7ef36e3ff1762f19, 0x6286d29880bca908, 0x5c10aa42ad32eec7, 0x6ccd13a1f5f3002e}, false},
		{0x8000000000000001, []uint64{0x7ef36e3ff1762f32, 0x6286d29880bca91c, 0x5c10aa42ad32eed9, 0x6174b739374bb23f, 0x2534edcc39d7c4b2, 0x6687f6d49803635b, 0x705aad345cb33bfd, 0x6cfa59aa761c226a}, true},
		{0xc000000000000000, []uint64{0x101a086289231550, 0x48c3a324d1ccebde, 0x82917e65ab6b7338, 0xb18a81f542c68878, 0x8a18ff6403cc6645, 0xa3339d72f0ec8065, 0x922f12d5d2f18b5e, 0x7000c9079987cd2d}, true},
		{0xffffffffffffffff, []uint64{0x15780b2e0c2ec715, 0x6104d9866d113a7d, 0xae17533239e499a0, 0xecb8ad4703b360a0, 0xfde6dc7fe2ec5e63, 0xc50da53101795237, 0xb82154855a65ddb1, 0xd99a2743ebe60086}, false},
	} {
		r, draws := New(42), New(42)
		rejected := 0
		for i, want := range tc.want {
			if got := r.Uint64n(tc.n); got != want {
				t.Fatalf("Uint64n(%#x) draw %d = %#x, want %#x", tc.n, i, got, want)
			}
			// Advance a twin source one Uint64 per draw, plus one per
			// rejected sample, until it catches up.
			draws.Uint64()
			for draws.s != r.s {
				draws.Uint64()
				rejected++
			}
		}
		if (rejected > 0) != tc.rejects {
			t.Fatalf("Uint64n(%#x): %d rejected samples, want rejections: %t", tc.n, rejected, tc.rejects)
		}
	}
	for _, tc := range []struct {
		n    int
		want []int
	}{
		{1, []int{0, 0, 0, 0, 0, 0, 0, 0}},
		{5, []int{2, 4, 3, 0, 0, 1, 4, 0}},
		{100, []int{56, 95, 67, 7, 16, 28, 81, 7}},
		{2147483647, []int{1211357769, 2060216210, 1450018636, 164253550, 349759322, 609660649, 1742741072, 166618788}},
	} {
		r := New(43)
		for i, want := range tc.want {
			if got := r.Intn(tc.n); got != want {
				t.Fatalf("Intn(%d) draw %d = %d, want %d", tc.n, i, got, want)
			}
		}
	}
}
