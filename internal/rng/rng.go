// Package rng provides a small, fast, deterministic pseudo-random number
// generator used throughout the simulator. Every stochastic component takes
// an explicit *rng.Source so that simulation runs are exactly reproducible
// from a seed, independent of Go version or math/rand internals.
package rng

import (
	"fmt"
	"math"
	"math/bits"
)

// Source is a xoshiro256** generator seeded via splitmix64.
// The zero value is not valid; use New.
type Source struct {
	s [4]uint64
}

// New returns a Source seeded deterministically from seed.
func New(seed uint64) *Source {
	r := &Source{}
	sm := seed
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	return r
}

// Fork derives an independent child generator. The child's stream is a
// deterministic function of the parent state and the label, and forking
// does not perturb the parent stream.
func (r *Source) Fork(label uint64) *Source {
	return New(r.s[0] ^ r.s[2]*0x9e3779b97f4a7c15 ^ label*0xd1342543de82ef95)
}

// ForkLabel derives a child seed from a parent seed and a string label
// (FNV-1a over the label, finalized with a splitmix64 round). Two labels
// produce uncorrelated seeds, and the result does not depend on any
// evaluation order — the parallel figure engine uses it to give every run
// an isolated stream identified only by what the run *is*.
func ForkLabel(seed uint64, label string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 0x100000001b3
	}
	z := seed ^ h
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// ForkString is Fork with a string label: an independent child whose
// stream is a deterministic function of the parent state and the label.
func (r *Source) ForkString(label string) *Source {
	return r.Fork(ForkLabel(0, label))
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Source) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Uint64n returns a uniform value in [0, n). n must be > 0.
func (r *Source) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with n == 0")
	}
	// Lemire's multiply-shift rejection method.
	hi, lo := bits.Mul64(r.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(r.Uint64(), n)
		}
	}
	return hi
}

// Intn returns a uniform int in [0, n). n must be > 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with n <= 0")
	}
	return int(r.Uint64n(uint64(n)))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *Source) Bool(p float64) bool {
	return r.Float64() < p
}

// Perm returns a random permutation of [0, n).
func (r *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Zipf draws from a Zipf distribution over [0, n) with exponent theta.
// theta must be in (0, 5]. Larger theta skews more strongly toward 0.
// theta < 1 uses the Gray et al. quick inversion; theta >= 1 — where that
// approximation's alpha = 1/(1-theta) degenerates — inverts the harmonic
// CDF directly (prefix sums up to the zeta cutoff, integral tail beyond).
type Zipf struct {
	n     uint64
	theta float64
	// alpha/eta precomputation following Gray et al. quick Zipf generation.
	alpha, zetan, eta float64
	// prefix[k] = Σ_{i=1..k} i^-theta, only materialized for theta >= 1.
	prefix []float64
}

// NewZipf builds a Zipf sampler over [0, n) with skew theta in (0, 5]
// (0 < theta < 1 means mild skew; classic value 0.99).
func NewZipf(n uint64, theta float64) *Zipf {
	if n == 0 {
		panic("rng: NewZipf with n == 0")
	}
	if !(theta > 0 && theta <= 5) {
		panic(fmt.Sprintf("rng: NewZipf theta %v outside (0, 5]", theta))
	}
	z := &Zipf{n: n, theta: theta}
	z.zetan = zeta(n, theta)
	if theta < 1 {
		z.alpha = 1.0 / (1.0 - theta)
		z.eta = (1 - math.Pow(2.0/float64(n), 1-theta)) / (1 - zeta(2, theta)/z.zetan)
		return z
	}
	m := n
	if m > zetaCutoff {
		m = zetaCutoff
	}
	z.prefix = make([]float64, m+1)
	sum := 0.0
	for i := uint64(1); i <= m; i++ {
		sum += 1 / math.Pow(float64(i), theta)
		z.prefix[i] = sum
	}
	return z
}

// zetaCutoff bounds the exact term of the generalized-harmonic sums so that
// constructing a sampler over millions of pages stays O(cutoff).
const zetaCutoff = 10000

func zeta(n uint64, theta float64) float64 {
	// Exact up to the cutoff, then Euler-Maclaurin tail approximation.
	sum := 0.0
	m := n
	if m > zetaCutoff {
		m = zetaCutoff
	}
	for i := uint64(1); i <= m; i++ {
		sum += 1 / math.Pow(float64(i), theta)
	}
	if n > zetaCutoff {
		// Integral tail: ∫_{cutoff}^{n} x^-theta dx.
		if theta == 1 {
			sum += math.Log(float64(n) / float64(zetaCutoff))
		} else {
			sum += (math.Pow(float64(n), 1-theta) - math.Pow(float64(zetaCutoff), 1-theta)) / (1 - theta)
		}
	}
	return sum
}

// Next draws the next Zipf value in [0, n).
func (z *Zipf) Next(r *Source) uint64 {
	u := r.Float64()
	uz := u * z.zetan
	if uz < 1.0 {
		return 0
	}
	if z.theta >= 1 {
		return z.invertHarmonic(uz)
	}
	if uz < 1.0+math.Pow(0.5, z.theta) {
		return 1
	}
	v := uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if v >= z.n {
		v = z.n - 1
	}
	return v
}

// invertHarmonic finds the smallest rank k with H_theta(k) >= uz and
// returns the value k-1: binary search over the exact prefix sums, then the
// analytically inverted integral tail beyond the cutoff (matching the tail
// zeta uses, so the CDF is consistent end to end).
func (z *Zipf) invertHarmonic(uz float64) uint64 {
	last := uint64(len(z.prefix) - 1)
	if uz <= z.prefix[last] {
		lo, hi := uint64(1), last
		for lo < hi {
			mid := (lo + hi) / 2
			if z.prefix[mid] >= uz {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		return lo - 1
	}
	hc := z.prefix[last]
	c := float64(last)
	var k float64
	if z.theta == 1 {
		k = c * math.Exp(uz-hc)
	} else {
		k = math.Pow((uz-hc)*(1-z.theta)+math.Pow(c, 1-z.theta), 1/(1-z.theta))
	}
	v := uint64(k)
	if v < last {
		v = last
	}
	if v >= z.n {
		v = z.n - 1
	}
	return v
}
