// Package analysis implements the paper's analytical and Monte-Carlo
// models: the number of TreeLings required under skewed memory
// distributions (Figure 21, with the #τ provisioning formula of Section
// VI-D2) and the scheduling success-rate comparison between static tree
// partitioning and IvLeague (Figure 22).
package analysis

import (
	"math"

	"ivleague/internal/config"
	"ivleague/internal/rng"
)

// MaxDomains is D, the number of IV domains a machine is provisioned for
// (Section VI-D2): 2^12, as in Figures 21 and 22.
const MaxDomains = 1 << 12

// RequiredTreeLings returns the number of TreeLings needed to host D
// domains whose memory footprints follow the skewness model of Section
// X-B: one domain holds skew×total bytes and the remaining D−1 domains
// split the rest evenly (at least one page each). Every domain consumes
// whole TreeLings.
func RequiredTreeLings(totalBytes uint64, domains int, treelingBytes uint64, skew float64) uint64 {
	if domains <= 0 || treelingBytes == 0 {
		panic("analysis: invalid arguments")
	}
	if skew < 0 || skew > 1 {
		panic("analysis: skew must be in [0,1]")
	}
	ceilDiv := func(a, b uint64) uint64 {
		if a == 0 {
			return 0
		}
		return (a + b - 1) / b
	}
	big := uint64(float64(totalBytes) * skew)
	if domains == 1 {
		return ceilDiv(totalBytes, treelingBytes)
	}
	rest := totalBytes - big
	per := rest / uint64(domains-1)
	if per < config.PageBytes {
		per = config.PageBytes
	}
	return ceilDiv(big, treelingBytes) + uint64(domains-1)*ceilDiv(per, treelingBytes)
}

// ProvisionedTreeLings is the worst-case provisioning formula of Section
// VI-D2: #τ = (D−1) + (M−(D−1)×4KB)/S.
func ProvisionedTreeLings(totalBytes uint64, maxDomains int, treelingBytes uint64) uint64 {
	reserved := uint64(maxDomains-1) * config.PageBytes
	if reserved > totalBytes {
		reserved = totalBytes
	}
	rem := totalBytes - reserved
	return uint64(maxDomains-1) + (rem+treelingBytes-1)/treelingBytes
}

// ScalabilityConfig parameterises the Figure 22 Monte-Carlo experiment.
type ScalabilityConfig struct {
	TreeLingBytes uint64  // coverage per TreeLing
	Utilization   float64 // Σ Mi as a fraction of total memory
	Domains       int
	MemoryBytes   uint64
	Trials        int
	Seed          uint64
}

// SuccessRates runs the Monte-Carlo scheduling experiment: random domain
// footprints summing to Utilization×Memory (exponentially skewed splits),
// checked against (a) static partitioning — every footprint must fit its
// M/D partition — and (b) IvLeague — the total TreeLing demand must not
// exceed the count Section VI-D2 provisions for the memory,
// ProvisionedTreeLings(MemoryBytes, MaxDomains, TreeLingBytes), which
// always covers it.
func SuccessRates(c ScalabilityConfig) (static, ivleague float64) {
	if c.Trials <= 0 {
		c.Trials = 500
	}
	provisioned := ProvisionedTreeLings(c.MemoryBytes, MaxDomains, c.TreeLingBytes)
	r := rng.New(c.Seed ^ uint64(c.Domains)<<32 ^ uint64(c.MemoryBytes>>20))
	partBytes := c.MemoryBytes / uint64(c.Domains)
	totalAlloc := float64(c.MemoryBytes) * c.Utilization
	okStatic, okIv := 0, 0
	weights := make([]float64, c.Domains)
	for trial := 0; trial < c.Trials; trial++ {
		// Exponentially distributed weights give naturally skewed splits.
		sum := 0.0
		for i := range weights {
			w := -math.Log(1 - r.Float64())
			weights[i] = w
			sum += w
		}
		staticOK := true
		var treelings uint64
		for _, w := range weights {
			mi := uint64(totalAlloc * w / sum)
			if mi < config.PageBytes {
				mi = config.PageBytes
			}
			if mi > partBytes {
				staticOK = false
			}
			treelings += (mi + c.TreeLingBytes - 1) / c.TreeLingBytes
		}
		if staticOK {
			okStatic++
		}
		if treelings <= provisioned {
			okIv++
		}
	}
	return float64(okStatic) / float64(c.Trials), float64(okIv) / float64(c.Trials)
}

// Fig22Point is one cell of the Figure 22 success-rate surfaces.
type Fig22Point struct {
	Utilization float64
	Domains     int
	MemoryGB    int
	Static      float64
	IvLeague    float64
}
