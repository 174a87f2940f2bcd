// Package attack implements the MetaLeak-style metadata side channel of
// Section IV: a victim enclave runs square-and-multiply modular
// exponentiation whose per-bit function usage (sqr vs mul) touches two
// distinct data pages; the attacker owns pages engineered to share
// integrity-tree node blocks with the victim's pages and mounts an
// Evict+Reload attack on that shared metadata.
//
// Under the Baseline scheme (globally shared tree) the attacker's reload
// latency reveals whether the victim warmed the shared node, recovering
// the secret exponent. Under any IvLeague scheme no tree node is shared
// between domains, so the same procedure yields chance accuracy.
package attack

import (
	"slices"

	"ivleague/internal/config"
	"ivleague/internal/layout"
	"ivleague/internal/rng"
	"ivleague/internal/secmem"
)

// Config tunes the attack experiment.
type Config struct {
	// KeyBits is the secret exponent length (2048 in the paper's demo).
	KeyBits int
	// SharedLevel is the tree level at which attacker pages share a node
	// with victim pages (2 in the paper's demo).
	SharedLevel int
	// Samples per bit (the paper uses stepping/replay for noise-free
	// single traces; we take the majority of a few samples).
	Samples int
	Seed    uint64
}

// DefaultConfig mirrors the paper's demonstration parameters.
func DefaultConfig() Config {
	return Config{KeyBits: 2048, SharedLevel: 2, Samples: 1, Seed: 0xa77ac4}
}

// Result reports the attack outcome.
type Result struct {
	Scheme config.Scheme
	// Accuracy is the fraction of exponent bits recovered correctly.
	Accuracy float64
	// MeanLatencyHit/Miss are the attacker-observed reload latencies for
	// the two hypotheses (Figure 3's two latency bands).
	MeanLatencyHit  float64
	MeanLatencyMiss float64
	// SharedNodes reports whether any verification-path node block in
	// memory was shared between attacker and victim (the structural
	// vulnerability itself).
	SharedNodes bool
	// Trace holds the first attacker-observed latencies (Figure 3).
	Trace []int
}

// victim models the enclave running square-and-multiply: for each key bit
// it always touches the sqr page, and additionally the mul page when the
// bit is 1.
type victim struct {
	mem        *secmem.Controller
	domain     int
	sqrVPN     layout.VPN
	mulVPN     layout.VPN
	sqrPFN     layout.PFN
	mulPFN     layout.PFN
	key        []byte
	now        *uint64
	blockOfSqr int
	blockOfMul int
}

func (v *victim) processBit(bit byte) {
	// sqr runs for every bit.
	res, err := v.mem.Do(secmem.AccessRequest{
		Now: *v.now, Domain: v.domain, VPN: v.sqrVPN, PFN: v.sqrPFN, Block: v.blockOfSqr,
	})
	if err != nil {
		panic(err)
	}
	*v.now += uint64(res.Latency)
	if bit == 1 {
		res, err = v.mem.Do(secmem.AccessRequest{
			Now: *v.now, Domain: v.domain, VPN: v.mulVPN, PFN: v.mulPFN, Block: v.blockOfMul,
		})
		if err != nil {
			panic(err)
		}
		*v.now += uint64(res.Latency)
	}
}

// Run mounts the attack against a fresh machine running the given scheme
// and returns the recovery accuracy and timing statistics.
func Run(cfg *config.Config, scheme config.Scheme, acfg Config) (*Result, error) {
	mem, err := secmem.New(cfg, scheme, 8)
	if err != nil {
		return nil, err
	}
	const (
		victimDomain   = 1
		attackerDomain = 2
	)
	if err := mem.CreateDomain(victimDomain); err != nil {
		return nil, err
	}
	if err := mem.CreateDomain(attackerDomain); err != nil {
		return nil, err
	}
	lay := mem.Layout()
	now := uint64(0)

	// The victim's sqr and mul pages. Under Baseline, tree-path sharing is
	// determined by physical frame adjacency, so we pick victim frames
	// deterministically and give the attacker frames that share the
	// level-SharedLevel node (same index >> (arity bits × level)).
	arity := uint64(lay.Arity)
	span := uint64(1)
	for i := 0; i < acfg.SharedLevel; i++ {
		span *= arity
	}
	vLo, _ := mem.PartitionRange(victimDomain)
	aLo, aHi := mem.PartitionRange(attackerDomain)
	vSqrPFN := vLo + layout.PFN(span*4)
	vMulPFN := vLo + layout.PFN(span*8)
	// The attacker requests frames near the victim's (sharing the
	// level-SharedLevel node under a global tree) but in a different DRAM
	// row, so the only shared state is the integrity-tree metadata — the
	// channel under study (row-buffer channels are a separate, known
	// vector the paper's threat model handles with other defenses).
	rowPages := layout.PFN(uint64(cfg.DRAM.RowBytes) / config.PageBytes)
	if rowPages < 1 {
		rowPages = 1
	}
	aSqrPFN := vSqrPFN + rowPages
	aMulPFN := vMulPFN + rowPages
	if scheme == config.SchemeStaticPartition && (aSqrPFN < aLo || aMulPFN >= aHi) {
		aSqrPFN = aLo + layout.PFN(span*4) + rowPages
		aMulPFN = aLo + layout.PFN(span*8) + rowPages
	}

	mapPage := func(dom int, vpn layout.VPN, pfn layout.PFN) error {
		_, err := mem.OnPageMap(now, dom, vpn, pfn)
		return err
	}
	if err := mapPage(victimDomain, 0x100, vSqrPFN); err != nil {
		return nil, err
	}
	if err := mapPage(victimDomain, 0x101, vMulPFN); err != nil {
		return nil, err
	}
	if err := mapPage(attackerDomain, 0x200, aSqrPFN); err != nil {
		return nil, err
	}
	if err := mapPage(attackerDomain, 0x201, aMulPFN); err != nil {
		return nil, err
	}

	// Secret exponent.
	r := rng.New(acfg.Seed)
	key := make([]byte, acfg.KeyBits)
	for i := range key {
		key[i] = byte(r.Uint64() & 1)
	}
	v := &victim{
		mem: mem, domain: victimDomain,
		sqrVPN: 0x100, mulVPN: 0x101,
		sqrPFN: vSqrPFN, mulPFN: vMulPFN,
		key: key, now: &now,
	}

	res := &Result{Scheme: scheme}
	res.SharedNodes = sharesPathNode(mem, vSqrPFN, aSqrPFN)

	// The shared node block addresses the attacker targets (for Baseline;
	// under IvLeague these are simply the nodes on the attacker's own
	// path — there is nothing shared to target).
	sqrShared := sharedNodeAddr(mem, aSqrPFN, acfg.SharedLevel)
	mulShared := sharedNodeAddr(mem, aMulPFN, acfg.SharedLevel)

	probe := func(vpn layout.VPN, pfn layout.PFN, sharedAddr uint64) int {
		// ❶ Evict the shared node (and the attacker's own lower path +
		// counter, so the reload traverses up to the shared level).
		mem.EvictMetadata(sharedAddr)
		evictLowerPath(mem, pfn)
		// ❷ Reload: access own page; latency reveals whether the victim
		// re-warmed the shared node.
		res, err := mem.Do(secmem.AccessRequest{
			Now: now, Domain: attackerDomain, VPN: vpn, PFN: pfn,
		})
		if err != nil {
			panic(err)
		}
		now += uint64(res.Latency)
		return res.Latency
	}

	// Calibration: the attacker measures its own reload latency with the
	// shared node cold (no victim activity) and warm (touched through the
	// attacker's second page that shares it).
	calibrate := func() (cold, warm float64) {
		const rounds = 8
		var cSum, wSum float64
		for i := 0; i < rounds; i++ {
			mem.EvictMetadata(mulShared)
			evictLowerPath(mem, aMulPFN)
			cSum += float64(probe(0x201, aMulPFN, mulShared))
			// Warm the shared node via a preceding access, then reload.
			evictLowerPath(mem, aMulPFN)
			if res, err := mem.Do(secmem.AccessRequest{
				Now: now, Domain: attackerDomain, VPN: 0x201, PFN: aMulPFN, Block: 1,
			}); err == nil {
				now += uint64(res.Latency)
			}
			evictLowerPath(mem, aMulPFN)
			wSum += float64(probe2(mem, &now, attackerDomain, 0x201, aMulPFN))
		}
		return cSum / rounds, wSum / rounds
	}
	cold, warm := calibrate()
	threshold := (cold + warm) / 2

	var hitSum, hitN, missSum, missN float64
	correct := 0
	for _, bit := range key {
		// ❶ Prime: evict the shared node and the lower paths on both
		// sides (the paper's eviction of Ns and its child nodes).
		mem.EvictMetadata(sqrShared)
		mem.EvictMetadata(mulShared)
		evictLowerPath(mem, aSqrPFN)
		evictLowerPath(mem, aMulPFN)
		evictLowerPath(mem, vSqrPFN)
		evictLowerPath(mem, vMulPFN)

		// Victim processes one key bit.
		v.processBit(bit)

		// ❷ Reload the page sharing the mul node: a warm (fast) reload
		// means the victim executed mul, i.e. the bit was 1.
		latMul := probe2(mem, &now, attackerDomain, 0x201, aMulPFN)
		if len(res.Trace) < 64 {
			res.Trace = append(res.Trace, latMul)
		}
		guess := byte(0)
		if float64(latMul) < threshold {
			guess = 1
		}
		if guess == bit {
			correct++
		}
		if bit == 1 {
			hitSum += float64(latMul)
			hitN++
		} else {
			missSum += float64(latMul)
			missN++
		}
	}
	res.Accuracy = float64(correct) / float64(len(key))
	if hitN > 0 {
		res.MeanLatencyHit = hitSum / hitN
	}
	if missN > 0 {
		res.MeanLatencyMiss = missSum / missN
	}
	return res, nil
}

// probe2 reloads the attacker's page with its lower path evicted, so the
// verification walk reaches the (potentially shared) upper node.
func probe2(mem *secmem.Controller, now *uint64, domain int, vpn layout.VPN, pfn layout.PFN) int {
	evictLowerPath(mem, pfn)
	res, err := mem.Do(secmem.AccessRequest{Now: *now, Domain: domain, VPN: vpn, PFN: pfn})
	if err != nil {
		panic(err)
	}
	*now += uint64(res.Latency)
	return res.Latency
}

// mustAddr unwraps a layout address computation. The attack harness only
// asks about pages it mapped itself, so an address error is a harness bug.
func mustAddr(addr uint64, err error) uint64 {
	if err != nil {
		panic(err)
	}
	return addr
}

// mustPath returns pfn's verification path, bottom-up. The attack harness
// only asks about pages it mapped itself, so an error is a harness bug.
func mustPath(mem *secmem.Controller, pfn layout.PFN) []uint64 {
	path, err := mem.PathAddrs(pfn)
	if err != nil {
		panic(err)
	}
	return path
}

// sharedNodeAddr returns the address of the tree node at the given level
// on pfn's verification path, or of the path's top node if it is shorter.
func sharedNodeAddr(mem *secmem.Controller, pfn layout.PFN, level int) uint64 {
	path := mustPath(mem, pfn)
	return path[min(level, len(path))-1]
}

// evictLowerPath evicts pfn's counter block and the tree nodes below the
// shared level from the metadata caches, forcing the next access to
// traverse the tree upward.
func evictLowerPath(mem *secmem.Controller, pfn layout.PFN) {
	mem.CounterCache().Invalidate(mustAddr(mem.Layout().CounterBlockAddr(pfn)))
	if path := mustPath(mem, pfn); len(path) > 1 {
		mem.EvictMetadata(path[0])
	}
}

// sharesPathNode reports whether the two pages' verification paths contain
// a common node block address — the structural leakage condition.
func sharesPathNode(mem *secmem.Controller, pfnA, pfnB layout.PFN) bool {
	pathB := mustPath(mem, pfnB)
	return slices.ContainsFunc(mustPath(mem, pfnA), func(a uint64) bool { return slices.Contains(pathB, a) })
}
