package attack

import (
	"ivleague/internal/config"
	"ivleague/internal/layout"
	"ivleague/internal/secmem"
)

// PrimeProbeResult reports the conflict-based (Prime+Probe) attack on the
// integrity-tree metadata cache — the classical side channel of Section
// VIII that the baseline already mitigates with MIRAGE-style randomized
// caches, orthogonal to the metadata-sharing channel IvLeague closes.
type PrimeProbeResult struct {
	Randomized bool
	Accuracy   float64
}

// PrimeProbe mounts a conflict attack: the attacker owns pages whose
// level-1 tree nodes collide (in a set-indexed cache) with the victim's
// node, primes the set, lets the victim process one key bit, and probes
// for evictions. With direct set indexing the conflict set is easy to
// build and the channel works; with randomized indexing the attacker
// cannot target the victim's set and the channel collapses — which is
// why the paper's baseline integrates a randomized cache and why
// IvLeague addresses the *sharing* channel instead.
func PrimeProbe(cfg *config.Config, randomized bool, keyBits int, seed uint64) (*PrimeProbeResult, error) {
	c := *cfg
	c.SecureMem.TreeCache.Randomized = randomized
	mem, err := secmem.New(&c, config.SchemeBaseline, 8)
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

	// Victim pages: sqr touched every bit, mul only for 1-bits.
	vSqr, vMul := layout.PFN(64), layout.PFN(8192)
	for i, pfn := range []layout.PFN{vSqr, vMul} {
		if _, err := mem.OnPageMap(now, victimDomain, layout.VPN(0x100+i), pfn); err != nil {
			return nil, err
		}
	}
	// The set of the victim's mul leaf node in the tree cache.
	tc := mem.TreeCache().Config()
	sets := uint64(tc.Sets())
	targetSet := (mustPath(mem, vMul)[0] >> 6) % sets

	// Build the eviction set: attacker pages whose level-1 nodes map (in
	// a direct-indexed cache) to the victim's set. The attacker computes
	// this from public address geometry (a global-tree path is fixed by
	// the frame); with randomized indexing the same pages scatter over
	// unknown sets. One candidate per leaf node: its first page.
	var probePages []layout.PFN
	vpn := layout.VPN(0x200)
	for pfn := layout.PFN(0); len(probePages) < tc.Ways; pfn += layout.PFN(lay.Arity) {
		if (mustPath(mem, pfn)[0]>>6)%sets != targetSet || pfn == vMul || pfn == vSqr {
			continue
		}
		if _, err := mem.OnPageMap(now, attackerDomain, vpn, pfn); err != nil {
			return nil, err
		}
		probePages = append(probePages, pfn)
		vpn++
	}

	access := func(dom int, vpn layout.VPN, pfn layout.PFN) int {
		// Force the walk: evict the page's counter so verification runs.
		mem.CounterCache().Invalidate(mustAddr(lay.CounterBlockAddr(pfn)))
		res, err := mem.Do(secmem.AccessRequest{Now: now, Domain: dom, VPN: vpn, PFN: pfn})
		if err != nil {
			panic(err)
		}
		now += uint64(res.Latency)
		return res.Latency
	}
	prime := func() int {
		total := 0
		for i, pfn := range probePages {
			total += access(attackerDomain, layout.VPN(0x200+i), pfn)
		}
		return total
	}
	// Probe in reverse order so the probe itself does not evict the lines
	// it is about to measure (the classic Prime+Probe refinement).
	probe := func() int {
		total := 0
		for i := len(probePages) - 1; i >= 0; i-- {
			total += access(attackerDomain, layout.VPN(0x200+i), probePages[i])
		}
		return total
	}

	// Secret key.
	key := make([]byte, keyBits)
	r := seed
	for i := range key {
		r = r*6364136223846793005 + 1442695040888963407
		key[i] = byte(r >> 63)
	}

	// Calibrate: probe latency with and without a victim mul access.
	calib := func(withVictim bool) float64 {
		const rounds = 6
		sum := 0
		for i := 0; i < rounds; i++ {
			prime()
			if withVictim {
				access(victimDomain, 0x101, vMul)
			}
			sum += probe()
		}
		return float64(sum) / rounds
	}
	quiet := calib(false)
	noisy := calib(true)
	threshold := (quiet + noisy) / 2

	correct := 0
	for _, bit := range key {
		prime()
		access(victimDomain, 0x100, vSqr)
		if bit == 1 {
			access(victimDomain, 0x101, vMul)
		}
		probeLat := float64(probe())
		guess := byte(0)
		if noisy > quiet && probeLat > threshold {
			guess = 1
		} else if noisy < quiet && probeLat < threshold {
			guess = 1
		}
		if guess == bit {
			correct++
		}
	}
	return &PrimeProbeResult{
		Randomized: randomized,
		Accuracy:   float64(correct) / float64(len(key)),
	}, nil
}
