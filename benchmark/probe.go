package main

import "time"

// The host this benchmark was calibrated on is a 2-vCPU VM whose speed
// drifts with its neighbours' load: for stretches of seconds to minutes
// the simulator runs up to half again slower, and the drift shows in any
// code that misses the host's last-level cache. Repeating a run does not
// help when a slow stretch outlasts it. So every untraced run also samples
// a host probe — random reads over an array larger than this VM's share of
// the last-level cache — and reports host times scaled to the probe's
// reference speed. Measured on this host, the probe follows the
// simulator's slow stretches (correlation 0.8 to 0.9 over half-second to
// five-second blocks), reads the same under every workload's footprint,
// and a pure ALU loop does not follow them.
const (
	// probeWords is the probe array's size: 16 MiB of uint64.
	probeWords = 1 << 21
	// probeReads is how many random reads one probe sample times, about
	// 0.4 ms here.
	probeReads = 40_000
	// probeEvery is the probe's sampling period: below 2% of host time.
	probeEvery = 50 * time.Millisecond
	// probeRefNs is the reference speed host times are scaled to: the
	// probe's typical ns per read on the reference host when quiet. It is
	// a unit, fixed for good; host.probe_ns reports each run's own speed,
	// so raw times are the scaled ones × host.probe_ns / probeRefNs.
	probeRefNs = 10.0
)

// hostProbe is the host-speed probe.
type hostProbe struct {
	a    []uint64
	x    uint64 // xorshift state, carried across samples
	sink uint64 // keeps the reads live
}

func newHostProbe() *hostProbe {
	a := make([]uint64, probeWords)
	// Written so every page is backed: reads of untouched pages would all
	// hit the kernel's one zero page.
	for i := range a {
		a[i] = uint64(i)
	}
	return &hostProbe{a: a, x: 0x9e3779b97f4a7c15}
}

// sample returns the host ns per read of probeReads independent random
// reads.
func (h *hostProbe) sample() float64 {
	x, s := h.x, uint64(0)
	t0 := time.Now()
	for i := 0; i < probeReads; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		s += h.a[x&(probeWords-1)]
	}
	d := time.Since(t0)
	h.x, h.sink = x, h.sink+s
	return float64(d) / probeReads
}
