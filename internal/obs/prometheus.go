// Package obs is the performance-observability plane: it turns the
// telemetry layer's pull-based metrics into consumable surfaces — a live
// HTTP control server (/metrics in Prometheus text exposition, /progress
// as JSON from the sweep ledger, /healthz, net/http/pprof), and the
// in-process benchmark harness behind cmd/ivperf that records the repo's
// BENCH_*.json performance trajectory.
//
// Nothing in this package reaches simulation state: every surface reads
// snapshots (telemetry.Snapshot, sweep.ProgressReport) that the owning
// goroutine publishes, so attaching the plane to a run cannot perturb
// its results.
package obs

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"ivleague/internal/stats"
	"ivleague/internal/telemetry"
)

// WritePrometheus renders a telemetry snapshot in the Prometheus text
// exposition format (version 0.0.4): one family per metric, counters
// first, then gauges, each block sorted by name — so identical snapshots
// render byte-identically (the golden-test contract).
//
// Metric names are sanitized ('.' and every other non-[a-zA-Z0-9_:] byte
// become '_'); the run phase is attached as a constant label on the
// synthetic ivleague_phase gauge rather than on every series, keeping
// series identities stable across the warmup boundary.
func WritePrometheus(w io.Writer, snap telemetry.Snapshot) error {
	if snap.Phase != "" {
		if _, err := fmt.Fprintf(w, "# HELP ivleague_phase run phase marker (1 = current)\n# TYPE ivleague_phase gauge\nivleague_phase{phase=%q} 1\n", snap.Phase); err != nil {
			return err
		}
	}
	for _, name := range stats.SortedKeys(snap.Counters) {
		san := SanitizeMetricName(name)
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", san, san, snap.Counters[name]); err != nil {
			return err
		}
	}
	for _, name := range stats.SortedKeys(snap.Gauges) {
		san := SanitizeMetricName(name)
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %s\n", san, san, formatFloat(snap.Gauges[name])); err != nil {
			return err
		}
	}
	return nil
}

// formatFloat renders a gauge value the way Prometheus parsers expect:
// shortest round-trip decimal, with NaN/±Inf spelled out.
func formatFloat(v float64) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case math.IsInf(v, +1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// SanitizeMetricName maps a registry metric name ("secmem.dram.reads")
// onto the Prometheus name grammar [a-zA-Z_:][a-zA-Z0-9_:]*; every
// out-of-grammar byte becomes '_'. The mapping is deterministic (the
// exposition stays stable) but not injective — the registry's own
// duplicate-registration panic keeps source names unique.
func SanitizeMetricName(name string) string {
	var b strings.Builder
	b.Grow(len(name))
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			b.WriteByte(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	if b.Len() == 0 {
		return "_"
	}
	return b.String()
}
