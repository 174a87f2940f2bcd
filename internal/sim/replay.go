package sim

import (
	"fmt"
	"io"

	"ivleague/internal/config"
	"ivleague/internal/trace"
	"ivleague/internal/workload"
)

// replaySource feeds one thread its recorded memory accesses. Replayed
// streams contain memory operations only (non-memory instructions are not
// recorded), so replay runs are used for metadata/behaviour studies, not
// absolute IPC.
type replaySource struct {
	events []workload.Event
	pos    int
}

// Next implements EventSource; the source idles (non-memory events) once
// drained so a fixed-length Run terminates.
func (r *replaySource) Next() workload.Event {
	if r.pos >= len(r.events) {
		return workload.Event{}
	}
	ev := r.events[r.pos]
	r.pos++
	return ev
}

// InitInstr implements EventSource: replay has no init sweep.
func (r *replaySource) InitInstr() uint64 { return 0 }

// checkRecord rejects a record the machine cannot replay as recorded: a
// thread the mix does not have, or a record that fails Validate.
func checkRecord(rec trace.Record, threads int) error {
	if rec.Thread >= threads {
		return fmt.Errorf("thread %d, but the mix has %d threads", rec.Thread, threads)
	}
	return rec.Validate()
}

// ReplayMix builds a machine for the mix (processes, domains, caches) but
// drives its threads from a recorded trace instead of the synthetic
// generators. The trace must have been recorded from a machine with the
// same thread layout (same mix). Options (functional memory, op hooks)
// apply to the replaying machine, so recorded traces can drive the
// fault-injection and crash harnesses too.
func ReplayMix(cfg *config.Config, scheme config.Scheme, mix workload.Mix, r io.Reader, opts ...MachineOption) (Result, error) {
	m, err := NewMachine(cfg, scheme, mix, 0, opts...)
	if err != nil {
		return Result{}, err
	}
	perThread := make(map[int][]workload.Event)
	tr := trace.NewReader(r)
	total := uint64(0)
	for {
		rec, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return Result{}, fmt.Errorf("sim: replay: %w", err)
		}
		if err := checkRecord(rec, len(m.threads)); err != nil {
			return Result{}, fmt.Errorf("sim: replay: record %d of mix %s: %w", total, mix.Name, err)
		}
		perThread[rec.Thread] = append(perThread[rec.Thread], workload.Event{
			Mem:   true,
			Write: rec.Write,
			VPN:   rec.VPN,
			Block: int(rec.Block),
		})
		total++
	}
	if total == 0 {
		return Result{}, fmt.Errorf("sim: replay: empty trace")
	}
	maxLen := uint64(0)
	for i, t := range m.threads {
		src := &replaySource{events: perThread[i]}
		t.gen = src
		if n := uint64(len(src.events)); n > maxLen {
			maxLen = n
		}
	}
	// Size the run to the trace: no warmup reset mid-trace (callers study
	// whole-trace behaviour), measured length covers the longest stream.
	c := *cfg
	c.Sim.WarmupInstr = 0
	c.Sim.MeasureInstr = maxLen
	m.cfg = c
	return m.Run(), nil
}
