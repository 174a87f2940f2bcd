package sim

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"ivleague/internal/config"
	"ivleague/internal/trace"
)

func TestRecordAndReplay(t *testing.T) {
	cfg := quickCfg()
	cfg.Sim.WarmupInstr = 5_000
	cfg.Sim.MeasureInstr = 20_000
	mix := smallMix(t)

	// Record a run.
	m, err := NewMachine(&cfg, config.SchemeBaseline, mix, 0)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w := m.RecordTrace(&buf)
	res := m.Run()
	if res.Failed {
		t.Fatal(res.FailMsg)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Count() == 0 {
		t.Fatal("no records captured")
	}

	// Replay the same accesses under a different scheme.
	rep, err := ReplayMix(&cfg, config.SchemeIvLeaguePro, mix, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed {
		t.Fatal(rep.FailMsg)
	}
	if rep.MemAccesses == 0 || rep.Verification == 0 {
		t.Fatal("replay produced no memory traffic")
	}
	if rep.Utilization < 0.99 {
		t.Fatalf("replay utilization %v", rep.Utilization)
	}
}

func TestReplayDeterminism(t *testing.T) {
	cfg := quickCfg()
	cfg.Sim.WarmupInstr = 2_000
	cfg.Sim.MeasureInstr = 10_000
	mix := smallMix(t)
	m, _ := NewMachine(&cfg, config.SchemeBaseline, mix, 0)
	var buf bytes.Buffer
	w := m.RecordTrace(&buf)
	m.Run()
	w.Flush()
	raw := buf.Bytes()

	a, err := ReplayMix(&cfg, config.SchemeIvLeagueBasic, mix, bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	b, err := ReplayMix(&cfg, config.SchemeIvLeagueBasic, mix, bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if a.MemAccesses != b.MemAccesses || a.Verification != b.Verification {
		t.Fatal("replay not deterministic")
	}
}

func TestReplayEmptyTraceFails(t *testing.T) {
	cfg := quickCfg()
	var buf bytes.Buffer
	m, _ := NewMachine(&cfg, config.SchemeBaseline, smallMix(t), 0)
	w := m.RecordTrace(&buf)
	w.Flush() // header only, no records
	if _, err := ReplayMix(&cfg, config.SchemeBaseline, smallMix(t), &buf); err == nil {
		t.Fatal("empty trace accepted")
	}
}

func TestReplayBadMagicFails(t *testing.T) {
	cfg := quickCfg()
	junk := bytes.NewReader([]byte("notatrace-at-all"))
	if _, err := ReplayMix(&cfg, config.SchemeBaseline, smallMix(t), junk); err == nil {
		t.Fatal("non-trace bytes accepted")
	}
}

func TestReplayTruncatedTraceFails(t *testing.T) {
	cfg := quickCfg()
	cfg.Sim.WarmupInstr = 1_000
	cfg.Sim.MeasureInstr = 4_000
	mix := smallMix(t)
	m, _ := NewMachine(&cfg, config.SchemeBaseline, mix, 0)
	var buf bytes.Buffer
	w := m.RecordTrace(&buf)
	m.Run()
	w.Flush()
	raw := buf.Bytes()
	// Cut mid-record: a varint delta loses its tail.
	cut := raw[:len(raw)-1]
	if _, err := ReplayMix(&cfg, config.SchemeBaseline, mix, bytes.NewReader(cut)); err == nil {
		t.Fatal("truncated trace accepted")
	}
}

// TestReplayDetectsMidTraceTamper drives a recorded trace into a
// functional machine and corrupts the integrity tree mid-replay: the run
// must come back as a tamper, not an error and not a silent completion.
func TestReplayDetectsMidTraceTamper(t *testing.T) {
	cfg := quickCfg()
	cfg.Sim.WarmupInstr = 2_000
	cfg.Sim.MeasureInstr = 10_000
	mix := smallMix(t)
	m, _ := NewMachine(&cfg, config.SchemeBaseline, mix, 0)
	var buf bytes.Buffer
	w := m.RecordTrace(&buf)
	m.Run()
	w.Flush()

	tampered := false
	hook := WithOpHook(func(rm *Machine, op uint64) error {
		if tampered || op < 500 {
			return nil
		}
		c := rm.Mem()
		lay := c.Layout()
		// Corrupt the leaf tree slot of every mapped page, so whichever
		// page the trace touches next fails its verification walk.
		for _, p := range c.MappedPages() {
			c.GlobalTree().Corrupt(1, lay.GlobalNodeIndex(p.PFN, 1), int(uint64(p.PFN)%uint64(lay.Arity)), 0xdead)
		}
		c.FlushMetadata()
		tampered = true
		return nil
	})
	rep, err := ReplayMix(&cfg, config.SchemeBaseline, mix, &buf, WithFunctionalMem(), hook)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Failed || !rep.Tampered {
		t.Fatalf("mid-trace tamper not surfaced: failed=%v tampered=%v", rep.Failed, rep.Tampered)
	}
	if !strings.Contains(rep.FailMsg, "integrity") {
		t.Fatalf("tamper failure lacks the integrity class: %q", rep.FailMsg)
	}
}

// TestReplayCrashBounds pins the op-hook boundary cases on the replay
// path: a crash at op 0 kills the run before any access; a crash op past
// the trace never fires and the replay completes.
func TestReplayCrashBounds(t *testing.T) {
	cfg := quickCfg()
	cfg.Sim.WarmupInstr = 1_000
	cfg.Sim.MeasureInstr = 4_000
	mix := smallMix(t)
	m, _ := NewMachine(&cfg, config.SchemeBaseline, mix, 0)
	var buf bytes.Buffer
	w := m.RecordTrace(&buf)
	m.Run()
	w.Flush()
	raw := buf.Bytes()

	crash := func(k uint64) MachineOption {
		return WithOpHook(func(rm *Machine, op uint64) error {
			if op >= k {
				return ErrCrashInjected
			}
			return nil
		})
	}
	rep, err := ReplayMix(&cfg, config.SchemeBaseline, mix, bytes.NewReader(raw), crash(0))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Failed || rep.Tampered {
		t.Fatalf("crash at op 0: failed=%v tampered=%v", rep.Failed, rep.Tampered)
	}
	rep, err = ReplayMix(&cfg, config.SchemeBaseline, mix, bytes.NewReader(raw), crash(1<<40))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed {
		t.Fatalf("crash op beyond the trace killed the replay: %s", rep.FailMsg)
	}
}

// TestReplayRejectsMalformedRecords crafts traces whose second record the
// machine cannot replay as recorded. Each must come back as an error
// naming the field: a block past the page would read another frame, a
// thread the mix lacks would be dropped, and a VPN wider than 36 bits
// would alias a narrower one. The largest valid values replay cleanly.
func TestReplayRejectsMalformedRecords(t *testing.T) {
	cfg := quickCfg()
	mix := smallMix(t)
	m, err := NewMachine(&cfg, config.SchemeBaseline, mix, 0)
	if err != nil {
		t.Fatal(err)
	}
	threads := len(m.threads)
	// craft writes the trace as raw bytes, since the writer refuses the
	// bad records: the magic, then per record its thread, flags and block
	// bytes and the varint VPN delta from the thread's previous record.
	craft := func(rec trace.Record) *bytes.Buffer {
		buf := bytes.NewBufferString("ivtrace1")
		last := map[int]uint64{}
		for _, r := range []trace.Record{{Thread: 0, VPN: 5, Block: 3}, rec} {
			flags := byte(0)
			if r.Write {
				flags = 1
			}
			buf.Write([]byte{byte(r.Thread), flags, r.Block})
			buf.Write(binary.AppendVarint(nil, int64(r.VPN-last[r.Thread])))
			last[r.Thread] = r.VPN
		}
		return buf
	}
	for _, tc := range []struct {
		rec  trace.Record
		want string
	}{
		{trace.Record{Thread: 0, VPN: 5, Block: 64}, "block 64"},
		{trace.Record{Thread: 0, VPN: 5, Block: 255}, "block 255"},
		{trace.Record{Thread: threads, VPN: 5}, fmt.Sprintf("thread %d", threads)},
		{trace.Record{Thread: 255, VPN: 5}, "thread 255"},
		{trace.Record{Thread: 0, VPN: 1<<36 + 5}, "vpn 0x1000000005"},
	} {
		_, err := ReplayMix(&cfg, config.SchemeBaseline, mix, craft(tc.rec))
		if err == nil || !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), "record 1") {
			t.Errorf("replay of %+v: err = %v; want an error for record 1 naming %q", tc.rec, err, tc.want)
		}
	}
	rec := trace.Record{Thread: threads - 1, VPN: 1<<36 - 1, Block: 63, Write: true}
	rep, err := ReplayMix(&cfg, config.SchemeBaseline, mix, craft(rec))
	if err != nil {
		t.Fatalf("replay of %+v: %v", rec, err)
	}
	if rep.Failed {
		t.Fatalf("replay of %+v failed: %s", rec, rep.FailMsg)
	}
}
