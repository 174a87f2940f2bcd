package modelcheck

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"ivleague/internal/config"
)

// This file implements the replayable counterexample format. A script is
// plain text: a header fixing the machine bounds, then one line per
// operation. ivcheck writes one when a violation is found and replays one
// with -replay, so a counterexample from an overnight sweep reproduces
// anywhere, deterministically.
//
//	# ivcheck counterexample
//	scheme invert
//	domains 2
//	vpns 3
//	frames 4
//	treelings 2
//	burst 10
//	fault nfl-set
//	create 1
//	map 1 0
//	map 1 1

func schemeToken(s config.Scheme) string {
	switch s {
	case config.SchemeIvLeagueBasic:
		return "basic"
	case config.SchemeIvLeagueInvert:
		return "invert"
	case config.SchemeIvLeaguePro:
		return "pro"
	default:
		return strings.ToLower(s.String())
	}
}

// FormatScript renders a trace and the options that scope it as a
// replayable script.
func FormatScript(opts Options, t Trace) string {
	opts = opts.withDefaults()
	var b strings.Builder
	b.WriteString("# ivcheck counterexample\n")
	fmt.Fprintf(&b, "scheme %s\n", schemeToken(opts.Scheme))
	fmt.Fprintf(&b, "domains %d\n", opts.Domains)
	fmt.Fprintf(&b, "vpns %d\n", opts.VPNs)
	fmt.Fprintf(&b, "frames %d\n", opts.Frames)
	fmt.Fprintf(&b, "treelings %d\n", opts.TreeLings)
	fmt.Fprintf(&b, "burst %d\n", opts.Burst)
	if opts.Fault != "" {
		fmt.Fprintf(&b, "fault %s\n", opts.Fault)
	}
	for _, op := range t {
		b.WriteString(op.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// ParseScript reads a script back into the options and trace it encodes.
func ParseScript(r io.Reader) (Options, Trace, error) {
	var opts Options
	var t Trace
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		f := strings.Fields(text)
		fail := func(msg string) (Options, Trace, error) {
			return Options{}, nil, fmt.Errorf("modelcheck: script line %d: %s: %q", line, msg, text)
		}
		switch f[0] {
		case "scheme":
			if len(f) != 2 {
				return fail("want 'scheme <name>'")
			}
			s, err := config.ParseScheme(f[1])
			if err == nil {
				err = CheckScheme(s)
			}
			if err != nil {
				return Options{}, nil, err
			}
			opts.Scheme = s
		case "domains", "vpns", "frames", "treelings", "burst":
			if len(f) != 2 {
				return fail("want one integer argument")
			}
			n, err := strconv.ParseUint(f[1], 10, 32)
			if err != nil {
				return fail("bad integer")
			}
			switch f[0] {
			case "domains":
				opts.Domains = int(n)
			case "vpns":
				opts.VPNs = n
			case "frames":
				opts.Frames = n
			case "treelings":
				opts.TreeLings = int(n)
			case "burst":
				opts.Burst = int(n)
			}
		case "fault":
			if len(f) != 2 || (f[1] != FaultNFLSet && f[1] != FaultLMM) {
				return fail("want 'fault nfl-set' or 'fault lmm'")
			}
			opts.Fault = f[1]
		case "create", "destroy", "map", "unmap", "write", "read":
			op, err := parseOp(f)
			if err != nil {
				return fail(err.Error())
			}
			t = append(t, op)
		default:
			return fail("unknown directive")
		}
	}
	if err := sc.Err(); err != nil {
		return Options{}, nil, err
	}
	return opts.withDefaults(), t, nil
}

func parseOp(f []string) (Op, error) {
	var kind OpKind
	wantArgs := 3
	switch f[0] {
	case "create":
		kind, wantArgs = OpCreate, 2
	case "destroy":
		kind, wantArgs = OpDestroy, 2
	case "map":
		kind = OpMap
	case "unmap":
		kind = OpUnmap
	case "write":
		kind = OpWrite
	case "read":
		kind = OpRead
	}
	if len(f) != wantArgs {
		return Op{}, fmt.Errorf("want %d fields", wantArgs)
	}
	d, err := strconv.Atoi(f[1])
	if err != nil {
		return Op{}, fmt.Errorf("bad domain %q", f[1])
	}
	op := Op{Kind: kind, Domain: d}
	if wantArgs == 3 {
		v, err := strconv.ParseUint(f[2], 10, 64)
		if err != nil {
			return Op{}, fmt.Errorf("bad vpn %q", f[2])
		}
		op.VPN = v
	}
	return op, nil
}
