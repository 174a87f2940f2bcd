// Package sweep is the crash-safe, resumable sweep engine behind the
// figure harness: every simulation cell — one (mix, scheme) run, one
// alone run, one Figure-22 Monte-Carlo point — is keyed by a sha256
// fingerprint of its complete inputs and its result is persisted to a
// content-addressed on-disk cache the moment it completes, via atomic
// write-temp-then-rename. A sweep killed at any point (SIGKILL included)
// and restarted against the same cache directory emits byte-identical
// tables to an uninterrupted run, re-simulating only the cells whose
// entries are missing. The engine additionally contains per-cell faults:
// a configurable timeout, bounded retry with backoff for transient I/O on
// cache writes, and a failure budget under which persistently failing
// cells are journaled and rendered as degraded table entries instead of
// aborting the whole sweep. An engine without a cache directory keeps
// only that containment, so it is how every figure cell runs, cached or
// not.
//
// The shape follows treefmt's content-addressed eval cache (walk/cache):
// fingerprint → object file, with the fingerprint covering everything the
// result depends on, so "is this cell done?" is a pure lookup.
package sweep

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// Version names the cell-result schema and simulator semantics this
// package writes and trusts. It participates in every fingerprint and is
// stored in every cache envelope, so bumping it (required whenever a
// change makes old results non-reproducible — new Result fields, changed
// simulation semantics, changed canonical config encoding) atomically
// invalidates every stale entry: old objects decode to version mismatches
// and are treated as misses.
const Version = "ivleague-sweep-v3"

// CellKey identifies one sweep cell. Two cells with equal fingerprints
// must be guaranteed to produce identical payloads; everything a cell's
// result depends on therefore belongs in the key.
type CellKey struct {
	// Kind is the cell class: "alone", "mix", or "fig22".
	Kind string
	// Scheme is the secure-memory scheme label ("" when not applicable).
	Scheme string
	// Unit is the simulated unit: benchmark name, mix name, or grid-point
	// label.
	Unit string
	// Extra carries remaining inputs not covered by Config — trial
	// counts, derived seed labels. Labels that do not change the result
	// (a figure tag) stay out, so equal cells share one entry.
	Extra string
	// Config is the cell's complete configuration; it is canonically
	// encoded (deterministic JSON: struct fields in declaration order, no
	// maps) into the fingerprint. Typically a *config.Config.
	Config any
}

// Fingerprint returns the cell's content address: a sha256 over the
// schema version and every key field, each length-prefixed so field
// boundaries cannot alias ("ab"+"c" vs "a"+"bc").
func (k CellKey) Fingerprint() (string, error) {
	cfg, err := json.Marshal(k.Config)
	if err != nil {
		return "", fmt.Errorf("sweep: fingerprint %s/%s: config not encodable: %w", k.Kind, k.Unit, err)
	}
	h := sha256.New()
	for _, field := range [][]byte{
		[]byte(Version), []byte(k.Kind), []byte(k.Scheme), []byte(k.Unit), []byte(k.Extra), cfg,
	} {
		var n [8]byte
		binary.LittleEndian.PutUint64(n[:], uint64(len(field)))
		h.Write(n[:])
		h.Write(field)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// Label renders the key for journals and progress lines.
func (k CellKey) Label() string {
	s := k.Kind
	if k.Extra != "" {
		s += "[" + k.Extra + "]"
	}
	if k.Unit != "" {
		s += " " + k.Unit
	}
	if k.Scheme != "" {
		s += " " + k.Scheme
	}
	return s
}
