package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"ivleague/internal/atomicio"
)

// Cache is the content-addressed on-disk result store. Objects live at
// <dir>/objects/<fp[:2]>/<fp>.json and are written atomically, so the
// store never contains a torn entry: after any crash an object is either
// fully present or absent. The cache is safe for concurrent use by the
// sweep worker pool (writers never share a temporary file and readers
// only see committed objects) and even by independent sweep processes
// sharing a directory — equal fingerprints imply equal payloads, so a
// racing last-write-wins rename is benign.
type Cache struct {
	dir string

	// retries/backoff bound the transient-I/O retry loop on writes.
	retries int
	backoff time.Duration

	// writeFile is the (injectable, for tests) atomic write primitive.
	writeFile func(path string, data []byte, perm os.FileMode) error
	// sleep is the (injectable) backoff wait.
	sleep func(time.Duration)
}

// OpenCache creates/opens a cache rooted at dir.
func OpenCache(dir string) (*Cache, error) {
	if err := os.MkdirAll(filepath.Join(dir, "objects"), 0o755); err != nil {
		return nil, fmt.Errorf("sweep: open cache: %w", err)
	}
	return &Cache{
		dir:       dir,
		retries:   3,
		backoff:   10 * time.Millisecond,
		writeFile: atomicio.WriteFile,
		sleep:     time.Sleep,
	}, nil
}

// objectPath returns the content address of a fingerprint.
func (c *Cache) objectPath(fp string) string {
	shard := fp
	if len(shard) > 2 {
		shard = shard[:2]
	}
	return filepath.Join(c.dir, "objects", shard, fp+".json")
}

// Len counts the committed objects in the cache (test/report helper).
func (c *Cache) Len() int {
	n := 0
	filepath.WalkDir(filepath.Join(c.dir, "objects"), func(path string, d os.DirEntry, err error) error {
		if err == nil && d != nil && !d.IsDir() && filepath.Ext(path) == ".json" {
			n++
		}
		return nil
	})
	return n
}

// entry is the on-disk envelope around one cell result. Everything needed
// to distrust the entry travels with it: the schema version, the
// fingerprint it claims to answer, and a checksum of the payload bytes.
type entry struct {
	Version     string          `json:"version"`
	Fingerprint string          `json:"fingerprint"`
	Kind        string          `json:"kind"`
	Label       string          `json:"label"`
	Checksum    string          `json:"checksum"` // sha256 of Payload
	Payload     json.RawMessage `json:"payload"`
}

// decodeEntry validates data as a cache entry for fingerprint fp and
// unmarshals its payload into dst. Any defect — malformed JSON, version
// or fingerprint mismatch, checksum mismatch, undecodable payload — is an
// error; callers treat every error as a cache miss, never as trusted
// partial data.
func decodeEntry(fp string, data []byte, dst any) error {
	var e entry
	if err := json.Unmarshal(data, &e); err != nil {
		return fmt.Errorf("sweep: cache entry malformed: %w", err)
	}
	if e.Version != Version {
		return fmt.Errorf("sweep: cache entry version %q, want %q", e.Version, Version)
	}
	if e.Fingerprint != fp {
		return fmt.Errorf("sweep: cache entry fingerprint mismatch")
	}
	sum := sha256.Sum256(e.Payload)
	if e.Checksum != hex.EncodeToString(sum[:]) {
		return fmt.Errorf("sweep: cache entry checksum mismatch")
	}
	if err := json.Unmarshal(e.Payload, dst); err != nil {
		return fmt.Errorf("sweep: cache payload undecodable: %w", err)
	}
	return nil
}

// encodeEntry builds the on-disk bytes for (fp, payload).
func encodeEntry(fp string, key CellKey, payload any) ([]byte, error) {
	raw, err := json.Marshal(payload)
	if err != nil {
		return nil, fmt.Errorf("sweep: cell %s payload not encodable: %w", key.Label(), err)
	}
	sum := sha256.Sum256(raw)
	// Compact on purpose: indentation would reformat the raw payload bytes
	// and break the checksum-over-stored-bytes invariant.
	return json.Marshal(entry{
		Version:     Version,
		Fingerprint: fp,
		Kind:        key.Kind,
		Label:       key.Label(),
		Checksum:    hex.EncodeToString(sum[:]),
		Payload:     raw,
	})
}

// Get looks up fp and decodes its payload into dst. The first return
// value reports a usable hit; corrupt reports that an object existed but
// failed validation (it is removed so the re-simulated result can replace
// it). A missing object is simply (false, false).
func (c *Cache) Get(fp string, dst any) (hit, corrupt bool) {
	path := c.objectPath(fp)
	data, err := os.ReadFile(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return false, false
		}
		// Unreadable counts as corrupt: something is there we cannot trust.
		return false, true
	}
	if err := decodeEntry(fp, data, dst); err != nil {
		// Never trust a partial or stale entry; drop it and re-simulate.
		os.Remove(path)
		return false, true
	}
	return true, false
}

// Put persists payload under fp, retrying transient I/O failures with
// exponential backoff. It returns the number of retries spent and the
// final error (nil on success). The write is atomic: concurrent or
// crashed writers can never produce a torn object.
func (c *Cache) Put(fp string, key CellKey, payload any) (retries int, err error) {
	data, err := encodeEntry(fp, key, payload)
	if err != nil {
		return 0, err
	}
	path := c.objectPath(fp)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, fmt.Errorf("sweep: cache put: %w", err)
	}
	delay := c.backoff
	for attempt := 0; ; attempt++ {
		err = c.writeFile(path, data, 0o644)
		if err == nil || attempt >= c.retries {
			return attempt, err
		}
		c.sleep(delay)
		delay *= 2
	}
}
