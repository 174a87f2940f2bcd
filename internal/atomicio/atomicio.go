// Package atomicio provides crash-safe file writes: every artifact the
// tools persist (result tables, traces, profiles, cache entries,
// counterexample scripts) is written to a unique temporary file in the
// destination directory, synced, and then renamed into place. A reader
// therefore sees either the complete previous version or the complete new
// version — never a truncated file — no matter where a crash, SIGKILL or
// power loss lands. This is the same write-temp-then-rename discipline the
// Phoenix-style persisted images use inside the simulator, lifted to the
// host filesystem.
package atomicio

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// WriteFile writes data to path atomically with the given permissions.
// On any error the destination is left untouched (either absent or holding
// its previous contents) and the temporary file is removed.
func WriteFile(path string, data []byte, perm os.FileMode) error {
	f, err := Create(path)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Abort()
		return err
	}
	if err := f.file.Chmod(perm); err != nil {
		f.Abort()
		return fmt.Errorf("atomicio: chmod %s: %w", path, err)
	}
	return f.Commit()
}

// File is a writer whose contents appear at the target path only when
// Commit is called. Until then all bytes go to a uniquely named temporary
// file in the same directory (so the final rename cannot cross a
// filesystem boundary). Concurrent writers of the same target are safe:
// each owns its own temporary file and the last Commit wins atomically.
type File struct {
	file *os.File
	path string // final destination
	tmp  string // temporary file currently holding the bytes
	done bool   // Commit or Abort already ran
}

var _ io.Writer = (*File)(nil)

// Create opens an atomic writer targeting path.
func Create(path string) (*File, error) {
	dir, base := filepath.Split(path)
	if dir == "" {
		dir = "."
	}
	f, err := os.CreateTemp(dir, base+".tmp-*")
	if err != nil {
		return nil, fmt.Errorf("atomicio: create %s: %w", path, err)
	}
	return &File{file: f, path: path, tmp: f.Name()}, nil
}

// Write appends to the (still invisible) temporary file.
func (f *File) Write(p []byte) (int, error) {
	return f.file.Write(p)
}

// Commit syncs the temporary file and renames it over the destination.
// After Commit the File must not be written to again.
func (f *File) Commit() error {
	if f.done {
		return fmt.Errorf("atomicio: %s already committed or aborted", f.path)
	}
	f.done = true
	// Sync before rename: the rename must never become visible ahead of
	// the data it names (a post-crash entry with stale content would be
	// worse than a missing one).
	if err := f.file.Sync(); err != nil {
		f.file.Close()
		os.Remove(f.tmp)
		return fmt.Errorf("atomicio: sync %s: %w", f.path, err)
	}
	if err := f.file.Close(); err != nil {
		os.Remove(f.tmp)
		return fmt.Errorf("atomicio: close %s: %w", f.path, err)
	}
	if err := os.Rename(f.tmp, f.path); err != nil {
		os.Remove(f.tmp)
		return fmt.Errorf("atomicio: rename %s: %w", f.path, err)
	}
	return nil
}

// Abort discards the temporary file, leaving the destination untouched.
// Safe to call multiple times and after a failed Commit; a no-op after a
// successful one.
func (f *File) Abort() {
	if f.done {
		return
	}
	f.done = true
	f.file.Close()
	os.Remove(f.tmp)
}
