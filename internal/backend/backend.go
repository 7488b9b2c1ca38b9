// Package backend implements the pluggable storage substrates of the
// provenance store (DESIGN.md "Store backends & mounts"). The store's write
// model is deliberately tiny — whole-file reads and writes of named segment
// files inside one logical directory — which lets the same Store, hash-chain,
// verification, and recovery code run against very different substrates:
//
//   - Dir: a POSIX directory (the paper's "directory on the PFS"), writing
//     atomically via temp file + rename.
//   - Mem: an in-memory namespace, for tests and the hot tier of a mounted
//     store.
//   - Archive: a single-file append-friendly container (.pvs) packing every
//     segment and chain head of a store into one file — the compacted
//     history tier.
//   - Mount: an overlay that routes writes across tiers (hot deltas vs
//     compacted history) so one logical store spans backends.
//
// The package imports neither internal/core nor internal/faultfs: both alias
// Storage (core.StoreBackend, faultfs.Backend), so faultfs can decorate any
// of these types while remaining importable from core itself.
package backend

import (
	"io/fs"
)

// Storage is one provenance-store substrate: a flat namespace of files
// grouped under directories, addressed by slash-separated paths.
//
// Contract:
//   - WriteFile replaces the whole file; whether the replacement is atomic
//     is advertised by CapAtomicWrite. It keeps no reference to data after
//     it returns: the caller may overwrite the buffer, as the store does
//     with the pooled buffer it builds and seals each file in.
//   - ReadFile and Stat report a missing file with an error satisfying
//     errors.Is(err, fs.ErrNotExist).
//   - List returns the sorted file names (not paths) directly inside dir,
//     erroring if the directory was never created.
//   - Remove fails if the file does not exist.
type Storage interface {
	MkdirAll(dir string) error
	WriteFile(path string, data []byte) error
	ReadFile(path string) ([]byte, error)
	// List returns the file names (not paths) inside dir, sorted.
	List(dir string) ([]string, error)
	Remove(path string) error
	// Stat returns the file's size in bytes.
	Stat(path string) (int64, error)
	// Caps advertises the backend's capability flags (Cap* bits).
	Caps() uint32
}

// Capability flags reported by Storage.Caps. The store itself runs on any
// combination — capabilities inform recovery expectations (an atomic backend
// never produces torn store files on its own; the crash sweep's torn
// variants model the others) and tooling output.
const (
	// CapAtomicWrite: WriteFile is all-or-nothing — via rename (Dir), a
	// CRC-framed journal append (Archive), or trivially (Mem). A crash can
	// lose the write but never expose a torn file.
	CapAtomicWrite uint32 = 1 << iota
	// CapPersistent: data survives process exit.
	CapPersistent
	// CapArchive: the whole namespace lives inside one container file.
	CapArchive
)

// CapsString renders capability bits for tooling output.
func CapsString(caps uint32) string {
	s := ""
	add := func(name string) {
		if s != "" {
			s += ","
		}
		s += name
	}
	if caps&CapAtomicWrite != 0 {
		add("atomic")
	}
	if caps&CapPersistent != 0 {
		add("persistent")
	}
	if caps&CapArchive != 0 {
		add("archive")
	}
	if s == "" {
		s = "none"
	}
	return s
}

// RangeReader is the optional partial-read capability behind lazy segment
// loading (DESIGN.md "Leveled segments & pushdown"): backends that can serve
// a byte extent of a file without materializing the whole file implement it,
// and the store's pruned read paths use it to fetch a pack's header and just
// the members a query needs. Backends (and decorators, such as the fault
// injector) that do not implement it are served by whole-file ReadFile
// fallback — the capability changes I/O volume, never results.
//
// Contract: the returned slice is file[off : min(off+n, size)] — reads
// beyond EOF are clamped, an offset at or past EOF returns an empty slice,
// and a missing file reports fs.ErrNotExist like ReadFile.
type RangeReader interface {
	ReadFileRange(path string, off, n int64) ([]byte, error)
}

// clampRange clamps [off, off+n) to a file of the given size.
func clampRange(size, off, n int64) (int64, int64) {
	if off < 0 {
		off = 0
	}
	if off > size {
		off = size
	}
	if n < 0 || off+n > size {
		n = size - off
	}
	return off, n
}

// notExist returns a *fs.PathError satisfying errors.Is(err, fs.ErrNotExist)
// for the named operation.
func notExist(op, path string) error {
	return &fs.PathError{Op: op, Path: path, Err: fs.ErrNotExist}
}
