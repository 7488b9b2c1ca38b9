// Package faultfs is the deterministic fault-injection layer of the
// robustness test harness (DESIGN.md "Integrity & fault injection"): a
// storage-backend decorator that injects I/O errors, torn (prefix-truncated)
// writes, bit-flips, and hard crash points into an otherwise healthy
// backend.
//
// It grew out of the private faultBackend in internal/core's fault tests and
// is shared by those tests, the crash-consistency sweep (core.RunCrashSweep)
// and fuzz targets. Everything is deterministic: behavior depends only on the
// configured switches, the seed, and the sequence of operations — never on
// wall-clock time or goroutine scheduling — so any failing run replays
// exactly from its parameters.
//
// The package deliberately does not import internal/core: Backend and
// core.StoreBackend are both aliases of backend.Storage, so core's VFSBackend
// and OSBackend can be decorated without an adapter, and an *FS is a
// core.Backend.
package faultfs

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"github.com/hpc-io/prov-io/internal/backend"
)

// Backend is the storage interface faultfs decorates.
type Backend = backend.Storage

// ErrInjected is the error returned by operations failed through the
// FailWrites/FailReads/FailList/FailWritesAfter switches.
var ErrInjected = errors.New("faultfs: injected fault")

// ErrCrashed is returned by every operation at and after the configured
// crash point: the simulated process is dead, nothing reaches storage.
var ErrCrashed = errors.New("faultfs: crashed")

// OpKind labels one intercepted backend operation in the trace.
type OpKind uint8

// The operation kinds recorded in the trace. Only mutating operations
// (mkdir, write, remove) count toward the crash point — reads cannot damage
// a store, so crash enumeration over them would only slow the sweep.
const (
	OpMkdir OpKind = iota
	OpWrite
	OpRead
	OpList
	OpRemove
	OpStat
)

func (k OpKind) String() string {
	switch k {
	case OpMkdir:
		return "mkdir"
	case OpWrite:
		return "write"
	case OpRead:
		return "read"
	case OpList:
		return "list"
	case OpRemove:
		return "remove"
	case OpStat:
		return "stat"
	}
	return fmt.Sprintf("op(%d)", uint8(k))
}

// Op is one traced backend operation.
type Op struct {
	Kind OpKind
	Path string
	Size int // len(data) for writes, 0 otherwise
}

// FS decorates an inner Backend with deterministic fault injection.
// The zero switches make it a transparent pass-through that still traces,
// so a probe run discovers a workload's operation sequence.
type FS struct {
	inner Backend

	mu    sync.Mutex
	rng   *rand.Rand
	trace []Op

	failWrites bool
	failReads  bool
	failList   bool
	failAfter  int // fail writes after this many write attempts; <0 disabled

	flipOneBit bool // flip one seeded bit in the next write's payload

	crashAt   int // mutating-op index at which the process dies; <0 disabled
	crashTorn int // bytes of a crashing write that still reach the inner backend
	crashed   bool

	mutations int // mutating operations attempted so far
	writes    int // WriteFile operations attempted so far
}

// New wraps inner. The seed drives every randomized decision (bit positions
// for flips); two FS with equal seeds and equal operation sequences behave
// identically.
func New(inner Backend, seed int64) *FS {
	return &FS{inner: inner, rng: rand.New(rand.NewSource(seed)), failAfter: -1, crashAt: -1}
}

// FailWrites toggles unconditional write failure.
func (f *FS) FailWrites(on bool) *FS { f.mu.Lock(); f.failWrites = on; f.mu.Unlock(); return f }

// FailReads toggles unconditional read failure.
func (f *FS) FailReads(on bool) *FS { f.mu.Lock(); f.failReads = on; f.mu.Unlock(); return f }

// FailList toggles unconditional directory-listing failure.
func (f *FS) FailList(on bool) *FS { f.mu.Lock(); f.failList = on; f.mu.Unlock(); return f }

// FailWritesAfter arranges for WriteFile to fail with ErrInjected once n
// writes have been attempted (the first n writes pass, later ones fail —
// the partial-flush scenario). A negative n disables the switch.
func (f *FS) FailWritesAfter(n int) *FS { f.mu.Lock(); f.failAfter = n; f.mu.Unlock(); return f }

// FlipOneBit arms a single-bit corruption: the next write's payload reaches
// the inner backend with one seeded bit flipped, then the switch disarms.
// The write itself reports success — the corruption is silent, as a flaky
// device's would be.
func (f *FS) FlipOneBit() *FS { f.mu.Lock(); f.flipOneBit = true; f.mu.Unlock(); return f }

// CrashAt arranges a hard crash at mutating operation index op (0-based,
// counted across mkdir/write/remove). The crashing operation and everything
// after it fail with ErrCrashed and do not reach the inner backend — except
// that if the crashing operation is a write, its first torn bytes are
// persisted, modeling a torn page write. torn <= 0 persists nothing.
// A negative op disables the crash point.
func (f *FS) CrashAt(op, torn int) *FS {
	f.mu.Lock()
	f.crashAt = op
	f.crashTorn = torn
	f.mu.Unlock()
	return f
}

// Heal clears every fault switch (the crash flag included), so recovery code
// can run against the surviving inner state. The trace and operation
// counters are kept.
func (f *FS) Heal() *FS {
	f.mu.Lock()
	f.failWrites, f.failReads, f.failList = false, false, false
	f.failAfter, f.crashAt = -1, -1
	f.flipOneBit = false
	f.crashed = false
	f.mu.Unlock()
	return f
}

// Crashed reports whether the crash point has been reached.
func (f *FS) Crashed() bool { f.mu.Lock(); defer f.mu.Unlock(); return f.crashed }

// Ops returns the number of mutating operations attempted so far.
func (f *FS) Ops() int { f.mu.Lock(); defer f.mu.Unlock(); return f.mutations }

// Trace returns a copy of the full operation trace (reads included).
func (f *FS) Trace() []Op {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]Op(nil), f.trace...)
}

// record appends to the trace. Caller holds f.mu.
func (f *FS) recordLocked(k OpKind, path string, size int) {
	f.trace = append(f.trace, Op{Kind: k, Path: path, Size: size})
}

// mutating gates one mutating operation: it advances the crash/quota
// counters and reports what should happen. The returned torn count is >= 0
// only when this exact operation crashes.
func (f *FS) mutating(k OpKind, path string, size int) (fail error, torn int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.recordLocked(k, path, size)
	if f.crashed {
		return ErrCrashed, -1
	}
	idx := f.mutations
	f.mutations++
	wIdx := -1
	if k == OpWrite {
		wIdx = f.writes
		f.writes++
	}
	if f.crashAt >= 0 && idx >= f.crashAt {
		f.crashed = true
		return ErrCrashed, f.crashTorn
	}
	if k == OpWrite && (f.failWrites || (f.failAfter >= 0 && wIdx >= f.failAfter)) {
		return fmt.Errorf("write %s: %w", path, ErrInjected), -1
	}
	return nil, -1
}

// MkdirAll implements Backend.
func (f *FS) MkdirAll(dir string) error {
	if err, _ := f.mutating(OpMkdir, dir, 0); err != nil {
		return err
	}
	return f.inner.MkdirAll(dir)
}

// WriteFile implements Backend.
func (f *FS) WriteFile(path string, data []byte) error {
	err, torn := f.mutating(OpWrite, path, len(data))
	if err != nil {
		if errors.Is(err, ErrCrashed) && torn > 0 {
			// The torn prefix of the crashing write reaches storage; the
			// caller still observes the crash.
			n := torn
			if n > len(data) {
				n = len(data)
			}
			_ = f.inner.WriteFile(path, data[:n])
		}
		return err
	}
	f.mu.Lock()
	flip := f.flipOneBit
	var bit int
	if flip && len(data) > 0 {
		f.flipOneBit = false
		bit = f.rng.Intn(len(data) * 8)
	} else {
		flip = false
	}
	f.mu.Unlock()
	if flip {
		mut := append([]byte(nil), data...)
		mut[bit/8] ^= 1 << (bit % 8)
		data = mut
	}
	return f.inner.WriteFile(path, data)
}

// ReadFile implements Backend.
func (f *FS) ReadFile(path string) ([]byte, error) {
	f.mu.Lock()
	f.recordLocked(OpRead, path, 0)
	crashed, fail := f.crashed, f.failReads
	f.mu.Unlock()
	if crashed {
		return nil, ErrCrashed
	}
	if fail {
		return nil, ErrInjected
	}
	return f.inner.ReadFile(path)
}

// ReadFileRange reads [off, off+n) of a file, clamped to its size — the
// partial-read capability the store's lazy/pruned pack reads probe for. The
// injected failure modes are ReadFile's: a range read is a read. When the
// inner backend lacks the method the range is sliced out of a whole-file
// read, so decorating a range-less backend does not advertise a capability
// it cannot honor cheaply but stays correct.
func (f *FS) ReadFileRange(path string, off, n int64) ([]byte, error) {
	f.mu.Lock()
	f.recordLocked(OpRead, path, 0)
	crashed, fail := f.crashed, f.failReads
	f.mu.Unlock()
	if crashed {
		return nil, ErrCrashed
	}
	if fail {
		return nil, ErrInjected
	}
	if rr, ok := f.inner.(interface {
		ReadFileRange(path string, off, n int64) ([]byte, error)
	}); ok {
		return rr.ReadFileRange(path, off, n)
	}
	data, err := f.inner.ReadFile(path)
	if err != nil {
		return nil, err
	}
	size := int64(len(data))
	if off < 0 {
		off = 0
	}
	if off > size {
		off = size
	}
	if n < 0 || off+n > size {
		n = size - off
	}
	return data[off : off+n], nil
}

// List implements Backend.
func (f *FS) List(dir string) ([]string, error) {
	f.mu.Lock()
	f.recordLocked(OpList, dir, 0)
	crashed, fail := f.crashed, f.failList
	f.mu.Unlock()
	if crashed {
		return nil, ErrCrashed
	}
	if fail {
		return nil, ErrInjected
	}
	return f.inner.List(dir)
}

// Remove implements Backend.
func (f *FS) Remove(path string) error {
	if err, _ := f.mutating(OpRemove, path, 0); err != nil {
		return err
	}
	return f.inner.Remove(path)
}

// Stat implements Backend. Stats fail alongside reads: both observe state
// without mutating it.
func (f *FS) Stat(path string) (int64, error) {
	f.mu.Lock()
	f.recordLocked(OpStat, path, 0)
	crashed, fail := f.crashed, f.failReads
	f.mu.Unlock()
	if crashed {
		return 0, ErrCrashed
	}
	if fail {
		return 0, ErrInjected
	}
	return f.inner.Stat(path)
}

// Caps implements Backend, forwarding the inner backend's capabilities:
// fault injection changes behavior, not what the substrate guarantees when
// healthy.
func (f *FS) Caps() uint32 { return f.inner.Caps() }

// Inner returns the decorated backend, letting store code unwrap decorator
// chains to reach capability interfaces (core's misplacement probe).
func (f *FS) Inner() any { return f.inner }
