package core

import (
	"bytes"
	"strings"
	"testing"

	"github.com/hpc-io/prov-io/internal/faultfs"
)

// TestCrashSweep enumerates every mutating-operation boundary of the fixed
// workload — torn-write variants included — and requires every crash point
// to either recover cleanly with all invariants intact or be verifiably
// rejected. This is the acceptance harness for the integrity layer; it runs
// under -race in CI. The text stores older builds wrote are swept through
// their migration instead (migrationCrashSweep): the store writes them no
// more.
func TestCrashSweep(t *testing.T) {
	for _, layout := range layouts {
		t.Run(layout, func(t *testing.T) {
			if layout != "pbs" {
				migrationCrashSweep(t, layout, "vfs")
				return
			}
			rep, err := RunCrashSweep(CrashSweepConfig{Seed: 1, Torn: true})
			if err != nil {
				t.Fatal(err)
			}
			t.Log(rep)
			for _, v := range rep.Violations {
				t.Error(v)
			}
			if rep.Points == 0 || rep.Recovered == 0 {
				t.Fatalf("sweep exercised %d points, recovered %d", rep.Points, rep.Recovered)
			}
			if rep.Recovered+rep.Rejected != rep.Points-len(rep.Violations) {
				t.Fatalf("accounting: %s", rep)
			}
		})
	}
}

// migrationCrashSweep crashes Compact's migration of a text store of the
// layout, on a substrate of the kind, at every mutating-operation boundary
// (torn variants included), then recovers with a fresh Compact. Every crash
// point must recover to a clean pbs store holding exactly the text store's
// graph, or leave damage Verify reports; an untorn crash must recover.
func migrationCrashSweep(t *testing.T, layout, kind string) {
	t.Helper()
	src := newLayoutStore(t, layout)
	smallHistory(t, src, 0)
	smallHistory(t, src, 1)
	files := storeFiles(t, src)
	// The text store's graph: the same history, written as pbs.
	twin := newLayoutStore(t, "pbs")
	smallHistory(t, twin, 0)
	smallHistory(t, twin, 1)
	want := mergedNT(t, twin)
	cfg := CrashSweepConfig{Backend: kind}

	// migrate runs Compact on a fresh substrate holding the text store under
	// the fault injector, and returns the injector and the reopened substrate.
	migrate := func(arm func(*faultfs.FS)) (*faultfs.FS, Backend) {
		inner, reopen, cleanup, err := cfg.newInner()
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(cleanup)
		if err := inner.MkdirAll("/prov"); err != nil {
			t.Fatal(err)
		}
		for name, data := range files {
			if err := inner.WriteFile("/prov/"+name, data); err != nil {
				t.Fatal(err)
			}
		}
		fs := faultfs.New(inner, 1)
		arm(fs)
		if store, err := NewStore(fs, "/prov", FormatBinary); err == nil {
			store.Compact()
		}
		after, err := reopen()
		if err != nil {
			t.Fatal(err)
		}
		return fs, after
	}
	probe, _ := migrate(func(*faultfs.FS) {})
	var muts []faultfs.Op
	for _, op := range probe.Trace() {
		switch op.Kind {
		case faultfs.OpMkdir, faultfs.OpWrite, faultfs.OpRemove:
			muts = append(muts, op)
		}
	}
	points, recovered := 0, 0
	for k, op := range muts {
		torns := []int{0}
		if op.Kind == faultfs.OpWrite && op.Size > 1 {
			torns = append(torns, op.Size/2, op.Size-1)
		}
		for _, torn := range torns {
			points++
			fs, after := migrate(func(fs *faultfs.FS) { fs.CrashAt(k, torn) })
			if !fs.Crashed() {
				t.Fatalf("op %d torn %d: crash never fired", k, torn)
			}
			store, err := NewStore(after, "/prov", FormatBinary)
			if err != nil {
				t.Fatal(err)
			}
			if err := store.Compact(); err != nil {
				if torn == 0 {
					t.Errorf("op %d (%v %s): untorn crash not recovered: %v", k, op.Kind, op.Path, err)
				} else if rep := mustVerify(t, store); rep.Clean() {
					t.Errorf("op %d torn %d: Compact refused (%v) but the store verifies clean", k, torn, err)
				}
				continue
			}
			if rep := mustVerify(t, store); !rep.Clean() || rep.Sealed != rep.Files {
				t.Errorf("op %d torn %d: recovered store: defects %v, %d of %d files sealed", k, torn, rep.Defects, rep.Sealed, rep.Files)
			}
			for name := range storeFiles(t, store) {
				if isTextOrSidecar(name) {
					t.Errorf("op %d torn %d: recovery left %s", k, torn, name)
				}
			}
			if !bytes.Equal(mergedNT(t, store), want) {
				t.Errorf("op %d torn %d: recovered graph differs from the text store's", k, torn)
			}
			recovered++
		}
	}
	t.Logf("migration crash sweep: %d ops, %d points: %d recovered, %d rejected", len(muts), points, recovered, points-recovered)
	if recovered == 0 {
		t.Fatal("no crash point recovered")
	}
}

// TestCrashSweepBinaryUntornNeverRejects pins the all-or-nothing guarantee:
// with atomic writes (what OSBackend's temp-file+rename provides), a binary
// store recovers from EVERY crash point — rejection is only ever caused by
// torn writes, which atomic backends rule out.
func TestCrashSweepBinaryUntornNeverRejects(t *testing.T) {
	rep, err := RunCrashSweep(CrashSweepConfig{Seed: 1, Torn: false})
	if err != nil {
		t.Fatal(err)
	}
	t.Log(rep)
	for _, v := range rep.Violations {
		t.Error(v)
	}
	if rep.Rejected != 0 {
		t.Errorf("binary store rejected %d untorn crash points; atomic writes must always recover", rep.Rejected)
	}
}

// FuzzCrashPoint lets the fuzzer pick crash points, torn sizes, and workload
// shapes the fixed sweep does not enumerate.
func FuzzCrashPoint(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(10), uint8(2), uint8(0))
	f.Add(int64(7), uint8(14), uint8(5), uint8(1), uint8(40))
	f.Fuzz(func(t *testing.T, seed int64, point, records, flushEvery, torn uint8) {
		cfg := CrashSweepConfig{
			Seed:       seed,
			Records:    int(records%12) + 1,
			FlushEvery: int(flushEvery%4) + 1,
		}
		if _, violation := runCrashPoint(cfg, int(point), int(torn)); violation != "" {
			// A crash point beyond the schedule never fires; that is the one
			// acceptable non-outcome.
			if !strings.Contains(violation, "crash never fired") {
				t.Fatal(violation)
			}
		}
	})
}
