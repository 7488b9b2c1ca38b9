package core

import (
	"strings"
	"testing"
)

// TestCrashSweep enumerates every mutating-operation boundary of the fixed
// workload — torn-write variants included — and requires every crash point
// to either recover cleanly with all invariants intact or be verifiably
// rejected. This is the acceptance harness for the integrity layer; it runs
// under -race in CI. The text stores older builds wrote are swept through
// their writing instead, and every crash state is refused (textCrashSweep):
// the store writes them no more.
func TestCrashSweep(t *testing.T) {
	for _, layout := range layouts {
		t.Run(layout, func(t *testing.T) {
			if layout != "pbs" {
				textCrashSweep(t, layout, "vfs")
				return
			}
			crashSweepPBS(t)
		})
	}
}

// crashSweepPBS is TestCrashSweep on the pbs store.
func crashSweepPBS(t *testing.T) {
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
