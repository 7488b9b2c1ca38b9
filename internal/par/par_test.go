package par

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
)

// TestForEachCoversEveryIndexOnce at worker counts below, at and above n.
func TestForEachCoversEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 100} {
		for _, workers := range []int{0, 1, 2, 8, 200} {
			hits := make([]atomic.Int32, n)
			var maxWorker atomic.Int32
			err := ForEach(n, workers, func(w, i int) error {
				hits[i].Add(1)
				for {
					seen := maxWorker.Load()
					if int32(w) <= seen || maxWorker.CompareAndSwap(seen, int32(w)) {
						break
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Fatalf("n=%d workers=%d: index %d ran %d times", n, workers, i, got)
				}
			}
			if limit := max(1, min(workers, n)); int(maxWorker.Load()) >= limit {
				t.Fatalf("n=%d workers=%d: worker id %d, want below %d", n, workers, maxWorker.Load(), limit)
			}
		}
	}
}

// TestForEachOneWorkerRunsInline: no goroutine is started, and the indexes
// come in order — what lets GOMAXPROCS=1 callers cost what a plain loop does.
func TestForEachOneWorkerRunsInline(t *testing.T) {
	for _, c := range []struct{ n, workers int }{{5, 1}, {5, 0}, {1, 8}} {
		before := runtime.NumGoroutine()
		var order []int
		_ = ForEach(c.n, c.workers, func(_, i int) error {
			// Workers of an earlier test may still be exiting, so the count
			// can fall; a started goroutine would raise it.
			if g := runtime.NumGoroutine(); g > before {
				t.Errorf("n=%d workers=%d: %d goroutines inside fn, %d outside", c.n, c.workers, g, before)
			}
			order = append(order, i) // unsynchronized on purpose: -race flags a second goroutine
			return nil
		})
		for i, got := range order {
			if got != i {
				t.Fatalf("n=%d workers=%d: order %v", c.n, c.workers, order)
			}
		}
	}
}

// TestForEachStopsAfterError: the error comes back, and no index starts once
// a worker has seen it.
func TestForEachStopsAfterError(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		var started atomic.Int32
		err := ForEach(10_000, workers, func(_, i int) error {
			started.Add(1)
			if i == 3 {
				return boom
			}
			return nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v", workers, err)
		}
		if got := started.Load(); got == 10_000 {
			t.Fatalf("workers=%d: every index ran after the error", workers)
		}
	}
}
