// Package par is the one worker pool behind the store's bulk paths: the
// reader's unit loads (core.mergeUnits, for the eager merge and a lazy
// view's MaterializeGraph), the audit's check pass (core.Store.audit) and
// the stages of segcodec.UnionStats all fan out through ForEach. It sits
// below both packages so that neither grows a pool of its own.
package par

import (
	"sync"
	"sync/atomic"
)

// ForEach runs fn once per index in [0, n) on up to `workers` goroutines and
// tells it which worker it runs on, so callers can keep per-worker state
// without locks. Indexes are handed out in ascending order. After an error no
// further index starts, and one of the errors hit is returned. workers <= 1,
// or n < 2, runs inline on the calling goroutine as worker 0: no goroutine is
// started.
func ForEach(n, workers int, fn func(worker, i int) error) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(0, i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		wg   sync.WaitGroup
		next atomic.Int64 // the next index to hand out
		errs = make([]error, workers)
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := next.Add(1) - 1; i < int64(n); i = next.Add(1) - 1 {
				if errs[w] = fn(w, int(i)); errs[w] != nil {
					next.Store(int64(n)) // no further index starts
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Do is ForEach for work that cannot fail and keeps no per-worker state.
func Do(n, workers int, fn func(i int)) {
	_ = ForEach(n, workers, func(_, i int) error {
		fn(i)
		return nil
	})
}
