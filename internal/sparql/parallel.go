package sparql

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/hpc-io/prov-io/internal/rdf"
)

// Morsel-driven parallel execution (the Leis et al. model) over the unified
// operator pipeline. decideParallel flattens the plan's leading operator
// into a list of independent tasks:
//
//   - a leading scan becomes one task morselized over the source's exact
//     scan domain (ScanLen/ScanRange);
//   - a leading UNION flattens recursively into one task per alternative,
//     each alternative's pipeline concatenated with the remainder of the
//     plan — UNION plans no longer fall back to serial;
//   - a leading property path becomes a task morselized over its
//     deterministic start-node domain (pathStarts) — path plans no longer
//     fall back to serial;
//   - an alternative that cannot be partitioned (leading FILTER/OPTIONAL,
//     dead constant) becomes a single-morsel task running its whole
//     pipeline serially inside one claim.
//
// A bounded pool of workers claims (task, morsel) pairs off one atomic
// counter. Each worker owns a full executor (register slab arena, term
// cache) and runs the identical operator pipeline the serial executor runs,
// so the only shared state during execution is the immutable scan source and
// the per-morsel result buckets.
//
// Correctness does not depend on bucket order: the shared finish path sorts
// with ORDER BY plus every projected variable under a total-order comparator
// (finishSortKeys), so the output bytes are a function of the row multiset
// alone — any task decomposition that preserves the multiset is
// byte-identical to serial execution.

const (
	// minParallelScan is the smallest combined task domain worth fanning
	// out; below it, goroutine + merge overhead exceeds the scan.
	minParallelScan = 128
	// minMorsel/maxMorsel bound the morsel size: large enough to amortize
	// the claim, small enough to keep workers load-balanced when morsel
	// costs are skewed (one subject with a huge join fan-out).
	minMorsel = 64
	maxMorsel = 8192
	// minParallelSort is the smallest row count worth a parallel sort.
	minParallelSort = 4096
)

// parTask is one independent pipeline of a decomposed plan. Exactly one of
// (scan, path, whole) is set.
type parTask struct {
	scan  *scanOp  // lead scan, morselized over the source domain
	path  *pathOp  // lead path, morselized over starts
	whole []physOp // unpartitionable pipeline, run in a single morsel
	// rest is the pipeline after the lead (scan/path tasks).
	rest []physOp
	// s0/p0/o0 are the scan-domain IDs of a scan task (rdf.NoID wildcards).
	s0, p0, o0 rdf.ID
	// starts is the start-node domain of a path task.
	starts []rdf.ID
	// n is the domain size (1 for whole tasks).
	n int
}

// decision is the outcome of parallel planning: the task list, the combined
// morsel domain, and — when execution stays serial — the named reason.
type decision struct {
	tasks  []parTask
	domain int
	reason string
}

// decideParallel decomposes a plan for `workers` goroutines, or names the
// reason it stays serial. The remaining serial cases are intrinsic, not
// unsupported operators: nothing to partition, a dead leading constant
// (the result is empty), a non-scannable leading operator, or a domain too
// small to pay for the fan-out.
func decideParallel(src ScanSource, p *Plan, workers int) decision {
	if workers <= 1 {
		return decision{reason: "workers <= 1 (parallel execution not requested)"}
	}
	if len(p.ops) == 0 {
		return decision{reason: "empty WHERE clause: nothing to partition"}
	}
	switch op := p.ops[0].(type) {
	case *filterOp:
		return decision{reason: "plan starts with FILTER: no leading scan to partition"}
	case *optionalOp:
		return decision{reason: "plan starts with OPTIONAL: no leading scan to partition"}
	case *scanOp:
		if scanDead(op.cp) {
			return decision{reason: "leading pattern matches nothing (dead constant): the serial executor returns the empty result directly"}
		}
	case *pathOp:
		if pathDead(op.cp) {
			return decision{reason: "leading pattern matches nothing (dead constant): the serial executor returns the empty result directly"}
		}
	}
	var dec decision
	flattenTasks(src, p, p.ops, &dec.tasks)
	for _, t := range dec.tasks {
		dec.domain += t.n
	}
	if dec.domain < minParallelScan {
		return decision{reason: fmt.Sprintf("scan domain %d below parallel threshold %d: fan-out costs more than the scan", dec.domain, minParallelScan)}
	}
	return dec
}

// scanDead reports a scan whose constant position is absent from the graph.
func scanDead(cp compiledPattern) bool {
	if !cp.s.isVar() && cp.s.id == rdf.NoID {
		return true
	}
	if !cp.o.isVar() && cp.o.id == rdf.NoID {
		return true
	}
	return !cp.p.isVar() && cp.p.simple && cp.p.id == rdf.NoID
}

// pathDead reports a path whose constant endpoint is absent from the graph.
func pathDead(cp compiledPattern) bool {
	if !cp.s.isVar() && cp.s.id == rdf.NoID {
		return true
	}
	return !cp.o.isVar() && cp.o.id == rdf.NoID
}

// flattenTasks appends the tasks of one pipeline. Leading UNIONs recurse
// (each alternative's pipeline concatenated with the tail); anything that
// cannot expose a scan domain becomes a whole-pipeline single-morsel task,
// which keeps every alternative of a mixed UNION parallelizable instead of
// serializing the whole query.
func flattenTasks(src ScanSource, p *Plan, ops []physOp, tasks *[]parTask) {
	if len(ops) == 0 {
		return
	}
	switch op := ops[0].(type) {
	case *scanOp:
		cp := op.cp
		if scanDead(cp) {
			*tasks = append(*tasks, parTask{whole: ops, n: 1})
			return
		}
		s0, p0, o0 := rdf.NoID, rdf.NoID, rdf.NoID
		if !cp.s.isVar() {
			s0 = cp.s.id
		}
		if !cp.o.isVar() {
			o0 = cp.o.id
		}
		if !cp.p.isVar() {
			p0 = cp.p.id
		}
		*tasks = append(*tasks, parTask{
			scan: op, rest: ops[1:],
			s0: s0, p0: p0, o0: o0,
			n: src.ScanLen(s0, p0, o0),
		})
	case *pathOp:
		cp := op.cp
		if pathDead(cp) {
			*tasks = append(*tasks, parTask{whole: ops, n: 1})
			return
		}
		s := rdf.NoID
		if !cp.s.isVar() {
			s = cp.s.id
		}
		starts := pathStarts(src, cp, s)
		*tasks = append(*tasks, parTask{
			path: op, rest: ops[1:],
			starts: starts, n: len(starts),
		})
	case *unionOp:
		for _, alt := range op.alts {
			pipeline := make([]physOp, 0, len(alt)+len(ops)-1)
			pipeline = append(pipeline, alt...)
			pipeline = append(pipeline, ops[1:]...)
			flattenTasks(src, p, pipeline, tasks)
		}
	default:
		*tasks = append(*tasks, parTask{whole: ops, n: 1})
	}
}

// morselRef is one claimable unit of work: task index plus domain range.
type morselRef struct{ task, lo, hi int }

// runPlanParallelInfo executes a compiled plan with `workers` goroutines
// over a scan source, falling back to the serial executor when
// decideParallel says so, and returns the execution report the CLI and
// cache layer surface.
func runPlanParallelInfo(src ScanSource, p *Plan, workers int) (*Result, ExecInfo, error) {
	dec := decideParallel(src, p, workers)
	if dec.reason != "" {
		res, err := runPlan(src, p)
		return res, ExecInfo{Workers: workers, SerialReason: dec.reason}, err
	}

	msize := dec.domain / (workers * 4)
	if msize < minMorsel {
		msize = minMorsel
	}
	if msize > maxMorsel {
		msize = maxMorsel
	}
	var morsels []morselRef
	for ti, t := range dec.tasks {
		if t.whole != nil {
			morsels = append(morsels, morselRef{task: ti, lo: 0, hi: 1})
			continue
		}
		for lo := 0; lo < t.n; lo += msize {
			hi := lo + msize
			if hi > t.n {
				hi = t.n
			}
			morsels = append(morsels, morselRef{task: ti, lo: lo, hi: hi})
		}
	}
	if workers > len(morsels) {
		workers = len(morsels)
	}

	seed := seedRow(len(p.vars))
	// Per-worker DISTINCT thinning drops rows whose projected key was
	// already seen by this worker. Representative choice is invisible in the
	// output (rows equal on every projected slot render identically, and
	// under DISTINCT the sort keys are all projected), so thinning only
	// shrinks the merge. Aggregate queries must keep every row.
	distinctThin := p.q.Distinct && !p.q.isAggregate()

	buckets := make([][]idRow, len(morsels))
	errs := make([]error, len(morsels))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e := newExecutor(src, p)
			var seen map[string]struct{}
			var keyBuf []byte
			if distinctThin {
				seen = make(map[string]struct{})
				keyBuf = make([]byte, 0, 4*len(p.projSlots))
			}
			for {
				m := int(next.Add(1)) - 1
				if m >= len(morsels) {
					return
				}
				rows, err := runMorsel(e, src, dec.tasks[morsels[m].task], morsels[m], seed)
				if err != nil {
					errs[m] = err
					continue
				}
				if distinctThin {
					out := rows[:0]
					for _, r := range rows {
						keyBuf = e.projKey(keyBuf, r)
						if _, dup := seen[string(keyBuf)]; dup {
							continue
						}
						seen[string(keyBuf)] = struct{}{}
						out = append(out, r)
					}
					rows = out
				}
				buckets[m] = rows
			}
		}()
	}
	wg.Wait()

	// Lowest-morsel error wins: a deterministic choice among the errors the
	// serial executor could have hit.
	for _, err := range errs {
		if err != nil {
			return nil, ExecInfo{Workers: workers, Parallel: true, Tasks: len(dec.tasks)}, err
		}
	}

	total := 0
	for _, b := range buckets {
		total += len(b)
	}
	rows := make([]idRow, 0, total)
	for _, b := range buckets {
		rows = append(rows, b...)
	}

	// The merge executor runs the shared finish path — aggregation, final
	// DISTINCT, sort, OFFSET/LIMIT, materialization — with the chunked
	// parallel sorter installed.
	me := newExecutor(src, p)
	me.sortHook = func(rs []idRow, keys []OrderKey, slots []int) {
		parallelSort(src, p, workers, rs, keys, slots)
	}
	res, err := me.finish(rows)
	return res, ExecInfo{Workers: workers, Parallel: true, Tasks: len(dec.tasks)}, err
}

// runMorsel executes one claimed morsel: the task's leading operator over
// [lo, hi) of its domain, then the remainder pipeline.
func runMorsel(e *executor, src ScanSource, t parTask, m morselRef, seed idRow) ([]idRow, error) {
	switch {
	case t.whole != nil:
		return e.runOps(t.whole, []idRow{e.newRow(seed)})
	case t.path != nil:
		cp := t.path.cp
		o, _ := resolveRef(cp.o, seed) // dead endpoints became whole tasks
		var cur []idRow
		for _, start := range t.starts[m.lo:m.hi] {
			cur = e.extendPathFrom(cp, seed, start, o, cur)
		}
		return e.runOps(t.rest, cur)
	default:
		cp := t.scan.cp
		var cur []idRow
		src.ScanRange(t.s0, t.p0, t.o0, m.lo, m.hi, func(si, pi, oi rdf.ID) bool {
			nr := e.newRow(seed)
			if trySet(nr, cp.s.slot, si) && trySet(nr, cp.p.slot, pi) && trySet(nr, cp.o.slot, oi) {
				cur = append(cur, nr)
			}
			return true
		})
		return e.runOps(t.rest, cur)
	}
}

// parallelSort orders rows exactly as sort.SliceStable with the executor
// comparator would: the slice is cut into contiguous chunks, each chunk is
// stably sorted by its own goroutine (with a private executor — the term
// caches the comparator fills are not thread-safe), and adjacent chunks are
// stably merged pairwise, left side winning ties. A stable sort order is
// unique for a fixed comparator and input order, so the result is
// bit-identical to the serial sort.
func parallelSort(src ScanSource, p *Plan, workers int, rows []idRow, keys []OrderKey, slots []int) {
	n := len(rows)
	if n < minParallelSort || workers <= 1 {
		e := newExecutor(src, p)
		sort.SliceStable(rows, func(i, j int) bool { return e.rowLess(rows[i], rows[j], keys, slots) })
		return
	}
	chunks := workers
	if chunks > n {
		chunks = n
	}
	bounds := make([]int, chunks+1)
	for i := 0; i <= chunks; i++ {
		bounds[i] = i * n / chunks
	}
	var wg sync.WaitGroup
	for i := 0; i < chunks; i++ {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			e := newExecutor(src, p)
			part := rows[lo:hi]
			sort.SliceStable(part, func(i, j int) bool { return e.rowLess(part[i], part[j], keys, slots) })
		}(bounds[i], bounds[i+1])
	}
	wg.Wait()

	// Pairwise merge rounds until one run remains.
	buf := make([]idRow, n)
	for len(bounds) > 2 {
		var nb []int
		nb = append(nb, bounds[0])
		var mwg sync.WaitGroup
		for i := 0; i+2 < len(bounds); i += 2 {
			mwg.Add(1)
			go func(lo, mid, hi int) {
				defer mwg.Done()
				e := newExecutor(src, p)
				mergeRuns(e, rows, buf, lo, mid, hi, keys, slots)
			}(bounds[i], bounds[i+1], bounds[i+2])
			nb = append(nb, bounds[i+2])
		}
		if len(bounds)%2 == 0 {
			// Odd run count: the trailing run rides along unmerged.
			nb = append(nb, bounds[len(bounds)-1])
		}
		mwg.Wait()
		bounds = nb
	}
}

// mergeRuns stably merges rows[lo:mid] and rows[mid:hi] in place (via buf),
// taking from the left run on ties so the merge preserves input order.
func mergeRuns(e *executor, rows, buf []idRow, lo, mid, hi int, keys []OrderKey, slots []int) {
	i, j, k := lo, mid, lo
	for i < mid && j < hi {
		// Left wins unless right is strictly less: stability.
		if e.rowLess(rows[j], rows[i], keys, slots) {
			buf[k] = rows[j]
			j++
		} else {
			buf[k] = rows[i]
			i++
		}
		k++
	}
	for i < mid {
		buf[k] = rows[i]
		i, k = i+1, k+1
	}
	for j < hi {
		buf[k] = rows[j]
		j, k = j+1, k+1
	}
	copy(rows[lo:hi], buf[lo:hi])
}
