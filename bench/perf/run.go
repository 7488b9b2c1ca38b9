package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"sync"
	"time"

	provio "github.com/hpc-io/prov-io"
	"github.com/hpc-io/prov-io/internal/backend"
	"github.com/hpc-io/prov-io/internal/core"
	"github.com/hpc-io/prov-io/internal/model"
	"github.com/hpc-io/prov-io/internal/rdf"
	"github.com/hpc-io/prov-io/internal/sparql"
)

const (
	// The sandbox has two cores: two tracker goroutines, two query workers.
	trackerThreads = 2
	queryWorkers   = 2
	storeDir       = "/prov"
	lineageHops    = 2
	// ingestLaps is how many times a round tracks, packs and audits the
	// rank scripts.
	ingestLaps = 2
)

// oracle counts every operation the run attempts and every one whose
// outcome differs from the generator's expectation.
type oracle struct {
	attempted int
	failed    int
	failures  []string // first few, for the report
}

func (o *oracle) fail(format string, args ...any) {
	o.failed++
	if len(o.failures) < 8 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// check counts one attempted operation and fails it unless ok.
func (o *oracle) check(ok bool, format string, args ...any) {
	o.attempted++
	if !ok {
		o.fail(format, args...)
	}
}

// op counts one attempted operation that returned err.
func (o *oracle) op(err error, what string) bool {
	o.check(err == nil, "%s: %v", what, err)
	return err == nil
}

// reader is the read side of a round: a merged graph or a lazy view.
type reader interface {
	eval(q *sparql.Query) (*sparql.Result, error)
	lineage(root rdf.Term) (*rdf.Graph, error)
}

type graphReader struct{ g *rdf.Graph }

func (r graphReader) eval(q *sparql.Query) (*sparql.Result, error) {
	return sparql.EvalParallel(r.g, q, queryWorkers)
}

func (r graphReader) lineage(root rdf.Term) (*rdf.Graph, error) {
	return core.ReduceLineageUncached(r.g, []rdf.Term{root}, lineageHops), nil
}

type lazyReader struct{ view *core.LazyView }

func (r lazyReader) eval(q *sparql.Query) (*sparql.Result, error) {
	src := r.view.Source(provio.PrunerForQuery(q))
	res, _, err := sparql.EvalParallelOnInfo(src, q, queryWorkers)
	if err == nil {
		err = src.Err()
	}
	return res, err
}

func (r lazyReader) lineage(root rdf.Term) (*rdf.Graph, error) {
	g, _, err := r.view.ReduceLineagePruned([]rdf.Term{root}, lineageHops, queryWorkers)
	return g, err
}

// trial is what one round measured, in wall-clock seconds. A phase the
// harness can cut into slices — a rank, a burst, a cold open, a question —
// is timed slice by slice; slice i does byte-identical work in every round.
type trial struct {
	gen, pack, verify       float64   // one call each: not sliceable
	track                   []float64 // per chunk of trackChunk calls and per Close/Drain, in rank order
	first                   []float64 // per cold open; dassa-live: per burst
	sel, agg, lineage       []float64 // per question
	mallocs                 uint64
	storeBytes, packedBytes int64
	heapMB                  float64
	threads                 int // goroutines the track slices ran on
}

// newTrial is a trial nothing has been measured into yet: every single
// call and count at its ceiling, so the first reading replaces it.
func newTrial(threads int) trial {
	return trial{threads: threads, gen: math.Inf(1), pack: math.Inf(1), verify: math.Inf(1),
		heapMB: math.Inf(1), mallocs: math.MaxUint64}
}

func sum(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

func mean(v []float64) float64 { return sum(v) / float64(len(v)) }

// trackWall is the ingest wall: each goroutine ran an equal block of
// consecutive ranks one after another (see eachRank) and every rank has the
// same number of slices, so the slowest goroutine's share of them adds up
// to it.
func (t *trial) trackWall() float64 {
	var wall float64
	n := len(t.track)
	for g := 0; g < t.threads; g++ {
		wall = max(wall, sum(t.track[g*n/t.threads:(g+1)*n/t.threads]))
	}
	return wall
}

// pipeline is the round's measured time without the generator, the base of
// trace.overhead_pct.
func (t *trial) pipeline() float64 {
	return t.trackWall() + t.pack + t.verify + sum(t.first) + sum(t.sel) + sum(t.agg) + sum(t.lineage)
}

// keepLeast folds one more reading of the same slices into dst: slice by
// slice, the lesser time.
func keepLeast(dst, again []float64) []float64 {
	if dst == nil {
		return again
	}
	for i, x := range again {
		dst[i] = min(dst[i], x)
	}
	return dst
}

// least is the trial no round was: every slice, every single call and every
// count at the least any round read for it. Interference only ever slows a
// slice down, and a slice of a millisecond or less finds a quiet moment of
// this VM far sooner than a whole phase of a few hundred does (NOISE.md has
// the measurements).
func least(trials []trial) trial {
	lo := newTrial(trials[0].threads)
	lo.storeBytes, lo.packedBytes = trials[0].storeBytes, trials[0].packedBytes
	for i := range trials {
		t := &trials[i]
		lo.track = keepLeast(lo.track, append([]float64(nil), t.track...))
		lo.first = keepLeast(lo.first, append([]float64(nil), t.first...))
		lo.sel = keepLeast(lo.sel, append([]float64(nil), t.sel...))
		lo.agg = keepLeast(lo.agg, append([]float64(nil), t.agg...))
		lo.lineage = keepLeast(lo.lineage, append([]float64(nil), t.lineage...))
		lo.gen, lo.pack, lo.verify = min(lo.gen, t.gen), min(lo.pack, t.pack), min(lo.verify, t.verify)
		lo.mallocs, lo.heapMB = min(lo.mallocs, t.mallocs), min(lo.heapMB, t.heapMB)
	}
	return lo
}

// runner drives one workload through its rounds.
type runner struct {
	w   *workload
	cfg *core.Config
	ns  *rdf.Namespaces
	orc oracle

	budget int64 // out-of-core cache budget, decoded footprint / 8 (set by the first round)
}

func newRunner(w *workload) *runner {
	cfg := core.DefaultConfig()
	cfg.Format = core.FormatBinary
	cfg.Mode = core.ModePeriodic
	cfg.FlushEvery = w.spec.flushEvery
	cfg.Pipeline = core.PipelineAsync
	cfg.Duration = true
	return &runner{w: w, cfg: cfg, ns: model.Namespaces()}
}

// eachRank runs the rank scripts on trackerThreads goroutines, each taking
// an equal block of consecutive ranks one after another, a fresh tracker
// each. run tracks the script and ends the rank; the slice times it returns
// are handed back in rank order, with the trackers, so the caller can stop
// their writers once the store is no longer read.
func (rn *runner) eachRank(store *core.Store, run func(rs *rankScript, tr *core.Tracker, regs []rdf.Term) ([]float64, error)) ([]*core.Tracker, []float64, error) {
	ranks := rn.w.ranks
	trackers := make([]*core.Tracker, len(ranks))
	took := make([][]float64, len(ranks))
	errs := make([]error, trackerThreads)
	var wg sync.WaitGroup
	for t := 0; t < trackerThreads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			regs := make([]rdf.Term, rn.w.spec.perRank)
			for r := t * len(ranks) / trackerThreads; r < (t+1)*len(ranks)/trackerThreads; r++ {
				rs := &ranks[r]
				trackers[r] = core.NewTracker(rn.cfg, store, rs.pid)
				var err error
				if took[r], err = run(rs, trackers[r], regs); err != nil && errs[t] == nil {
					errs[t] = fmt.Errorf("rank %d: %w", rs.pid, err)
				}
			}
		}(t)
	}
	wg.Wait()
	var flat []float64
	for _, v := range took {
		flat = append(flat, v...)
	}
	for _, err := range errs {
		if err != nil {
			return trackers, flat, err
		}
	}
	return trackers, flat, nil
}

// trackChunk is how many tracking calls one timed slice of the ingest holds:
// about half a millisecond of work.
const trackChunk = 128

// timedSteps runs ops [from, to) of rs against tr and appends to took the
// seconds each chunk of trackChunk calls needed.
func (rs *rankScript) timedSteps(tr *core.Tracker, regs []rdf.Term, from, to int, took []float64) []float64 {
	t0 := time.Now()
	for i := from; i < to; i++ {
		rs.step(tr, regs, i)
		if (i+1-from)%trackChunk == 0 || i+1 == to {
			now := time.Now()
			took = append(took, now.Sub(t0).Seconds())
			t0 = now
		}
	}
	return took
}

// trackAll is the timed ingest: every call of every script, nothing between
// them, then the rank's Close or Drain as a slice of its own.
func (rn *runner) trackAll(store *core.Store) ([]*core.Tracker, []float64, error) {
	return rn.eachRank(store, func(rs *rankScript, tr *core.Tracker, regs []rdf.Term) ([]float64, error) {
		took := rs.timedSteps(tr, regs, 0, len(rs.ops), nil)
		t0 := time.Now()
		err := rs.finish(tr)
		return append(took, secondsSince(t0)), err
	})
}

// release stops the async writers of drained trackers. Only Close stops a
// writer, and a parked writer pins its tracker's whole graph, so without
// this every round would leave its periodic ranks on the heap. Close also
// rewrites the rank's canonical file, so it runs only once nothing reads the
// round's store any more.
func release(trackers []*core.Tracker) {
	for _, tr := range trackers {
		if tr != nil {
			_ = tr.Close() // the store is being discarded; its outcome is not measured
		}
	}
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// liveHeapMB is the heap left after two collections; the caller keeps what
// it wants counted reachable across the call.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func secondsSince(t0 time.Time) float64 { return time.Since(t0).Seconds() }

// ask parses and evaluates one query the way a caller that bypasses the
// result cache does.
func (rn *runner) ask(rd reader, q query) (*sparql.Result, error) {
	pq, err := sparql.Parse(q.text, rn.ns)
	if err != nil {
		return nil, err
	}
	return rd.eval(pq)
}

// answer is what the oracle keeps of one query result, so a pass holds no
// result sets while its clock runs.
type answer struct {
	rows, sum int
	err       error
}

func answerOf(res *sparql.Result, err error) answer {
	if err != nil {
		return answer{err: err}
	}
	a := answer{rows: len(res.Rows)}
	for _, row := range res.Rows {
		if n, ok := row["n"]; ok {
			v, _ := strconv.Atoi(n.Value)
			a.sum += v
		}
	}
	return a
}

// checkAnswer holds one query's answer to the generator's expectation.
func (rn *runner) checkAnswer(q query, a answer) {
	if !rn.orc.op(a.err, "query") {
		return
	}
	if a.rows != q.wantRows || (q.wantSum >= 0 && a.sum != q.wantSum) {
		rn.orc.fail("query returned %d rows (sum %d), want %d (sum %d): %s", a.rows, a.sum, q.wantRows, q.wantSum, q.text)
	}
}

// queryPass asks a list of queries back to back and returns the seconds
// each took. Answers are checked after the clock stops.
func (rn *runner) queryPass(rd reader, qs []query) []float64 {
	answers := make([]answer, len(qs))
	took := make([]float64, 0, len(qs))
	prev := time.Now()
	for i, q := range qs {
		answers[i] = answerOf(rn.ask(rd, q))
		now := time.Now()
		took = append(took, now.Sub(prev).Seconds())
		prev = now
	}
	for i, q := range qs {
		rn.checkAnswer(q, answers[i])
	}
	return took
}

// lineagePass makes one 2-hop reduction per root, timed like queryPass.
func (rn *runner) lineagePass(rd reader, roots []lineageRoot) []float64 {
	took := make([]float64, 0, len(roots))
	sizes := make([]int, len(roots))
	errs := make([]error, len(roots))
	prev := time.Now()
	for i, r := range roots {
		g, err := rd.lineage(r.root)
		if err == nil {
			sizes[i] = g.Len()
		}
		errs[i] = err
		now := time.Now()
		took = append(took, now.Sub(prev).Seconds())
		prev = now
	}
	for i, r := range roots {
		if rn.orc.op(errs[i], "lineage") && sizes[i] != r.wantTriples {
			rn.orc.fail("lineage of %s kept %d triples, want %d", r.root.Value, sizes[i], r.wantTriples)
		}
	}
	return took
}

// maintain is the pipeline's middle, shared by every workload: size the
// loose store, pack it, audit it, keeping the lesser time when the round has
// done so before. full adds the pre-pack audit whose chain
// heads must still verify once the segments have moved into a pack.
func (rn *runner) maintain(store *core.Store, full bool, t *trial) error {
	var err error
	if t.storeBytes, err = store.TotalBytes(); err != nil {
		return err
	}
	var heads map[int][32]byte
	if full {
		rep, err := store.Verify()
		if rn.orc.op(err, "verify before packing") {
			rn.orc.check(rep.Clean(), "store not clean before packing: %v", rep.Defects)
			heads = rep.Heads
		}
	}

	runtime.GC()
	t0 := time.Now()
	_, err = store.PackSegments(1)
	t.pack = min(t.pack, secondsSince(t0))
	if !rn.orc.op(err, "PackSegments") {
		return err
	}
	if t.packedBytes, err = store.TotalBytes(); err != nil {
		return err
	}

	runtime.GC()
	t0 = time.Now()
	rep, err := store.Verify()
	t.verify = min(t.verify, secondsSince(t0))
	if rn.orc.op(err, "Verify") {
		rn.orc.check(rep.Clean(), "store not clean after packing: %v", rep.Defects)
	}
	if heads != nil {
		rep, err := store.VerifyAgainst(heads)
		if rn.orc.op(err, "VerifyAgainst") {
			rn.orc.check(rep.Clean(), "pre-pack heads do not verify after packing: %v", rep.Defects)
		}
	}
	return nil
}

// regen runs the generator again: it is part of set-up, and a free
// determinism check.
func (rn *runner) regen(t *trial) {
	runtime.GC()
	t0 := time.Now()
	again := gen(rn.w.spec, rn.w.seed)
	t.gen = secondsSince(t0)
	rn.orc.check(again.hash == rn.w.hash, "generator is not deterministic: script hash %s then %s", rn.w.hash, again.hash)
}

// round runs the whole pipeline once. full adds the oracle checks that cost
// real time (pre-pack audit, heads anchoring, eager-vs-lazy parity); it is
// set on the discarded warm-up round only.
func (rn *runner) round(full bool) (trial, error) {
	if rn.w.spec.side == live {
		return rn.liveRound(full)
	}
	t := newTrial(trackerThreads)
	w := rn.w

	rn.regen(&t)

	// Ingest, pack and audit, ingestLaps times over, each time a fresh
	// store; the last one goes on through the round.
	var be *backend.Mem
	var store *core.Store
	var trackers []*core.Tracker
	var err error
	defer func() { release(trackers) }()
	for lap := 0; lap < ingestLaps; lap++ {
		release(trackers)
		be = backend.NewMem()
		if store, err = core.NewStore(be, storeDir, core.FormatBinary); err != nil {
			return t, err
		}
		runtime.GC()
		m0 := mallocs()
		var took []float64
		trackers, took, err = rn.trackAll(store)
		t.mallocs = min(t.mallocs, mallocs()-m0)
		t.track = keepLeast(t.track, took)
		rn.orc.attempted += w.records
		if !rn.orc.op(err, "track") {
			return t, err
		}
		if err := rn.maintain(store, full && lap == 0, &t); err != nil {
			return t, err
		}
	}

	if w.spec.side == outOfCore && rn.budget == 0 {
		if err := rn.sizeBudget(be); err != nil {
			return t, err
		}
	}

	// First answer: a fresh Store on the same backend, opened cold and asked
	// once. Where that takes only milliseconds it is repeated, each time
	// from a cold open, and the metric is the mean.
	var rd reader
	firsts := make([]answer, len(w.firsts))
	runtime.GC()
	for i, q := range w.firsts {
		t0 := time.Now()
		if rd, err = rn.open(be); err != nil {
			return t, err
		}
		firsts[i] = answerOf(rn.ask(rd, q))
		t.first = append(t.first, secondsSince(t0))
	}
	for i, q := range w.firsts {
		rn.checkAnswer(q, firsts[i])
	}

	// The question lists, laps times over. Out of core every lap starts
	// from a fresh view, so question i meets the same cold cache each time.
	for lap := 0; lap < w.spec.laps; lap++ {
		if w.spec.side == outOfCore {
			if rd, err = rn.open(be); err != nil {
				return t, err
			}
		}
		runtime.GC()
		t.sel = keepLeast(t.sel, rn.queryPass(rd, w.selects))
		t.agg = keepLeast(t.agg, rn.queryPass(rd, w.aggs))
		t.lineage = keepLeast(t.lineage, rn.lineagePass(rd, w.roots))
		if lr, ok := rd.(lazyReader); ok {
			cs := lr.view.Stats()
			rn.orc.check(cs.PeakBytes <= rn.budget, "cache peaked at %d bytes, budget %d", cs.PeakBytes, rn.budget)
			rn.orc.check(cs.Evictions > 0, "store 8x the cache never evicted")
			if full && lap == 0 {
				rn.checkParity(be, lr)
			}
		}
	}
	if g, ok := rd.(graphReader); ok && full {
		rn.orc.check(g.g.Len() == w.wantTriples, "merged graph has %d triples, want %d", g.g.Len(), w.wantTriples)
	}

	release(trackers)
	trackers = nil
	t.heapMB = liveHeapMB()
	runtime.KeepAlive(rd)
	return t, nil
}

// open builds the round's read side from a cold Store on be.
func (rn *runner) open(be core.Backend) (reader, error) {
	st, err := core.NewStore(be, storeDir, core.FormatBinary)
	if err != nil {
		return nil, err
	}
	if rn.w.spec.side == outOfCore {
		view, err := st.OpenLazy(core.CacheConfig{MaxBytes: rn.budget})
		if err != nil {
			return nil, err
		}
		return lazyReader{view}, nil
	}
	g, _, err := st.MergePruned(nil, queryWorkers)
	if err != nil {
		return nil, err
	}
	return graphReader{g}, nil
}

// sizeBudget measures the store's decoded footprint through an unbounded
// view and sets the cache budget to an eighth of it.
func (rn *runner) sizeBudget(be core.Backend) error {
	st, err := core.NewStore(be, storeDir, core.FormatBinary)
	if err != nil {
		return err
	}
	view, err := st.OpenLazy(core.CacheConfig{})
	if err != nil {
		return err
	}
	g, _, err := view.MaterializeGraph(queryWorkers)
	if !rn.orc.op(err, "MaterializeGraph") {
		return err
	}
	rn.orc.check(g.Len() == rn.w.wantTriples, "materialized graph has %d triples, want %d", g.Len(), rn.w.wantTriples)
	rn.budget = view.Stats().ResidentBytes / 8
	if rn.budget <= 0 {
		return fmt.Errorf("degenerate decoded footprint %d", view.Stats().ResidentBytes)
	}
	return nil
}

// checkParity holds the lazy view's answers byte-equal to the eager merge's
// on a sample of each question kind.
func (rn *runner) checkParity(be core.Backend, lr lazyReader) {
	st, err := core.NewStore(be, storeDir, core.FormatBinary)
	if !rn.orc.op(err, "NewStore") {
		return
	}
	g, _, err := st.MergePruned(nil, queryWorkers)
	if !rn.orc.op(err, "MergePruned") {
		return
	}
	eager := graphReader{g}
	sample := append([]query(nil), rn.w.selects[:min(16, len(rn.w.selects))]...)
	sample = append(sample, rn.w.aggs[0])
	for _, q := range sample {
		want, err1 := rn.resultJSON(eager, q)
		got, err2 := rn.resultJSON(lr, q)
		rn.orc.check(err1 == nil && err2 == nil && bytes.Equal(want, got), "lazy answer differs from eager: %s", q.text)
	}
	root := rn.w.roots[0].root
	wg, err1 := eager.lineage(root)
	lg, err2 := lr.lineage(root)
	rn.orc.check(err1 == nil && err2 == nil && bytes.Equal(graphBytes(wg), graphBytes(lg)),
		"lazy lineage differs from eager: %s", root.Value)
}

func (rn *runner) resultJSON(rd reader, q query) ([]byte, error) {
	res, err := rn.ask(rd, q)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	err = res.WriteJSON(&buf)
	return buf.Bytes(), err
}

func graphBytes(g *rdf.Graph) []byte {
	var buf bytes.Buffer
	for _, t := range g.SortedTriples() {
		buf.WriteString(t.String())
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// liveRound is dassa-live: one rank, ingest bursts alternating with queries
// on the tracker's own graph, all on this goroutine.
func (rn *runner) liveRound(full bool) (trial, error) {
	t := newTrial(1)
	w := rn.w

	rn.regen(&t)

	be := backend.NewMem()
	store, err := core.NewStore(be, storeDir, core.FormatBinary)
	if err != nil {
		return t, err
	}
	rs := &w.ranks[0]
	tr := core.NewTracker(rn.cfg, store, rs.pid)
	defer release([]*core.Tracker{tr})
	rd := graphReader{tr.Graph()}
	regs := make([]rdf.Term, len(rs.ops))

	runtime.GC()
	done := 0
	var burstMallocs uint64
	for _, bq := range w.bursts {
		m0 := mallocs()
		t.track = rs.timedSteps(tr, regs, done, bq.end, t.track)
		done = bq.end
		burstMallocs += mallocs() - m0

		// First answer after fresh data: pays the snapshot extension.
		t0 := time.Now()
		first := answerOf(rn.ask(rd, bq.first))
		t.first = append(t.first, secondsSince(t0))
		rn.checkAnswer(bq.first, first)

		// The burst's questions, laps times over; the graph stands still
		// meanwhile.
		var sel, agg, lineage []float64
		for lap := 0; lap < w.spec.laps; lap++ {
			sel = keepLeast(sel, rn.queryPass(rd, bq.selects))
			agg = keepLeast(agg, rn.queryPass(rd, bq.aggs))
			lineage = keepLeast(lineage, rn.lineagePass(rd, bq.roots))
		}
		t.sel = append(t.sel, sel...)
		t.agg = append(t.agg, agg...)
		t.lineage = append(t.lineage, lineage...)
	}
	t0 := time.Now()
	err = tr.Drain()
	t.track = append(t.track, secondsSince(t0))
	t.mallocs = burstMallocs
	rn.orc.attempted += w.records
	if !rn.orc.op(err, "Drain") {
		return t, err
	}
	rn.orc.check(tr.Graph().Len() == w.wantTriples, "tracker graph has %d triples, want %d", tr.Graph().Len(), w.wantTriples)

	if err := rn.maintain(store, full, &t); err != nil {
		return t, err
	}
	t.heapMB = liveHeapMB()
	runtime.KeepAlive(rd)
	return t, nil
}
