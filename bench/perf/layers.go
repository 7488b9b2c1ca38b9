package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"

	provio "github.com/hpc-io/prov-io"
	"github.com/hpc-io/prov-io/internal/backend"
	"github.com/hpc-io/prov-io/internal/core"
	"github.com/hpc-io/prov-io/internal/model"
	"github.com/hpc-io/prov-io/internal/rdf"
	"github.com/hpc-io/prov-io/internal/rdf/segcodec"
	"github.com/hpc-io/prov-io/internal/sparql"
)

// layerDef declares one per-layer metric of the traced run. Layer names are
// this repository's modules; README.md maps each metric to the end-to-end
// metric it should move, and on which workload.
type layerDef struct {
	name  string
	unit  string
	lower bool
}

var layerDefs = []layerDef{
	// model: record build.
	{"model.build_ns_per_record", "ns", true},
	{"model.triples_per_record", "1", true},
	// rdf: interning, insertion log, snapshots, ID remap.
	{"rdf.addbatch_ns_per_record", "ns", true},
	{"rdf.dict_terms_per_record", "1", true},
	{"rdf.snapshot_build_ms", "ms", true},
	{"rdf.snapshot_extend_us", "us", true},
	{"rdf.remap_us_per_unit", "us", true},
	// segcodec: the binary segment format.
	{"segcodec.encode_mb_per_s", "MB/s", false},
	{"segcodec.stats_us_per_segment", "us", true},
	{"segcodec.seal_us_per_segment", "us", true},
	{"segcodec.decode_mb_per_s", "MB/s", false},
	{"segcodec.bytes_per_triple", "B", true},
	{"segcodec.pack_header_us", "us", true},
	// core.Tracker.
	{"tracker.call_ns_per_record", "ns", true},
	{"tracker.flush_stall_ms", "ms", true},
	{"tracker.flushes", "count", true},
	{"tracker.close_ms", "ms", true},
	// core.Store, write and maintenance side.
	{"store.write_self_ms", "ms", true},
	{"store.pack_ms", "ms", true},
	{"store.pack_bytes_rewritten", "B", true},
	{"verify.files", "count", true},
	{"verify.us_per_file", "us", true},
	// backend: what a parallel file system would charge.
	{"backend.write_ops", "count", true},
	{"backend.write_bytes", "B", true},
	{"backend.write_ms", "ms", true},
	{"backend.read_ops", "count", true},
	{"backend.range_read_ops", "count", true},
	{"backend.read_bytes", "B", true},
	{"backend.read_ms", "ms", true},
	{"backend.list_ops", "count", true},
	{"backend.stat_ops", "count", true},
	{"backend.read_bytes_per_select", "B", true},
	{"backend.dir_write_ms", "ms", true},
	{"backend.dir_read_ms", "ms", true},
	// core read side: pruning, lazy open, eager merge.
	{"prune.units_total", "count", true},
	{"prune.units_decoded_per_select", "1", true},
	{"prune.units_skipped_ratio", "1", false},
	{"prune.whole_pack_prunes", "count", false},
	{"lazy.open_ms", "ms", true},
	{"lazy.source_us", "us", true},
	{"store.merge_ms", "ms", true},
	{"store.merge_triples_per_s", "1/s", false},
	// core.segcache.
	{"cache.hits", "count", false},
	{"cache.misses", "count", true},
	{"cache.evictions", "count", true},
	{"cache.hit_ratio", "1", false},
	{"cache.misses_per_agg", "1", true},
	{"cache.peak_bytes", "B", true},
	{"cache.budget_bytes", "B", true},
	// sparql.
	{"sparql.parse_us", "us", true},
	{"sparql.plan_us", "us", true},
	{"sparql.exec_select_us", "us", true},
	{"sparql.exec_agg_ms", "ms", true},
	{"sparql.render_us", "us", true},
	{"sparql.rows_per_select", "1", true},
	{"sparql.parallel_tasks", "count", false},
	{"sparql.serial_queries", "count", true},
	{"sparql.result_cache_hit_ratio", "1", false},
	{"sparql.cached_repeat_us", "us", true},
	// core.ReduceLineage.
	{"lineage.triples_kept", "count", true},
	{"lineage.units_decoded", "count", true},
	// process.
	{"go.alloc_bytes_per_record", "B", true},
	{"go.gc_cycles", "count", true},
	{"go.gc_pause_total_ms", "ms", true},
	{"go.peak_heap_mb", "MB", true},
	{"trace.overhead_pct", "%", true},
}

var layerNames = func() []string {
	names := make([]string, len(layerDefs))
	for i, d := range layerDefs {
		names[i] = d.name
	}
	return names
}()

// queryAcc accumulates what the traced query passes saw.
type queryAcc struct {
	nSel, rows                            int
	parse, plan, exec, render, source     float64 // seconds over selects
	tasks, serial                         int
	units, decoded, skipped, packsSkipped int
	selReadBytes                          int64
	nAgg                                  int
	aggExec                               float64
	aggMisses                             uint64
	nLineage, kept, lineageUnits          int
	selWall, aggWall, lineageWall         float64
}

// traceRun is the state of the one traced round.
type traceRun struct {
	rn  *runner
	tr  *tracer
	cb  *countingBackend
	acc queryAcc
	L   map[string]float64

	peakHeap uint64
}

func (x *traceRun) sampleHeap() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	x.peakHeap = max(x.peakHeap, ms.HeapAlloc)
}

// traced makes the separate traced run: one extra round with a span around
// every call into a layer's public function and the counting backend
// installed, then the layer probes and the dir: repeat. The timed rounds ran
// with none of this.
func (rn *runner) traced(o options, trials []trial) (map[string]metricValue, error) {
	w := rn.w
	x := &traceRun{rn: rn, tr: newTracer(), L: make(map[string]float64, len(layerDefs))}
	x.cb = &countingBackend{inner: backend.NewMem(), tr: x.tr}
	tr, cb, L := x.tr, x.cb, x.L

	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	root := tr.begin("round", -1)
	cb.parent.Store(root)
	store, err := core.NewStore(cb, storeDir, core.FormatBinary)
	if err != nil {
		return nil, err
	}

	// Ingest.
	var trackers []*core.Tracker
	var rd reader
	track := tr.begin("track", root)
	cb.parent.Store(track)
	if w.spec.side == live {
		var ltr *core.Tracker
		ltr, err = x.tracedLive(store, track)
		trackers = []*core.Tracker{ltr}
		rd = graphReader{ltr.Graph()}
	} else {
		trackers, err = x.tracedTrack(store, track)
	}
	trackS := tr.end(track)
	defer func() { release(trackers) }()
	if !rn.orc.op(err, "traced track") {
		return nil, err
	}
	runtime.ReadMemStats(&ms1)
	L["go.alloc_bytes_per_record"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(w.records)
	x.sampleHeap()
	storeBytes, err := store.TotalBytes()
	if err != nil {
		return nil, err
	}
	L["segcodec.bytes_per_triple"] = float64(storeBytes) / float64(w.writtenTriples)

	// Pack and audit.
	before := cb.counts()
	id := tr.begin("store.pack", root)
	cb.parent.Store(id)
	_, err = store.PackSegments(1)
	packS := tr.end(id)
	if !rn.orc.op(err, "traced PackSegments") {
		return nil, err
	}
	L["store.pack_ms"] = packS * 1e3
	L["store.pack_bytes_rewritten"] = float64(cb.counts().writeBytes - before.writeBytes)
	id = tr.begin("store.verify", root)
	cb.parent.Store(id)
	rep, err := store.Verify()
	verifyS := tr.end(id)
	if rn.orc.op(err, "traced Verify") {
		rn.orc.check(rep.Clean(), "traced store not clean: %v", rep.Defects)
		L["verify.files"] = float64(rep.Files)
		L["verify.us_per_file"] = verifyS * 1e6 / float64(rep.Files)
	}
	cb.parent.Store(root)
	x.sampleHeap()
	if err := x.packHeaderProbe(root); err != nil {
		return nil, err
	}

	// Read side (dassa-live asked its questions between the bursts).
	var firstS float64
	if w.spec.side != live {
		id = tr.begin("first_answer", root)
		rd, err = x.tracedOpen(id)
		if err != nil {
			return nil, err
		}
		rn.checkAnswer(w.firsts[0], x.tracedAsk(rd, w.firsts[0], id, false))
		firstS = tr.end(id)
		x.tracedQueries(rd, w.selects, w.aggs, w.roots, root)
	}
	x.sampleHeap()
	if lr, ok := rd.(lazyReader); ok {
		cs := lr.view.Stats()
		L["cache.hits"], L["cache.misses"], L["cache.evictions"] = float64(cs.Hits), float64(cs.Misses), float64(cs.Evictions)
		L["cache.hit_ratio"] = float64(cs.Hits) / float64(cs.Hits+cs.Misses)
		L["cache.peak_bytes"], L["cache.budget_bytes"] = float64(cs.PeakBytes), float64(cs.BudgetBytes)
		rn.orc.check(cs.PeakBytes <= cs.BudgetBytes, "traced cache peaked at %d bytes, budget %d", cs.PeakBytes, cs.BudgetBytes)
	}
	tr.end(root)
	c := cb.counts()
	L["backend.write_ops"], L["backend.write_bytes"], L["backend.write_ms"] = float64(c.writeOps), float64(c.writeBytes), float64(c.writeNS)/1e6
	L["backend.read_ops"], L["backend.range_read_ops"] = float64(c.readOps), float64(c.rangeOps)
	L["backend.read_bytes"], L["backend.read_ms"] = float64(c.readBytes), float64(c.readNS)/1e6
	L["backend.list_ops"], L["backend.stat_ops"] = float64(c.listOps), float64(c.statOps)

	var ms2 runtime.MemStats
	runtime.ReadMemStats(&ms2)
	L["go.gc_cycles"] = float64(ms2.NumGC - ms0.NumGC)
	L["go.gc_pause_total_ms"] = float64(ms2.PauseTotalNs-ms0.PauseTotalNs) / 1e6
	L["go.peak_heap_mb"] = float64(x.peakHeap) / (1 << 20)

	x.foldQueryAcc()
	x.foldTrackerSpans()
	if g, ok := rd.(graphReader); ok {
		x.cachedRepeat(g)
	}

	// Tracing overhead: the traced round's phases against the least
	// disturbed untraced round (its generator time left out of both).
	a := &x.acc
	tracedWall := trackS + packS + verifyS + firstS + a.selWall + a.aggWall + a.lineageWall
	if w.spec.side == live {
		tracedWall = trackS + packS + verifyS // the bursts' queries ran inside the track span
	}
	best := trials[0].pipeline()
	for i := range trials {
		best = min(best, trials[i].pipeline())
	}
	L["trace.overhead_pct"] = (tracedWall - best) / best * 100

	if err := x.probeLayers(); err != nil {
		return nil, err
	}
	if err := x.dirRepeat(o.tmp); err != nil {
		return nil, err
	}

	spans := o.spans
	if spans == "" {
		spans = filepath.Join(o.tmp, "spans-"+w.spec.name+".json")
	}
	if err := os.MkdirAll(filepath.Dir(spans), 0o755); err != nil {
		return nil, err
	}
	if err := tr.write(spans); err != nil {
		return nil, err
	}

	out := make(map[string]metricValue, len(layerDefs))
	for _, d := range layerDefs {
		out[d.name] = metricValue{Value: L[d.name], Unit: d.unit}
	}
	return out, nil
}

// tracedTrack is trackAll with a span around every tracker call.
func (x *traceRun) tracedTrack(store *core.Store, parent int32) ([]*core.Tracker, error) {
	tr := x.tr
	trackers, _, err := x.rn.eachRank(store, func(rs *rankScript, trk *core.Tracker, regs []rdf.Term) ([]float64, error) {
		for i := range rs.ops {
			id := tr.begin(x.callName(i), parent)
			rs.step(trk, regs, i)
			tr.end(id)
		}
		id := tr.begin("tracker.close", parent)
		err := rs.finish(trk)
		tr.end(id)
		return nil, err
	})
	return trackers, err
}

// callName separates the tracking calls that hand a delta to the flush
// pipeline (every FlushEvery-th) from the ones that only build and insert.
func (x *traceRun) callName(i int) string {
	if (i+1)%x.rn.w.spec.flushEvery == 0 {
		return "tracker.flush_call"
	}
	return "tracker.call"
}

// tracedLive is liveRound's ingest-and-ask loop under spans.
func (x *traceRun) tracedLive(store *core.Store, parent int32) (*core.Tracker, error) {
	rn, tr := x.rn, x.tr
	rs := &rn.w.ranks[0]
	trk := core.NewTracker(rn.cfg, store, rs.pid)
	rd := graphReader{trk.Graph()}
	regs := make([]rdf.Term, len(rs.ops))
	done := 0
	for b, bq := range rn.w.bursts {
		for ; done < bq.end; done++ {
			id := tr.begin(x.callName(done), parent)
			rs.step(trk, regs, done)
			tr.end(id)
		}
		name := "rdf.snapshot_extend"
		if b == 0 {
			name = "rdf.snapshot_build"
		}
		id := tr.begin(name, parent)
		trk.Graph().Snapshot()
		tr.end(id)
		rn.checkAnswer(bq.first, x.tracedAsk(rd, bq.first, parent, false))
		x.tracedQueries(rd, bq.selects, bq.aggs, bq.roots, parent)
	}
	id := tr.begin("tracker.close", parent)
	err := trk.Drain()
	tr.end(id)
	return trk, err
}

// tracedOpen is open with its layers under spans.
func (x *traceRun) tracedOpen(parent int32) (reader, error) {
	rn, tr, L := x.rn, x.tr, x.L
	st, err := core.NewStore(x.cb, storeDir, core.FormatBinary)
	if err != nil {
		return nil, err
	}
	if rn.w.spec.side == outOfCore {
		id := tr.begin("lazy.open", parent)
		x.cb.parent.Store(id)
		view, err := st.OpenLazy(core.CacheConfig{MaxBytes: rn.budget})
		L["lazy.open_ms"] = tr.end(id) * 1e3
		x.cb.parent.Store(parent)
		if !rn.orc.op(err, "traced OpenLazy") {
			return nil, err
		}
		return lazyReader{view}, nil
	}
	id := tr.begin("store.merge", parent)
	x.cb.parent.Store(id)
	g, st2, err := st.MergePruned(nil, queryWorkers)
	mergeS := tr.end(id)
	x.cb.parent.Store(parent)
	if !rn.orc.op(err, "traced MergePruned") {
		return nil, err
	}
	L["store.merge_ms"] = mergeS * 1e3
	L["store.merge_triples_per_s"] = float64(g.Len()) / mergeS
	L["prune.units_total"] = float64(st2.Units)
	id = tr.begin("rdf.snapshot_build", parent)
	g.Snapshot()
	tr.end(id)
	return graphReader{g}, nil
}

// tracedAsk answers one query with a span per sparql stage. The plan span is
// an extra Compile (the executor compiles again inside its own span), so
// execution proper is exec minus plan.
func (x *traceRun) tracedAsk(rd reader, q query, parent int32, count bool) answer {
	tr, a := x.tr, &x.acc
	id := tr.begin("sparql.parse", parent)
	pq, err := sparql.Parse(q.text, x.rn.ns)
	parseS := tr.end(id)
	if err != nil {
		return answer{err: err}
	}
	var src sparql.ScanSource
	var lsrc *core.LazySource
	var sourceS float64
	switch r := rd.(type) {
	case graphReader:
		src = r.g.Snapshot()
	case lazyReader:
		id = tr.begin("lazy.source", parent)
		lsrc = r.view.Source(provio.PrunerForQuery(pq))
		sourceS = tr.end(id)
		src = lsrc
	}
	id = tr.begin("sparql.plan", parent)
	sparql.Compile(src, pq)
	planS := tr.end(id)
	before := x.cb.counts().readBytes
	id = tr.begin("sparql.exec", parent)
	x.cb.parent.Store(id)
	res, info, err := sparql.EvalParallelOnInfo(src, pq, queryWorkers)
	execS := tr.end(id)
	x.cb.parent.Store(parent)
	if err == nil && lsrc != nil {
		err = lsrc.Err()
	}
	if err != nil {
		return answer{err: err}
	}
	id = tr.begin("sparql.render", parent)
	err = res.WriteJSON(io.Discard)
	renderS := tr.end(id)
	if !count {
		return answerOf(res, err)
	}
	a.nSel++
	a.rows += len(res.Rows)
	a.parse += parseS
	a.source += sourceS
	a.plan += planS
	a.exec += execS
	a.render += renderS
	a.selReadBytes += x.cb.counts().readBytes - before
	if info.Parallel {
		a.tasks += info.Tasks
	} else {
		a.serial++
	}
	if lsrc != nil {
		st := lsrc.Stats()
		a.units += st.Units
		a.decoded += st.Decoded
		a.skipped += st.Skipped
		a.packsSkipped += st.PacksSkipped
	}
	return answerOf(res, err)
}

// tracedQueries is the three query passes under spans.
func (x *traceRun) tracedQueries(rd reader, selects, aggs []query, roots []lineageRoot, parent int32) {
	rn, tr, a := x.rn, x.tr, &x.acc
	pass := tr.begin("pass.select", parent)
	for _, q := range selects {
		rn.checkAnswer(q, x.tracedAsk(rd, q, pass, true))
	}
	a.selWall += tr.end(pass)

	var misses uint64
	lr, lazy := rd.(lazyReader)
	if lazy {
		misses = lr.view.Stats().Misses
	}
	pass = tr.begin("pass.agg", parent)
	for _, q := range aggs {
		id := tr.begin("sparql.exec_agg", pass)
		x.cb.parent.Store(id)
		ans := answerOf(rn.ask(rd, q))
		a.aggExec += tr.end(id)
		a.nAgg++
		rn.checkAnswer(q, ans)
	}
	a.aggWall += tr.end(pass)
	if lazy {
		a.aggMisses += lr.view.Stats().Misses - misses
	}

	pass = tr.begin("pass.lineage", parent)
	for _, r := range roots {
		id := tr.begin("lineage.reduce", pass)
		x.cb.parent.Store(id)
		var g *rdf.Graph
		var err error
		if lazy {
			var st *core.ScanStats
			g, st, err = lr.view.ReduceLineagePruned([]rdf.Term{r.root}, lineageHops, queryWorkers)
			if err == nil {
				a.lineageUnits += st.Decoded
			}
		} else {
			g, err = rd.lineage(r.root)
		}
		tr.end(id)
		if rn.orc.op(err, "traced lineage") {
			a.nLineage++
			a.kept += g.Len()
			rn.orc.check(g.Len() == r.wantTriples, "traced lineage of %s kept %d triples, want %d", r.root.Value, g.Len(), r.wantTriples)
		}
	}
	a.lineageWall += tr.end(pass)
	x.cb.parent.Store(parent)
}

func (x *traceRun) foldQueryAcc() {
	a, L := &x.acc, x.L
	if a.nSel > 0 {
		n := float64(a.nSel)
		L["sparql.parse_us"] = a.parse / n * 1e6
		L["sparql.plan_us"] = a.plan / n * 1e6
		L["sparql.exec_select_us"] = max(0, a.exec-a.plan) / n * 1e6
		L["sparql.render_us"] = a.render / n * 1e6
		L["sparql.rows_per_select"] = float64(a.rows) / n
		L["lazy.source_us"] = a.source / n * 1e6
		L["backend.read_bytes_per_select"] = float64(a.selReadBytes) / n
		L["prune.units_decoded_per_select"] = float64(a.decoded) / n
		L["prune.whole_pack_prunes"] = float64(a.packsSkipped)
		if a.units > 0 {
			L["prune.units_total"] = float64(a.units) / n
			L["prune.units_skipped_ratio"] = float64(a.skipped) / float64(a.units)
		}
	}
	L["sparql.parallel_tasks"] = float64(a.tasks)
	L["sparql.serial_queries"] = float64(a.serial)
	if a.nAgg > 0 {
		L["sparql.exec_agg_ms"] = a.aggExec / float64(a.nAgg) * 1e3
		L["cache.misses_per_agg"] = float64(a.aggMisses) / float64(a.nAgg)
	}
	if a.nLineage > 0 {
		L["lineage.triples_kept"] = float64(a.kept) / float64(a.nLineage)
		L["lineage.units_decoded"] = float64(a.lineageUnits) / float64(a.nLineage)
	}
}

func (x *traceRun) foldTrackerSpans() {
	tot, L := x.tr.totals(), x.L
	if c := tot["tracker.call"]; c != nil {
		L["tracker.call_ns_per_record"] = c.total / float64(c.count) * 1e9
	}
	if f := tot["tracker.flush_call"]; f != nil {
		L["tracker.flush_stall_ms"] = f.total * 1e3
		L["tracker.flushes"] = float64(f.count)
	}
	if c := tot["tracker.close"]; c != nil {
		L["tracker.close_ms"] = c.total * 1e3
	}
	if s := tot["rdf.snapshot_build"]; s != nil {
		L["rdf.snapshot_build_ms"] = s.total * 1e3
	}
	if s := tot["rdf.snapshot_extend"]; s != nil {
		L["rdf.snapshot_extend_us"] = s.total / float64(s.count) * 1e6
	}
}

// cachedRepeat sends a sample of the selects twice through the cached entry
// point: the second pass must be all hits. No end-to-end metric uses that
// entry point; this guards the result cache staying on.
func (x *traceRun) cachedRepeat(rd graphReader) {
	rn := x.rn
	qs := rn.w.selects
	if rn.w.spec.side == live {
		qs = rn.w.bursts[len(rn.w.bursts)-1].selects
	}
	qs = qs[:min(64, len(qs))]
	hits := 0
	var second float64
	for pass := 0; pass < 2; pass++ {
		for _, q := range qs {
			id := x.tr.begin("sparql.cached", -1)
			res, info, err := sparql.ExecParallelInfo(rd.g, q.text, rn.ns, queryWorkers)
			s := x.tr.end(id)
			rn.checkAnswer(q, answerOf(res, err))
			if pass == 1 {
				second += s
				if info.CacheHit {
					hits++
				}
			}
		}
	}
	x.L["sparql.result_cache_hit_ratio"] = float64(hits) / float64(len(qs))
	x.L["sparql.cached_repeat_us"] = second / float64(len(qs)) * 1e6
}

// packHeaderProbe times the pack header decode the lazy open pays per pack.
func (x *traceRun) packHeaderProbe(parent int32) error {
	names, err := x.cb.inner.List(storeDir)
	if err != nil {
		return err
	}
	for _, n := range names {
		if !strings.HasSuffix(n, segcodec.Pack.Ext()) {
			continue
		}
		data, err := x.cb.inner.ReadFile(storeDir + "/" + n)
		if err != nil {
			return err
		}
		id := x.tr.begin("segcodec.pack_header", parent)
		_, err = segcodec.DecodePackHeader(data)
		x.L["segcodec.pack_header_us"] = x.tr.end(id) * 1e6
		x.rn.orc.op(err, "DecodePackHeader")
	}
	return nil
}

// appendTriples builds op's record the way core.Tracker does, straight from
// the model layer, so the probe can time record build apart from insertion.
func (o *op) appendTriples(dst []rdf.Triple, regs []rdf.Term, pid int, seqs map[string]int) ([]rdf.Triple, rdf.Term) {
	reg := func(j int32) rdf.Term { return regAt(regs, j) }
	switch o.kind {
	case opUser:
		return model.AgentRecord{Class: model.User, ID: o.name, Rank: -1}.AppendTriples(dst)
	case opProgram:
		return model.AgentRecord{Class: model.Program, ID: o.name, Rank: -1, OnBehalfOf: reg(o.a).Value}.AppendTriples(dst)
	case opThread:
		return model.AgentRecord{Class: model.Thread, ID: "MPI_rank_" + strconv.Itoa(int(o.rank)), Rank: int(o.rank),
			OnBehalfOf: reg(o.a).Value}.AppendTriples(dst)
	case opObject:
		return model.DataObjectRecord{Class: *o.class, ID: o.name, Container: reg(o.a).Value}.AppendTriples(dst)
	case opIO:
		seqs[o.name]++
		return model.IOActivityRecord{Class: *o.class, API: o.name, PID: pid, Seq: seqs[o.name],
			Object: reg(o.a), Agent: reg(o.b), Started: o.started, Elapsed: o.elapsed, TrackDuration: true}.AppendTriples(dst)
	}
	return append(dst, rdf.Triple{S: reg(o.a), P: model.WasDerivedFrom.IRI(), O: reg(o.b)}), rdf.Term{}
}

// probeLayers replays a sample of the ingest on one goroutine through the
// layers' own public functions — record build, AddBatch, EncodeRefs, seal,
// WriteDeltaSegmentRefs, Decode, stats, remap — which the tracker otherwise
// calls where the harness cannot put a span. Every segment the replay
// encodes must be byte-identical to the one the store writes from the same
// refs, which keeps the replay honest.
func (x *traceRun) probeLayers() error {
	rn, tr, L := x.rn, x.tr, x.L
	root := tr.begin("probe", -1)
	cb := &countingBackend{inner: backend.NewMem(), tr: tr}
	store, err := core.NewStore(cb, storeDir, core.FormatBinary)
	if err != nil {
		return err
	}
	enc := segcodec.Binary.(segcodec.RefsEncoder)
	sd := rdf.NewSharedDict()
	every := rn.w.spec.flushEvery
	var records, triples, terms, segments int
	var payloadBytes, sealedBytes int64
	var scratch []rdf.Triple
	for r := range rn.w.ranks[:min(4, len(rn.w.ranks))] {
		rs := &rn.w.ranks[r]
		n := min(len(rs.ops), 2048) / every * every
		g := rdf.NewGraph()
		render := rdf.NewTermRenderer(g)
		regs := make([]rdf.Term, n)
		seqs := map[string]int{}
		var prev [32]byte
		cursor, seg := 0, 0
		for i := 0; i < n; i++ {
			id := tr.begin("model.build", root)
			scratch, regs[i] = rs.ops[i].appendTriples(scratch[:0], regs, rs.pid, seqs)
			tr.end(id)
			id = tr.begin("rdf.addbatch", root)
			g.AddBatch(scratch)
			tr.end(id)
			triples += len(scratch)
			if (i+1)%every != 0 {
				continue
			}
			var refs []rdf.TripleID
			refs, cursor = g.RefsSince(cursor)
			var buf bytes.Buffer
			id = tr.begin("segcodec.encode", root)
			err := enc.EncodeRefs(&buf, refs, g)
			tr.end(id)
			if err != nil {
				return err
			}
			id = tr.begin("segcodec.seal", root)
			sealed := segcodec.AppendChain(buf.Bytes(), segcodec.Chain{Seq: uint64(seg), Prev: prev})
			prev = sha256.Sum256(sealed)
			tr.end(id)
			id = tr.begin("store.write_delta", root)
			cb.parent.Store(id)
			err = store.WriteDeltaSegmentRefs(rs.pid, seg, refs, render)
			tr.end(id)
			if err != nil {
				return err
			}
			wrote, err := cb.inner.ReadFile(fmt.Sprintf("%s/prov_p%06d.seg%04d.pbs", storeDir, rs.pid, seg))
			rn.orc.check(err == nil && bytes.Equal(wrote, sealed), "probe segment %d of rank %d differs from the store's", seg, rs.pid)

			dec := rdf.NewGraph()
			id = tr.begin("segcodec.decode", root)
			err = segcodec.Binary.Decode(bytes.NewReader(sealed), dec)
			tr.end(id)
			if err != nil {
				return err
			}
			id = tr.begin("segcodec.stats", root)
			segcodec.ComputeGraphStats(dec)
			tr.end(id)
			snap := dec.Snapshot()
			id = tr.begin("rdf.remap", root)
			sd.RemapSnapshot(snap)
			tr.end(id)
			payloadBytes += int64(buf.Len())
			sealedBytes += int64(len(sealed))
			segments++
			seg++
		}
		records += n
		terms += g.TermCount()
	}
	tr.end(root)

	tot := tr.totals()
	per := func(name string, n int, scale float64) float64 { return tot[name].total / float64(n) * scale }
	L["model.build_ns_per_record"] = per("model.build", records, 1e9)
	L["model.triples_per_record"] = float64(triples) / float64(records)
	L["rdf.addbatch_ns_per_record"] = per("rdf.addbatch", records, 1e9)
	L["rdf.dict_terms_per_record"] = float64(terms) / float64(records)
	L["rdf.remap_us_per_unit"] = per("rdf.remap", segments, 1e6)
	L["segcodec.encode_mb_per_s"] = float64(payloadBytes) / 1e6 / tot["segcodec.encode"].total
	L["segcodec.stats_us_per_segment"] = per("segcodec.stats", segments, 1e6)
	L["segcodec.seal_us_per_segment"] = per("segcodec.seal", segments, 1e6)
	L["segcodec.decode_mb_per_s"] = float64(sealedBytes) / 1e6 / tot["segcodec.decode"].total
	L["store.write_self_ms"] = tot["store.write_delta"].self * 1e3
	return nil
}

// dirRepeat runs ingest, packing and the open again on a real directory
// under tmp, for the one thing mem cannot show: what the sandbox's disk
// charges for the same writes and reads.
func (x *traceRun) dirRepeat(tmp string) error {
	rn, L := x.rn, x.L
	tmp, err := filepath.Abs(tmp)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(tmp, "perf-dir-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	x.tr.round = 2
	root := x.tr.begin("dir_repeat", -1)
	cb := &countingBackend{inner: backend.Dir{}, tr: x.tr}
	cb.parent.Store(root)
	at := filepath.ToSlash(filepath.Join(dir, "prov"))
	store, err := core.NewStore(cb, at, core.FormatBinary)
	if err != nil {
		return err
	}
	var trackers []*core.Tracker
	if rn.w.spec.side == live {
		rs := &rn.w.ranks[0]
		trk := core.NewTracker(rn.cfg, store, rs.pid)
		trackers = []*core.Tracker{trk}
		regs := make([]rdf.Term, len(rs.ops))
		for i := range rs.ops {
			rs.step(trk, regs, i)
		}
		err = trk.Drain()
	} else {
		trackers, _, err = rn.trackAll(store)
	}
	defer release(trackers)
	if !rn.orc.op(err, "dir: track") {
		return err
	}
	_, err = store.PackSegments(1)
	if !rn.orc.op(err, "dir: PackSegments") {
		return err
	}
	st, err := core.NewStore(cb, at, core.FormatBinary)
	if err != nil {
		return err
	}
	g, _, err := st.MergePruned(nil, queryWorkers)
	if rn.orc.op(err, "dir: MergePruned") {
		rn.orc.check(g.Len() == rn.w.wantTriples, "dir: merged graph has %d triples, want %d", g.Len(), rn.w.wantTriples)
	}
	x.tr.end(root)
	c := cb.counts()
	L["backend.dir_write_ms"] = float64(c.writeNS) / 1e6
	L["backend.dir_read_ms"] = float64(c.readNS) / 1e6
	return nil
}
