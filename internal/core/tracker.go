package core

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hpc-io/prov-io/internal/model"
	"github.com/hpc-io/prov-io/internal/rdf"
	"github.com/hpc-io/prov-io/internal/simclock"
)

// Tracker is the PROV-IO Library instance owned by one process: it builds
// the in-memory provenance sub-graph, applies the Config's sub-class
// switches, charges modeled tracking cost to the process's virtual clock,
// and flushes to the Provenance Store.
//
// A Tracker is safe for concurrent use by the threads (simulated MPI ranks /
// OpenMP workers) of its process.
type Tracker struct {
	cfg   *Config
	store *Store
	pid   int

	mu    sync.Mutex
	graph *rdf.Graph
	// in resolves records against graph: its dictionary IDs for the values a
	// record mints and the terms its caller names, and this graph's IDs of the
	// static vocabulary.
	in      model.GraphInterner
	records int // records since last flush
	closed  bool

	// seqs holds the per-API invocation counters off the tracker mutex:
	// apiName -> *atomic.Int64. TrackIO is the hottest tracking call, and
	// with the graph's own ingest path batched and its term probes lock-free,
	// a shared map under mu would be the one remaining cross-thread
	// serialization point.
	seqs sync.Map

	// render names the graph a delta flush's refs index.
	render *rdf.TermRenderer

	// Flush pipeline state (all guarded by mu).
	cursor   int   // graph insertion-log position already handed to the store
	segSeq   int   // next delta segment number
	deferred error // first error from a periodic/async flush, surfaced on Flush/Close/Drain

	// flushMu serializes Flush's canonical-write + segment-removal step: two
	// concurrent Flush calls would otherwise both list the same segments in
	// Store.RemoveSegments and the loser's Remove would fail on a file the
	// winner already deleted. Lock order: flushMu before mu.
	flushMu sync.Mutex

	// Async writer. flushCh is nil until the first async flush and again
	// after Close stops the writer; pendingN counts enqueued-but-unwritten
	// segments (incremented under mu, so a drain observes every prior
	// enqueue), and drained is signalled when it returns to zero.
	flushCh  chan flushJob
	pendingN int
	drained  *sync.Cond

	// Modeled writer timeline for deterministic simclock accounting: the
	// virtual completion times of queued segments. Backpressure is charged
	// from this model, not from real goroutine scheduling, so experiment
	// results stay reproducible. wHead indexes the oldest live entry —
	// retiring advances it instead of re-slicing, so the backing array is
	// reused rather than leaked entry by entry, and the slice is reset
	// whenever it fully drains.
	wQueue []time.Duration
	wHead  int

	clock *simclock.Clock
	cost  simclock.CostModel
	// charge gates virtual-time accounting.
	charge bool

	// stats
	nRecords int64
	nTriples int64
}

// flushJob is one delta segment handed to the background writer: the
// insertion-log refs of the delta, read in place (the log is append-only),
// and encoded straight to ID columns at write time.
type flushJob struct {
	seg  int
	refs []rdf.TripleID
}

// NewTracker creates a tracker for process pid writing to store. A nil
// store is allowed (in-memory only, flush becomes a no-op).
func NewTracker(cfg *Config, store *Store, pid int) *Tracker {
	t := &Tracker{
		cfg:   cfg,
		store: store,
		pid:   pid,
		graph: rdf.NewGraph(),
	}
	t.in.Graph = t.graph
	t.render = rdf.NewTermRenderer(t.graph)
	t.drained = sync.NewCond(&t.mu)
	return t
}

// WithClock attaches a virtual clock so tracking operations charge modeled
// cost, and returns the tracker for chaining. The one-time provenance
// library initialization cost (store setup, Redland-analog startup) is
// charged immediately.
func (t *Tracker) WithClock(clock *simclock.Clock, cost simclock.CostModel) *Tracker {
	t.clock = clock
	t.cost = cost
	t.charge = clock != nil
	if t.charge {
		clock.Advance(cost.TrackerInit)
	}
	return t
}

// Config returns the tracker's configuration.
func (t *Tracker) Config() *Config { return t.cfg }

// Graph returns the live in-memory sub-graph. Callers must treat it as
// read-only.
func (t *Tracker) Graph() *rdf.Graph { return t.graph }

// Stats returns the number of records and triples tracked so far.
func (t *Tracker) Stats() (records, triples int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.nRecords, t.nTriples
}

// scratchPool recycles the per-record triple slice and value buffer across
// tracking calls. AddRefs copies a record's triples into the graph's log and
// its minted values are copied onto the dictionary's pages, so once
// addRecord returns nothing references the scratch and it can be handed to the
// next record. The scratch holds IDs but no graph: it is emptied of meaning
// the moment its record is inserted.
var scratchPool = sync.Pool{New: func() any {
	// Sized for any record, so refilling the pool after a collection costs
	// three objects and not one per doubling.
	return &recordScratch{refs: make([]rdf.TripleID, 0, 8), buf: make([]byte, 0, 128)}
}}

type recordScratch struct {
	refs []rdf.TripleID
	buf  []byte // the values a record mints are formatted here
}

// addRecord inserts a record's triples, charges its cost, and handles
// periodic flushing. Caller passes the triples already built, in the graph's
// IDs; one naming rdf.NoID (a term RDF does not allow where the record put
// it) is skipped by the graph and charged like any other.
func (t *Tracker) addRecord(triples []rdf.TripleID) {
	// One lock acquisition in the graph for the whole record; interning
	// happened against the dictionary while the record was built.
	t.graph.AddRefs(triples)
	var graphSize int
	if t.charge {
		// Only the cost model reads the size; an unclocked tracker skips the
		// graph read lock.
		graphSize = t.graph.Len()
	}
	t.mu.Lock()
	t.nRecords++
	t.nTriples += int64(len(triples))
	t.records++
	needFlush := t.cfg.Mode == ModePeriodic && t.records >= t.cfg.FlushEvery && t.store != nil
	var job flushJob
	var ch chan flushJob
	if needFlush {
		t.records = 0
		switch t.cfg.Pipeline {
		case PipelineInline:
			// Handled below, outside the lock (full re-serialization).
		default:
			// Pin the delta since the last flush under mu: LogSince
			// captures the refs and the end-of-log position under one graph
			// lock, and the cursor advances atomically with the capture
			// under mu, so concurrent periodic flushes produce disjoint
			// segments and no record is lost or duplicated.
			job.refs, t.cursor = t.graph.LogSince(t.cursor)
			if len(job.refs) == 0 {
				needFlush = false
				break
			}
			job.seg = t.segSeq
			t.segSeq++
			if t.cfg.Pipeline == PipelineAsync && !t.closed {
				ch = t.startWriterLocked()
				t.pendingN++
				t.chargeAsyncFlushLocked(len(job.refs))
			}
		}
	}
	t.mu.Unlock()

	if t.charge {
		t.clock.Advance(t.cost.TrackCostAt(len(triples), graphSize))
	}
	if !needFlush {
		return
	}
	switch {
	case ch != nil:
		// Real backpressure: block on the bounded queue (virtual-time
		// backpressure was already charged from the modeled writer above).
		ch <- job
	case t.cfg.Pipeline == PipelineInline:
		// The original behavior: re-serialize the whole sub-graph inline,
		// charging the overlap-visible fraction of the cost.
		if t.charge {
			t.clock.Advance(t.cost.SerializeCost(t.graph.Len()) / 8)
		}
		t.recordFlushErr(t.store.WriteSubgraph(t.pid, t.graph))
	default:
		// Inline delta (PipelineDelta, or async after Close stopped the
		// writer): the write is on the critical path but only O(delta).
		if t.charge {
			t.clock.Advance(t.cost.SerializeCost(len(job.refs)))
		}
		t.recordFlushErr(t.store.WriteDeltaSegmentRefs(t.pid, job.seg, job.refs, t.render))
	}
}

// startWriterLocked lazily starts the background flush writer and returns
// its queue. Caller holds t.mu.
func (t *Tracker) startWriterLocked() chan flushJob {
	if t.flushCh == nil {
		t.flushCh = make(chan flushJob, flushQueue)
		go t.writerLoop(t.flushCh)
	}
	return t.flushCh
}

// writerLoop is the per-tracker background writer: it drains delta segments
// off the bounded queue and appends them to the store. Errors are recorded
// and surface on the next Flush/Close/Drain instead of being dropped.
func (t *Tracker) writerLoop(ch chan flushJob) {
	for job := range ch {
		t.recordFlushErr(t.store.WriteDeltaSegmentRefs(t.pid, job.seg, job.refs, t.render))
		t.mu.Lock()
		t.pendingN--
		if t.pendingN == 0 {
			t.drained.Broadcast()
		}
		t.mu.Unlock()
	}
}

// waitDrained blocks until every enqueued delta segment has been written.
func (t *Tracker) waitDrained() {
	t.mu.Lock()
	for t.pendingN > 0 {
		t.drained.Wait()
	}
	t.mu.Unlock()
}

// chargeAsyncFlushLocked charges the virtual-time cost of handing a delta
// to the async writer: the enqueue itself, plus a stall when the modeled
// bounded queue is full (backpressure — the writer has not caught up).
// The model is driven entirely by the virtual clock, so results are
// deterministic regardless of real goroutine scheduling. Caller holds t.mu.
func (t *Tracker) chargeAsyncFlushLocked(deltaTriples int) {
	if !t.charge {
		return
	}
	t.clock.Advance(t.cost.FlushEnqueue)
	now := t.clock.Now()
	// Retire modeled segments the writer has already finished by advancing
	// the head index. Re-slicing (wQueue = wQueue[1:]) would keep every
	// retired entry reachable through the backing array for the tracker's
	// lifetime; the head index lets the compaction below reuse the array.
	for t.wHead < len(t.wQueue) && t.wQueue[t.wHead] <= now {
		t.wHead++
	}
	if len(t.wQueue)-t.wHead >= flushQueue {
		// Queue full: stall until the oldest modeled segment completes.
		t.clock.AdvanceTo(t.wQueue[t.wHead])
		now = t.wQueue[t.wHead]
		t.wHead++
	}
	start := now
	if n := len(t.wQueue); n > t.wHead && t.wQueue[n-1] > start {
		start = t.wQueue[n-1] // writer busy with earlier segments
	}
	// Compact: the live window is at most flushQueue entries, so slide it
	// back to the array start whenever the queue drains or the dead prefix
	// grows, keeping the backing array bounded by O(flushQueue) instead of
	// O(flushes).
	if t.wHead == len(t.wQueue) {
		t.wQueue = t.wQueue[:0]
		t.wHead = 0
	} else if t.wHead >= 2*flushQueue {
		n := copy(t.wQueue, t.wQueue[t.wHead:])
		t.wQueue = t.wQueue[:n]
		t.wHead = 0
	}
	t.wQueue = append(t.wQueue, start+t.cost.SerializeCost(deltaTriples))
}

// recordFlushErr stores the first flush error for the next Flush/Close/Drain.
func (t *Tracker) recordFlushErr(err error) {
	if err == nil {
		return
	}
	t.mu.Lock()
	if t.deferred == nil {
		t.deferred = fmt.Errorf("core: deferred periodic flush error: %w", err)
	}
	t.mu.Unlock()
}

// takeDeferred returns primary if non-nil, else any deferred flush error
// (clearing it — the in-memory graph is intact, so a later Flush retries).
func (t *Tracker) takeDeferred(primary error) error {
	t.mu.Lock()
	def := t.deferred
	t.deferred = nil
	t.mu.Unlock()
	if primary != nil {
		return primary
	}
	return def
}

// track builds rec's triples into a pooled scratch in the graph's IDs,
// inserts them as one batch, recycles the scratch, and returns the record
// node. Generic (not an interface parameter) so the record value is not boxed
// on the hot path.
func track[R model.Record](t *Tracker, rec R) rdf.Term {
	sc := scratchPool.Get().(*recordScratch)
	var node rdf.ID
	sc.refs, sc.buf, node = rec.AppendRefs(&t.in, sc.refs[:0], sc.buf)
	t.addRecord(sc.refs)
	scratchPool.Put(sc)
	return t.graph.TermOf(node)
}

// nextSeq returns the next per-API invocation sequence number (1-based),
// using a lock-free counter per API name.
func (t *Tracker) nextSeq(apiName string) int {
	v, ok := t.seqs.Load(apiName)
	if !ok {
		v, _ = t.seqs.LoadOrStore(apiName, new(atomic.Int64))
	}
	return int(v.(*atomic.Int64).Add(1))
}

// RegisterUser records a User agent and returns its node.
func (t *Tracker) RegisterUser(name string) rdf.Term {
	if !t.cfg.Enabled(model.User) {
		return rdf.Term{}
	}
	return track(t, model.AgentRecord{Class: model.User, ID: name, Rank: -1})
}

// RegisterProgram records a Program agent (optionally on behalf of a user)
// and returns its node.
func (t *Tracker) RegisterProgram(name string, user rdf.Term) rdf.Term {
	if !t.cfg.Enabled(model.Program) {
		return rdf.Term{}
	}
	return track(t, model.AgentRecord{Class: model.Program, ID: name, Rank: -1, OnBehalfOfTerm: user})
}

// RegisterThread records a Thread agent with its MPI rank (optionally on
// behalf of a program) and returns its node.
func (t *Tracker) RegisterThread(rank int, program rdf.Term) rdf.Term {
	if !t.cfg.Enabled(model.Thread) {
		return rdf.Term{}
	}
	var buf [32]byte
	return track(t, model.AgentRecord{
		Class:          model.Thread,
		ID:             string(strconv.AppendInt(append(buf[:0], "MPI_rank_"...), int64(rank), 10)),
		Rank:           rank,
		OnBehalfOfTerm: program,
	})
}

// TrackDataObject records an Entity node of the given Data Object sub-class
// and returns its node. container and attributedTo may be zero.
func (t *Tracker) TrackDataObject(class model.Class, id, name string, container, attributedTo rdf.Term) rdf.Term {
	if !t.cfg.Enabled(class) {
		return rdf.Term{}
	}
	return track(t, model.DataObjectRecord{Class: class, ID: id, Name: name,
		ContainerTerm: container, AttributedToTerm: attributedTo})
}

// TrackIO records one I/O API invocation of the given Activity sub-class.
// The object/agent may be zero terms when their classes are disabled.
// Returns the activity node (zero when the class is disabled).
func (t *Tracker) TrackIO(class model.Class, apiName string, object, agent rdf.Term, started, elapsed time.Duration) rdf.Term {
	if !t.cfg.Enabled(class) {
		return rdf.Term{}
	}
	rec := model.IOActivityRecord{
		Class: class, API: apiName, PID: t.pid, Seq: t.nextSeq(apiName),
		Object: object, Agent: agent,
		Started: started, Elapsed: elapsed,
		TrackDuration: t.cfg.Duration,
	}
	return track(t, rec)
}

// TrackDerivation records prov:wasDerivedFrom between two entities —
// the backward-lineage edge of the DASSA use case.
func (t *Tracker) TrackDerivation(product, source rdf.Term) {
	if product.IsZero() || source.IsZero() {
		return
	}
	track(t, model.DerivationRecord{Product: product, Source: source})
}

// TrackType records the workflow Type extensible record.
func (t *Tracker) TrackType(owner rdf.Term, workflowType string) rdf.Term {
	if !t.cfg.Enabled(model.Type) {
		return rdf.Term{}
	}
	rec := model.ExtensibleRecord{
		Class: model.Type, OwnerTerm: owner, Key: "type",
		Value: rdf.Literal(workflowType), Version: -1,
	}
	return track(t, rec)
}

// TrackConfiguration records one Configuration key/value at a version.
func (t *Tracker) TrackConfiguration(owner rdf.Term, key string, value rdf.Term, version int) rdf.Term {
	if !t.cfg.Enabled(model.Configuration) {
		return rdf.Term{}
	}
	rec := model.ExtensibleRecord{
		Class: model.Configuration, OwnerTerm: owner, Key: key,
		Value: value, Version: version,
	}
	return track(t, rec)
}

// TrackConfigurationAccuracy records a Configuration version annotated with
// the training accuracy it produced (the Top Reco mapping need).
func (t *Tracker) TrackConfigurationAccuracy(owner rdf.Term, key string, value rdf.Term, version int, accuracy float64) rdf.Term {
	if !t.cfg.Enabled(model.Configuration) {
		return rdf.Term{}
	}
	rec := model.ExtensibleRecord{
		Class: model.Configuration, OwnerTerm: owner, Key: key,
		Value: value, Version: version,
		Accuracy: accuracy, HasAccuracy: true,
	}
	return track(t, rec)
}

// TrackMetric records one Metrics key/value (e.g. training accuracy per
// epoch) at a version.
func (t *Tracker) TrackMetric(owner rdf.Term, key string, value rdf.Term, version int) rdf.Term {
	if !t.cfg.Enabled(model.Metrics) {
		return rdf.Term{}
	}
	rec := model.ExtensibleRecord{
		Class: model.Metrics, OwnerTerm: owner, Key: key,
		Value: value, Version: version,
	}
	return track(t, rec)
}

// Drain blocks until the background flush writer has persisted every delta
// segment enqueued so far, then returns (and clears) any deferred periodic
// flush error. Unlike Flush it does not rewrite the canonical sub-graph
// file — it is the cheap synchronization point of the async pipeline.
func (t *Tracker) Drain() error {
	t.waitDrained()
	return t.takeDeferred(nil)
}

// Flush serializes the current sub-graph to the store synchronously: it
// drains the async writer, rewrites the canonical per-process file from the
// full in-memory graph, and compacts away any delta segments. It returns
// the first error of this flush or, failing that, any deferred error from
// earlier periodic flushes.
func (t *Tracker) Flush() error {
	if t.store == nil {
		return t.takeDeferred(nil)
	}
	t.waitDrained()
	t.flushMu.Lock()
	defer t.flushMu.Unlock()
	// Advance the cursor before snapshotting: triples logged before the
	// cursor are guaranteed to be in the canonical write below; triples
	// racing in afterwards may be included too, and will simply reappear in
	// a later segment (the union dedupes).
	t.mu.Lock()
	prevCursor := t.cursor
	t.cursor = t.graph.Len()
	hadSegments := t.segSeq > 0
	t.mu.Unlock()
	// The graph is internally synchronized and is serialized without cloning
	// it (cloning would double peak memory when thousands of rank trackers
	// flush together): the encoder reads the insertion log in place and
	// builds no reader-side index.
	if t.charge {
		t.clock.Advance(t.cost.SerializeCost(t.graph.Len()))
	}
	err := t.store.WriteSubgraph(t.pid, t.graph)
	if err == nil && hadSegments {
		err = t.store.RemoveSegments(t.pid)
	}
	if err != nil {
		// Nothing was persisted for [prevCursor, cursor): roll back so a
		// later periodic flush re-captures those triples.
		t.mu.Lock()
		if prevCursor < t.cursor {
			t.cursor = prevCursor
		}
		t.mu.Unlock()
	}
	return t.takeDeferred(err)
}

// Close flushes, compacts the process's segments into its canonical file,
// stops the background writer, and marks the tracker closed. Further
// tracking calls still work (the paper's library tolerates trailing
// records; periodic flushes fall back to inline delta writes) but Close
// should be the last call.
func (t *Tracker) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	t.mu.Unlock()
	err := t.Flush()
	// Stop the writer. New periodic flushes observe closed under mu and
	// write inline, and Flush drained the queue, so closing is race-free:
	// every pending send completed before pending.Wait returned.
	t.mu.Lock()
	ch := t.flushCh
	t.flushCh = nil
	t.mu.Unlock()
	if ch != nil {
		close(ch)
	}
	return err
}
