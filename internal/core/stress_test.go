package core

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/hpc-io/prov-io/internal/backend"
	"github.com/hpc-io/prov-io/internal/model"
	"github.com/hpc-io/prov-io/internal/rdf"
	"github.com/hpc-io/prov-io/internal/rdf/segcodec"
	"github.com/hpc-io/prov-io/internal/vfs"
)

// stressTracker hammers one Tracker from many goroutines with periodic
// flushing enabled and asserts that no record is lost or duplicated: the
// in-memory stats, the in-memory graph, and the merged store contents must
// all agree exactly.
func stressTracker(t *testing.T, pipeline Pipeline, workers, perWorker int) {
	t.Helper()
	backend := &queueFiller{VFSBackend: VFSBackend{View: vfs.NewStore().NewView()}}
	store, err := NewStore(backend, "/prov", FormatBinary)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Mode = ModePeriodic
	cfg.FlushEvery = 7 // deliberately not a divisor of the record count
	cfg.Pipeline = pipeline
	tr := NewTracker(cfg, store, 0)
	if pipeline == PipelineAsync {
		backend.tr = tr // fill the queue to exercise backpressure blocking
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			prog := tr.RegisterProgram(fmt.Sprintf("worker-%d", w), rdf.Term{})
			for i := 0; i < perWorker; i++ {
				// Distinct object per (worker, i): duplicates in the store
				// would be visible as extra activity nodes.
				obj := tr.TrackDataObject(model.Dataset,
					fmt.Sprintf("/f.h5/w%d/d%d", w, i), "", rdf.Term{}, prog)
				tr.TrackIO(model.Write, "H5Dwrite", obj, prog, 0, 0)
			}
		}(w)
	}
	wg.Wait()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	backend.check(t)

	wantRecords := int64(workers * (1 + 2*perWorker))
	recs, triples := tr.Stats()
	if recs != wantRecords {
		t.Errorf("records = %d, want %d", recs, wantRecords)
	}
	g := tr.Graph()
	if triples != int64(g.Len()) {
		// Every record's triples are distinct here, so tracked triples must
		// equal the graph size exactly.
		t.Errorf("triples = %d, graph holds %d", triples, g.Len())
	}

	acts := g.Find(nil, rdf.IRI(rdf.RDFType).Ptr(), model.Write.IRI().Ptr())
	if len(acts) != workers*perWorker {
		t.Errorf("activities in memory = %d, want %d", len(acts), workers*perWorker)
	}

	// The store must hold exactly the in-memory graph: nothing lost by the
	// async writer, nothing duplicated by overlapping periodic flushes.
	merged, err := store.Merge()
	if err != nil {
		t.Fatal(err)
	}
	if merged.Len() != g.Len() {
		t.Fatalf("store holds %d triples, tracker graph %d", merged.Len(), g.Len())
	}
	missing := 0
	g.ForEachMatch(nil, nil, nil, func(tr rdf.Triple) bool {
		if !merged.Has(tr) {
			missing++
		}
		return missing < 5
	})
	if missing > 0 {
		t.Errorf("%d in-memory triples missing from the store", missing)
	}
}

// queueFiller is a store backend whose first write, once tr is set, waits
// until tr's async writer queue is full. The writer makes that write, so the
// tracking goroutines fill the queue behind it and then block on it: the
// stress tests exercise backpressure at the fixed depth flushQueue however
// fast the backend is.
type queueFiller struct {
	VFSBackend
	tr     *Tracker
	once   sync.Once
	filled bool
}

func (b *queueFiller) WriteFile(path string, data []byte) error {
	if b.tr != nil {
		b.once.Do(func() {
			b.tr.mu.Lock()
			ch := b.tr.flushCh
			b.tr.mu.Unlock()
			for end := time.Now().Add(10 * time.Second); len(ch) < flushQueue && time.Now().Before(end); {
				time.Sleep(time.Millisecond)
			}
			b.filled = len(ch) == flushQueue
		})
	}
	return b.VFSBackend.WriteFile(path, data)
}

// check fails t if tr was set and its writer queue never filled.
func (b *queueFiller) check(t *testing.T) {
	t.Helper()
	if b.tr != nil && !b.filled {
		t.Errorf("the async writer queue never held %d delta segments", flushQueue)
	}
}

func TestStressAsyncPipeline(t *testing.T) {
	workers, perWorker := 8, 150
	if testing.Short() {
		workers, perWorker = 4, 60
	}
	stressTracker(t, PipelineAsync, workers, perWorker)
}

func TestStressDeltaPipeline(t *testing.T) {
	workers, perWorker := 8, 100
	if testing.Short() {
		workers, perWorker = 4, 40
	}
	stressTracker(t, PipelineDelta, workers, perWorker)
}

func TestStressInlinePipeline(t *testing.T) {
	workers, perWorker := 4, 40
	stressTracker(t, PipelineInline, workers, perWorker)
}

// TestStressFlushDuringTracking interleaves explicit Flush/Drain calls with
// concurrent tracking: the final Close must still persist everything
// exactly once.
func TestStressFlushDuringTracking(t *testing.T) {
	view := vfs.NewStore().NewView()
	store, err := NewStore(VFSBackend{View: view}, "/prov", FormatBinary)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Mode = ModePeriodic
	cfg.FlushEvery = 5
	tr := NewTracker(cfg, store, 0)

	const workers, perWorker = 6, 80
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				tr.TrackIO(model.Write, "H5Dwrite", rdf.Term{}, rdf.Term{}, 0, 0)
				if i%17 == 0 {
					if err := tr.Flush(); err != nil {
						t.Error(err)
					}
				}
				if i%13 == 0 {
					if err := tr.Drain(); err != nil {
						t.Error(err)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	merged, err := store.Merge()
	if err != nil {
		t.Fatal(err)
	}
	acts := merged.Find(nil, rdf.IRI(rdf.RDFType).Ptr(), model.Write.IRI().Ptr())
	if len(acts) != workers*perWorker {
		t.Errorf("persisted activities = %d, want %d", len(acts), workers*perWorker)
	}
}

// TestConcurrentFlushRemovesSegmentsOnce: Flush called from several
// goroutines at once must not fail because two of them raced to remove the
// same delta segment. Each round leaves a batch of segments behind, then
// releases the flushers together; before the tracker serialized its canonical-write + segment-removal step the loser
// of the race returned "remove ...: file does not exist".
func TestConcurrentFlushRemovesSegmentsOnce(t *testing.T) {
	view := vfs.NewStore().NewView()
	store, err := NewStore(VFSBackend{View: view}, "/prov", FormatBinary)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Mode = ModePeriodic
	cfg.FlushEvery = 1
	cfg.Pipeline = PipelineDelta // segments are on disk when TrackIO returns
	tr := NewTracker(cfg, store, 0)

	const flushers, rounds, segsPerRound = 8, 60, 16
	for round := 0; round < rounds; round++ {
		for i := 0; i < segsPerRound; i++ {
			tr.TrackIO(model.Write, "H5Dwrite", rdf.Term{}, rdf.Term{}, 0, 0)
		}
		start := make(chan struct{})
		var wg sync.WaitGroup
		for f := 0; f < flushers; f++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				if err := tr.Flush(); err != nil {
					t.Error(err)
				}
			}()
		}
		close(start)
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	names, err := store.backend.List(store.dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		if strings.Contains(n, ".seg") {
			t.Errorf("segment file %s survived the final flush", n)
		}
	}
	merged, err := store.Merge()
	if err != nil {
		t.Fatal(err)
	}
	if acts := merged.Find(nil, rdf.IRI(rdf.RDFType).Ptr(), model.Write.IRI().Ptr()); len(acts) != rounds*segsPerRound {
		t.Errorf("persisted activities = %d, want %d", len(acts), rounds*segsPerRound)
	}
}

// writeLog is a backend that keeps a copy of every file written through it,
// in the order the writes completed.
type writeLog struct {
	Backend
	mu     sync.Mutex
	writes []loggedWrite
}

type loggedWrite struct {
	name string
	data []byte
}

func (b *writeLog) WriteFile(path string, data []byte) error {
	if err := b.Backend.WriteFile(path, data); err != nil {
		return err
	}
	b.mu.Lock()
	b.writes = append(b.writes, loggedWrite{filepath.Base(path), bytes.Clone(data)})
	b.mu.Unlock()
	return nil
}

// TestConcurrentFlushesMatchEncoder: four goroutines each run a periodic
// async tracker on one store, close it, and track on, so their delta
// segments, canonical files and post-Close inline segments are encoded,
// sealed and written from the shared pools at once. Every file a tracker
// wrote is byte for byte what EncodeRefs and AppendChain make of the same
// stretch of its insertion log, chained on the file it wrote before.
func TestConcurrentFlushesMatchEncoder(t *testing.T) {
	const workers = 4
	rec := &writeLog{Backend: backend.NewMem()}
	store, err := NewStore(rec, "/prov", FormatBinary)
	if err != nil {
		t.Fatal(err)
	}
	trackers := make([]*Tracker, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for pid := range trackers {
		cfg := DefaultConfig()
		cfg.Mode = ModePeriodic
		cfg.FlushEvery = 5 + 2*pid
		cfg.Pipeline = PipelineAsync
		cfg.Duration = true
		trackers[pid] = NewTracker(cfg, store, pid)
		wg.Add(1)
		go func(tr *Tracker) {
			defer wg.Done()
			prog := tr.RegisterProgram(fmt.Sprintf("rank%d.exe", tr.pid), tr.RegisterUser("alice"))
			track := func(from, to int) {
				for i := from; i < to; i++ {
					obj := tr.TrackDataObject(model.File, fmt.Sprintf("/data/r%d/f%d", tr.pid, i%11), "", rdf.Term{}, prog)
					tr.TrackIO(model.Write, "H5Dwrite", obj, prog, time.Duration(i)*time.Millisecond, time.Microsecond)
				}
			}
			track(0, 150)
			if errs[tr.pid] = tr.Close(); errs[tr.pid] != nil {
				return
			}
			track(150, 190) // periodic flushes after Close write inline
			errs[tr.pid] = tr.Drain()
		}(trackers[pid])
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	enc := segcodec.Binary.(segcodec.RefsEncoder)
	written := make([]int, workers)
	for pid, tr := range trackers {
		g := tr.Graph()
		log, _ := g.LogSince(0)
		var prev [32]byte
		end := 0 // the log position the last file reached
		for _, w := range rec.writes {
			n, ok := parseStoreName(w.name)
			if !ok || n.pid != pid {
				continue
			}
			written[pid]++
			c, err := segcodec.DecodeColumns(w.data)
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			// A graph logs each triple once, so a file of k triples holds the
			// k log entries after the previous file's, or from the start for
			// a canonical file.
			from, seal := end, segcodec.Chain{Seq: uint64(n.seg), Prev: prev}
			if n.kind == kindCanonical {
				from, seal = 0, segcodec.Chain{Root: true, Prev: prev}
			}
			end = from + len(c.Tris)
			if end > len(log) {
				t.Fatalf("%s holds %d triples past the end of the log", w.name, end-len(log))
			}
			var buf bytes.Buffer
			if err := enc.EncodeRefs(&buf, log[from:end], g); err != nil {
				t.Fatal(err)
			}
			if want := segcodec.AppendChain(buf.Bytes(), seal); !bytes.Equal(w.data, want) {
				t.Fatalf("%s (%d bytes) differs from EncodeRefs + AppendChain of log [%d, %d) (%d bytes)", w.name, len(w.data), from, end, len(want))
			}
			prev = fileDigest(w.data)
		}
		if end != tr.cursor {
			t.Fatalf("pid %d: its files reach log position %d, its flush cursor %d", pid, end, tr.cursor)
		}
	}
	for pid, n := range written {
		if n < 10 {
			t.Errorf("pid %d wrote %d files, want segments before and after its canonical file", pid, n)
		}
	}
}
