package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/hpc-io/prov-io/internal/model"
	"github.com/hpc-io/prov-io/internal/rdf"
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
