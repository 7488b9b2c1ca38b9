package core

import (
	"fmt"
	"sync"
	"testing"

	"github.com/hpc-io/prov-io/internal/model"
	"github.com/hpc-io/prov-io/internal/rdf"
	"github.com/hpc-io/prov-io/internal/vfs"
)

// TestStressIngestWithConcurrentReaders drives the batched ingest path
// (AddBatch + lock-free term dictionary probes + pooled record scratch) from
// many writer goroutines while reader goroutines concurrently scan, query,
// and replay the same live graph. Run under -race in CI, this is the ingest
// torture test: readers take the graph RLock and probe the dictionary in
// every order the query planner can produce while writers intern terms, grow
// the dictionary's slot table and append to the insertion log.
func TestStressIngestWithConcurrentReaders(t *testing.T) {
	workers, perWorker := 8, 150
	if testing.Short() {
		workers, perWorker = 4, 50
	}

	view := vfs.NewStore().NewView()
	store, err := NewStore(VFSBackend{View: view}, "/prov", FormatBinary)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Mode = ModePeriodic
	cfg.FlushEvery = 9
	cfg.Pipeline = PipelineAsync
	cfg.FlushQueue = 2
	tr := NewTracker(cfg, store, 0)
	g := tr.Graph()

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			typeT := rdf.IRI(rdf.RDFType)
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Bounded full scan through the type index.
				n := 0
				g.ForEachMatch(nil, typeT.Ptr(), nil, func(rdf.Triple) bool {
					n++
					return n < 64
				})
				// ID-space statistics and cardinality estimates race against
				// term interning and stat maintenance.
				if id, ok := g.TermID(model.WasWrittenBy.IRI()); ok {
					g.PredStats(id)
					g.CountMatchIDs(rdf.NoID, id, rdf.NoID)
				}
				// Insertion-log replay from a moving cursor, as the flush
				// pipeline does (tail window only — a half-log replay per
				// spin is quadratic and drowns the race run in allocation).
				g.RefsSince(g.Len() - 96)
				g.Len()
				g.TermCount()
				g.IndexStats()
			}
		}()
	}

	var writers sync.WaitGroup
	for w := 0; w < workers; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			prog := tr.RegisterProgram(fmt.Sprintf("reader-stress-%d", w), rdf.Term{})
			for i := 0; i < perWorker; i++ {
				obj := tr.TrackDataObject(model.Dataset,
					fmt.Sprintf("/f.h5/rw%d/d%d", w, i), "", rdf.Term{}, prog)
				tr.TrackIO(model.Write, "H5Dwrite", obj, prog, 0, 0)
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	readers.Wait()

	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	// Readers must not have perturbed ingest: exact record accounting, and
	// the store agrees with memory.
	wantRecords := int64(workers * (1 + 2*perWorker))
	recs, triples := tr.Stats()
	if recs != wantRecords {
		t.Errorf("records = %d, want %d", recs, wantRecords)
	}
	if triples != int64(g.Len()) {
		t.Errorf("triples = %d, graph holds %d", triples, g.Len())
	}
	acts := g.Find(nil, rdf.IRI(rdf.RDFType).Ptr(), model.Write.IRI().Ptr())
	if len(acts) != workers*perWorker {
		t.Errorf("activities in memory = %d, want %d", len(acts), workers*perWorker)
	}
	merged, err := store.Merge()
	if err != nil {
		t.Fatal(err)
	}
	if merged.Len() != g.Len() {
		t.Fatalf("store holds %d triples, tracker graph %d", merged.Len(), g.Len())
	}
}
