package core

import (
	"fmt"
	"strconv"
	"sync"
	"testing"
	"time"

	"github.com/hpc-io/prov-io/internal/model"
	"github.com/hpc-io/prov-io/internal/rdf"
	"github.com/hpc-io/prov-io/internal/sparql"
	"github.com/hpc-io/prov-io/internal/vfs"
)

// TestQueryUnderIngestStress runs SPARQL queries (serial on a pinned
// snapshot, and through the morsel-driven parallel executor) against one
// tracker's graph while rank-style goroutines ingest records and another
// goroutine periodically flushes to the store. Designed for -race, and
// asserts the snapshot guarantees queries rely on:
//
//   - snapshots never tear: successive snapshots pin monotonically
//     non-decreasing log prefixes;
//   - records are atomic: a TrackIO(Write) commits its rdf:type triple, its
//     provio:wasWrittenBy edge, and its prov:wasAssociatedWith edge in one
//     batch, so in ANY snapshot the typed-write count equals the join count
//     over the other two edges — a partial record would split them;
//   - counts only grow: a query pinned after another query's snapshot can
//     never see fewer writes.
func TestQueryUnderIngestStress(t *testing.T) {
	workers, perWorker := 4, 1200
	if testing.Short() {
		perWorker = 300
	}

	view := vfs.NewStore().NewView()
	store, err := NewStore(VFSBackend{View: view}, "/prov", FormatBinary)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Mode = ModeAtEnd // flushing is driven explicitly by the flusher goroutine
	tr := NewTracker(cfg, store, 0)
	g := tr.Graph()

	joinQ, err := sparql.Parse(fmt.Sprintf(
		`SELECT (COUNT(?api) AS ?n) WHERE {
			?obj <%s> ?api .
			?api <%s> ?prog .
		}`, model.WasWrittenBy.IRI().Value, model.AssociatedWith.IRI().Value),
		model.Namespaces())
	if err != nil {
		t.Fatal(err)
	}
	countOf := func(res *sparql.Result) (int, error) {
		if len(res.Rows) != 1 {
			return 0, fmt.Errorf("count query returned %d rows", len(res.Rows))
		}
		return strconv.Atoi(res.Rows[0]["n"].Value)
	}

	ingestDone := make(chan struct{})
	errCh := make(chan error, workers+2)

	// Rank-style ingest: distinct objects, one Write activity per object.
	var ingest sync.WaitGroup
	for w := 0; w < workers; w++ {
		ingest.Add(1)
		go func(w int) {
			defer ingest.Done()
			prog := tr.RegisterProgram(fmt.Sprintf("stress-w%d", w), rdf.Term{})
			for i := 0; i < perWorker; i++ {
				obj := tr.TrackDataObject(model.Dataset,
					fmt.Sprintf("/stress/w%d/d%d", w, i), "", rdf.Term{}, prog)
				tr.TrackIO(model.Write, "H5Dwrite", obj, prog, 0, 0)
			}
		}(w)
	}

	// Periodic flusher: synchronous store rewrites racing the readers.
	var aux sync.WaitGroup
	aux.Add(1)
	go func() {
		defer aux.Done()
		for {
			select {
			case <-ingestDone:
				return
			case <-time.After(2 * time.Millisecond):
			}
			if err := tr.Flush(); err != nil {
				errCh <- fmt.Errorf("flush: %w", err)
				return
			}
		}
	}()

	// Querier: pin a snapshot, check invariants, and every few rounds push
	// the same count through the parallel executor.
	aux.Add(1)
	go func() {
		defer aux.Done()
		lastLen, lastCount := -1, -1
		for iter := 0; ; iter++ {
			select {
			case <-ingestDone:
				return
			default:
			}
			snap := g.Snapshot()
			if snap.Len() < lastLen {
				errCh <- fmt.Errorf("snapshot shrank: %d triples after %d", snap.Len(), lastLen)
				return
			}
			lastLen = snap.Len()

			typed := -1
			if typeID, ok := snap.TermID(rdf.IRI(rdf.RDFType)); ok {
				if writeID, ok := snap.TermID(model.Write.IRI()); ok {
					typed = snap.CountMatchIDs(rdf.NoID, typeID, writeID)
				}
			}
			res, _, err := sparql.EvalParallelOnInfo(snap, joinQ, 1)
			if err != nil {
				errCh <- fmt.Errorf("EvalParallelOnInfo: %w", err)
				return
			}
			joined, err := countOf(res)
			if err != nil {
				errCh <- err
				return
			}
			if typed >= 0 && joined != typed {
				errCh <- fmt.Errorf("torn record visible: %d typed writes but %d joined (snapshot of %d triples)",
					typed, joined, snap.Len())
				return
			}
			if joined < lastCount {
				errCh <- fmt.Errorf("write count shrank: %d after %d", joined, lastCount)
				return
			}
			lastCount = joined

			if iter%4 == 0 {
				pres, err := sparql.EvalParallel(g, joinQ, 4)
				if err != nil {
					errCh <- fmt.Errorf("EvalParallel: %w", err)
					return
				}
				pn, err := countOf(pres)
				if err != nil {
					errCh <- err
					return
				}
				// The parallel call pinned a snapshot at least as new as ours.
				if pn < joined {
					errCh <- fmt.Errorf("parallel count went backwards: %d after %d", pn, joined)
					return
				}
				lastCount = pn
			}
		}
	}()

	ingest.Wait()
	close(ingestDone)
	aux.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	// Final ground truth: every write made it, atomically.
	wantWrites := workers * perWorker
	res, err := sparql.EvalParallel(g, joinQ, 4)
	if err != nil {
		t.Fatal(err)
	}
	got, err := countOf(res)
	if err != nil {
		t.Fatal(err)
	}
	if got != wantWrites {
		t.Fatalf("final write count = %d, want %d", got, wantWrites)
	}
}
