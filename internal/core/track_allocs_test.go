package core

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"github.com/hpc-io/prov-io/internal/model"
	"github.com/hpc-io/prov-io/internal/rdf"
)

// TestTrackIOAllocsPerRecord pins what a tracking call costs in heap objects
// once the graph is warm and no flush is due. A record's values — its IRI,
// its literals — are formatted into the pooled scratch and copied into the
// dictionary's string chunks only when new, so what is left is amortized
// growth: dictionary chunks, the slot table, the log and the membership table.
// A call that builds a string per record again reads 1 or more above its row
// (TrackIO read 3.02 when each of its three values was a heap string, and
// 8.07 with a live adjacency index on top).
func TestTrackIOAllocsPerRecord(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const (
		perRun   = 256
		warmRuns = 4
		runs     = 32
	)
	// Identities are built before the measured runs: they are the caller's.
	names := make([]string, (warmRuns+runs+1)*perRun)
	for i := range names {
		names[i] = fmt.Sprintf("/f.h5/step%06d/x", i)
	}
	cfg := DefaultConfig()
	cfg.Duration = true
	for _, c := range []struct {
		name   string
		budget float64
		call   func(tr *Tracker, ds, prog rdf.Term, i int)
	}{
		{"TrackIO", 1, func(tr *Tracker, ds, prog rdf.Term, i int) {
			tr.TrackIO(model.Write, "H5Dwrite", ds, prog, time.Duration(i)*time.Millisecond, 250*time.Microsecond)
		}},
		{"new data object", 1, func(tr *Tracker, ds, prog rdf.Term, i int) {
			tr.TrackDataObject(model.Dataset, names[i], "", ds, prog)
		}},
		{"re-tracked data object", 0, func(tr *Tracker, ds, prog rdf.Term, i int) {
			tr.TrackDataObject(model.Dataset, names[i%8], "", ds, prog)
		}},
		{"TrackConfiguration", 1, func(tr *Tracker, ds, prog rdf.Term, i int) {
			tr.TrackConfiguration(prog, "learning_rate", ds, i)
		}},
		{"TrackMetric", 1, func(tr *Tracker, ds, prog rdf.Term, i int) {
			tr.TrackMetric(prog, names[i], ds, i%4)
		}},
		// The one record without a node of its own: an edge to a product the
		// graph has not seen, whose IRI string is the caller's.
		{"TrackDerivation", 1, func(tr *Tracker, ds, prog rdf.Term, i int) {
			tr.TrackDerivation(rdf.IRI(names[i]), ds)
		}},
		// A rank registering again (each step's loop over its threads) pays
		// for the "MPI_rank_N" identity RegisterThread composes, nothing else.
		{"RegisterThread", 1, func(tr *Tracker, ds, prog rdf.Term, i int) {
			tr.RegisterThread(i%512, prog)
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			tr := NewTracker(cfg, nil, 0)
			prog := tr.RegisterProgram("alloc-a1", tr.RegisterUser("alice"))
			ds := tr.TrackDataObject(model.Dataset, "/f.h5/x", "/x", rdf.Term{}, prog)
			i := 0
			run := func() {
				for n := 0; n < perRun; n++ {
					c.call(tr, ds, prog, i)
					i++
				}
			}
			for n := 0; n < warmRuns; n++ {
				run()
			}
			if got := testing.AllocsPerRun(runs, run) / perRun; got > c.budget {
				t.Fatalf("allocates %.2f objects per record, budget %.0f", got, c.budget)
			} else {
				t.Logf("%.3f objects per record", got)
			}
		})
	}
}

// liveHeap is the heap still reachable after two collections.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestRetrackedValuesRetainNothing: tracking a data object again, and an
// agent whose rank literal repeats, interns no term and keeps none of the
// bytes the calls formatted — the live heap ends where it started, give or
// take less than one dictionary string chunk, however often the values recur.
func TestRetrackedValuesRetainNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("heap sizes are not meaningful under the race detector")
	}
	cfg := DefaultConfig()
	cfg.Duration = true
	tr := NewTracker(cfg, nil, 0)
	prog := tr.RegisterProgram("dup-a1", tr.RegisterUser("alice"))
	file := tr.TrackDataObject(model.File, "/f.h5", "", rdf.Term{}, prog)
	again := func(n int) {
		for i := 0; i < n; i++ {
			tr.TrackDataObject(model.Dataset, "/f.h5/Timestep_0/x", "", file, prog)
			tr.RegisterThread(7, prog)
		}
	}
	again(64) // everything that recurs is interned, the scratch pool is primed
	terms, triples, before := tr.Graph().TermCount(), tr.Graph().Len(), liveHeap()
	again(10_000)
	after := liveHeap()
	if got := tr.Graph().TermCount(); got != terms || tr.Graph().Len() != triples {
		t.Fatalf("re-tracking grew the graph: %d terms, %d triples, were %d and %d", got, tr.Graph().Len(), terms, triples)
	}
	const chunk = 4 << 10
	if after > before+chunk {
		t.Fatalf("20 000 re-tracked records left %d bytes live, want under one %d-byte string chunk", after-before, chunk)
	}
	runtime.KeepAlive(tr)
}

// TestDictBytesPerTerm pins what a resident term costs beyond its value
// bytes: one 24-byte entry plus its share of the slot table's 8-byte slots
// at 3/8–3/4 load (100 k terms fill 262 144 slots). The budget must hold whatever the toolchain's built-in map
// looks like — a dictionary that is a map[Term]ID plus a []Term again reads
// 120–160 B here, depending on that map.
func TestDictBytesPerTerm(t *testing.T) {
	if raceEnabled {
		t.Skip("heap sizes are not meaningful under the race detector")
	}
	const (
		n      = 100_000
		budget = 56.0
	)
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("http://example.org/term/%08d", i) // 32 bytes
	}
	before := liveHeap()
	g := rdf.NewGraph()
	for _, name := range names {
		g.Intern(rdf.IRI(name))
	}
	after := liveHeap()
	if g.TermCount() != n {
		t.Fatalf("interned %d terms, want %d", g.TermCount(), n)
	}
	runtime.KeepAlive(names)
	got := float64(after-before) / n
	t.Logf("%.1f B per resident term beyond its value", got)
	if got > budget {
		t.Fatalf("a resident term costs %.1f B beyond its value, budget %.0f", got, budget)
	}
}
