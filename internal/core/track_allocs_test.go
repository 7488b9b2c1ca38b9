package core

import (
	"testing"
	"time"

	"github.com/hpc-io/prov-io/internal/model"
	"github.com/hpc-io/prov-io/internal/rdf"
)

// TestTrackIOAllocsPerRecord pins what a tracked record costs in heap
// objects once the graph is warm: a timed TrackIO with no flush due. The
// budget covers the record's three fresh terms (the activity IRI and its two
// literals) plus amortized dictionary, log and membership-table growth. A
// graph that allocates per triple again trips it: with the live adjacency
// index this guards against, the same loop read 8.07 against 3.02 without.
func TestTrackIOAllocsPerRecord(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const (
		budget   = 4.0
		perRun   = 256
		warmRuns = 4
	)
	cfg := DefaultConfig()
	cfg.Duration = true
	tr := NewTracker(cfg, nil, 0)
	prog := tr.RegisterProgram("alloc-a1", tr.RegisterUser("alice"))
	ds := tr.TrackDataObject(model.Dataset, "/f.h5/x", "/x", rdf.Term{}, prog)
	var started time.Duration
	run := func() {
		for i := 0; i < perRun; i++ {
			started += time.Millisecond
			tr.TrackIO(model.Write, "H5Dwrite", ds, prog, started, 250*time.Microsecond)
		}
	}
	for i := 0; i < warmRuns; i++ {
		run()
	}
	if got := testing.AllocsPerRun(32, run) / perRun; got > budget {
		t.Fatalf("TrackIO allocates %.2f objects per record, budget %.1f", got, budget)
	}
}
