package core

import (
	"fmt"
	"runtime"
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

// TestDictBytesPerTerm pins what a resident term costs beyond its value
// bytes: one 24-byte entry plus its share of a stripe's 8-byte slots at
// 3/8–3/4 load. The budget must hold whatever the toolchain's built-in map
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
	liveHeap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
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
