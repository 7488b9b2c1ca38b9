package rdf

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// TestTrimmedGraphStaysASet: Trim drops the membership table and nothing
// else. Re-adding a logged triple through any insert path adds nothing, Has
// answers as before, Len and RefsSince do not move, new triples still land,
// and Trim raced against AddBatch and Snapshot (run under -race) ends where
// a serial run does.
func TestTrimmedGraphStaysASet(t *testing.T) {
	g := snapRandGraph(rand.New(rand.NewSource(23)), 600)
	logged := deltaOf(g, 0)
	refs, end := g.RefsSince(0)
	clone := g.Clone()

	for _, path := range []struct {
		name string
		add  func() int
	}{
		{"Add", func() int {
			n := 0
			for _, x := range logged {
				if g.Add(x) {
					n++
				}
			}
			return n
		}},
		{"AddBatch", func() int { return g.AddBatch(logged) }},
		{"AddRefs", func() int { return g.AddRefs(refs) }},
		{"Merge", func() int { return g.Merge(clone) }},
	} {
		g.Trim()
		if g.table != nil {
			t.Fatalf("%s: Trim kept a %d-slot table", path.name, len(g.table))
		}
		if n := path.add(); n != 0 {
			t.Fatalf("%s re-added %d logged triples after Trim", path.name, n)
		}
		checkTable(t, g)
	}

	g.Trim()
	if n, now := g.Len(), deltaOf(g, 0); n != end || !slices.Equal(now, logged) {
		t.Fatalf("after Trim: Len %d, log of %d triples; before: %d, %d", n, len(now), end, len(logged))
	}
	if tail, e := g.RefsSince(end / 2); e != end || !slices.Equal(tail, refs[end/2:]) {
		t.Fatalf("after Trim: RefsSince(%d) = %d refs to %d, want %d to %d", end/2, len(tail), e, end-end/2, end)
	}
	absent := tr("p0", "p0", "p0") // every term interned, the triple never added
	if g.Has(absent) {
		t.Fatalf("Has(%v) on a trimmed graph: true for a triple never added", absent)
	}
	for _, x := range logged {
		if !g.Has(x) {
			t.Fatalf("Has(%v) = false for a logged triple after Trim", x)
		}
	}
	checkTable(t, g)

	g.Trim()
	fresh := []Triple{absent, tr("new-s", "p0", "o0"), tr("s0", "new-p", "new-o")}
	if n := g.AddBatch(fresh); n != len(fresh) || g.Len() != end+len(fresh) {
		t.Fatalf("after Trim AddBatch added %d of %d new triples, Len %d", n, len(fresh), g.Len())
	}
	for _, x := range fresh {
		if !g.Has(x) {
			t.Fatalf("Has(%v) = false for a triple added after Trim", x)
		}
	}
	checkTable(t, g)

	// Writers add overlapping batches while Trim and Snapshot run beside
	// them: every triple lands once, and the graph holds what a serial run
	// of the same batches holds.
	const writers, rounds = 4, 150
	batch := func(w, i int) []Triple {
		out := make([]Triple, 0, 6)
		for k := 0; k < 6; k++ {
			out = append(out, tr(fmt.Sprintf("s%d", (w+i+k)%40), fmt.Sprintf("p%d", k%3), fmt.Sprintf("o%d", (i*k)%50)))
		}
		return out
	}
	serial := NewGraph()
	for w := 0; w < writers; w++ {
		for i := 0; i < rounds; i++ {
			serial.AddBatch(batch(w, i))
		}
	}
	conc := NewGraph()
	var added [writers]int
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				added[w] += conc.AddBatch(batch(w, i))
			}
		}(w)
	}
	var side sync.WaitGroup
	side.Add(2)
	go func() {
		defer side.Done()
		for {
			select {
			case <-stop:
				return
			default:
				conc.Trim()
			}
		}
	}()
	go func() {
		defer side.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if s := conc.Snapshot(); s.Len() > conc.Len() {
					t.Errorf("snapshot pins %d triples, beyond the log", s.Len())
				}
			}
		}
	}()
	wg.Wait()
	close(stop)
	side.Wait()
	total := 0
	for _, n := range added {
		total += n
	}
	if total != serial.Len() || conc.Len() != serial.Len() {
		t.Fatalf("concurrent run added %d (Len %d), serial run %d", total, conc.Len(), serial.Len())
	}
	for _, x := range deltaOf(serial, 0) {
		if !conc.Has(x) {
			t.Fatalf("concurrent run lost %v", x)
		}
	}
	checkTable(t, conc)
}
