package rdf

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// randTriple draws from a small term pool so duplicate Adds are frequent —
// the delta cursor must count only triples that actually entered the graph.
func randTriple(rng *rand.Rand) Triple {
	s := IRI(fmt.Sprintf("http://x/s%d", rng.Intn(20)))
	p := IRI(fmt.Sprintf("http://x/p%d", rng.Intn(8)))
	var o Term
	if rng.Intn(2) == 0 {
		o = IRI(fmt.Sprintf("http://x/o%d", rng.Intn(20)))
	} else {
		o = Literal(fmt.Sprintf("v%d", rng.Intn(30)))
	}
	return Triple{S: s, P: p, O: o}
}

func graphsEqual(a, b *Graph) bool {
	if a.Len() != b.Len() {
		return false
	}
	equal := true
	a.ForEachMatch(nil, nil, nil, func(t Triple) bool {
		if !b.Has(t) {
			equal = false
		}
		return equal
	})
	return equal
}

// deltaOf renders RefsSince(n) as triples, in log order.
func deltaOf(g *Graph, n int) []Triple {
	refs, _ := g.RefsSince(n)
	out := make([]Triple, len(refs))
	for i, r := range refs {
		out[i] = Triple{S: g.TermOf(r.S), P: g.TermOf(r.P), O: g.TermOf(r.O)}
	}
	return out
}

// TestRefsSinceUnionEqualsGraph is the delta-path property: for any
// interleaving of Adds and cursor advances, the union of all deltas equals
// the full graph.
func TestRefsSinceUnionEqualsGraph(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := NewGraph()
		union := NewGraph()
		cursor := 0
		steps := 50 + rng.Intn(400)
		for i := 0; i < steps; i++ {
			g.Add(randTriple(rng))
			if rng.Intn(7) == 0 {
				union.AddBatch(deltaOf(g, cursor))
				cursor = g.Len()
			}
		}
		// Final delta closes the run (the tracker's Close analog).
		union.AddBatch(deltaOf(g, cursor))
		if !graphsEqual(g, union) {
			t.Fatalf("seed %d: union of deltas (%d) != graph (%d)", seed, union.Len(), g.Len())
		}
	}
}

func TestRefsSinceBounds(t *testing.T) {
	g := NewGraph()
	g.Add(Triple{S: IRI("http://x/a"), P: IRI("http://x/p"), O: Literal("1")})
	if d, end := g.RefsSince(-5); len(d) != 1 || end != 1 {
		t.Errorf("negative cursor: %v to %d", d, end)
	}
	if d, end := g.RefsSince(1); d != nil || end != 1 {
		t.Errorf("cursor at end: %v to %d", d, end)
	}
	if d, end := g.RefsSince(99); d != nil || end != 1 {
		t.Errorf("cursor past end: %v to %d", d, end)
	}
}

// TestRefsSinceConcurrent runs adders concurrently with a delta collector;
// after a final catch-up delta, the union must equal the graph exactly. This
// mirrors the tracker's threads-vs-async-flusher interleaving: the cursor
// advances to the end RefsSince captured under the same lock as the refs.
func TestRefsSinceConcurrent(t *testing.T) {
	g := NewGraph()
	const adders = 6
	const perAdder = 300
	var wg sync.WaitGroup
	for w := 0; w < adders; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perAdder; i++ {
				g.Add(randTriple(rng))
			}
		}(w)
	}
	union := NewGraph()
	cursor := 0
	collect := func() {
		refs, end := g.RefsSince(cursor)
		for _, r := range refs {
			union.Add(Triple{S: g.TermOf(r.S), P: g.TermOf(r.P), O: g.TermOf(r.O)})
		}
		cursor = end
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	for alive := true; alive; {
		select {
		case <-done:
			alive = false
		default:
		}
		collect()
	}
	// One final catch-up after every adder finished.
	collect()
	if !graphsEqual(g, union) {
		t.Fatalf("concurrent deltas: union %d != graph %d", union.Len(), g.Len())
	}
}
