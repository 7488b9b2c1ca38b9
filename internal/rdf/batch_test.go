package rdf

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestAddBatchParityWithAdd is the batched-ingest parity property test: for a
// random triple stream containing duplicates and invalid triples, feeding the
// stream through AddBatch in random-sized chunks must leave the graph in a
// state indistinguishable from sequential Add — same added count, same triple
// set, same insertion-log order, same per-predicate statistics, same
// cardinality answers — and the equivalence must survive further single-triple
// inserts.
func TestAddBatchParityWithAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(7))

	subjects := make([]Term, 10)
	for i := range subjects {
		subjects[i] = IRI(fmt.Sprintf("http://example.org/s/%d", i))
	}
	preds := make([]Term, 6)
	for i := range preds {
		preds[i] = IRI(fmt.Sprintf("http://example.org/p/%d", i))
	}
	objects := []Term{
		IRI("http://example.org/o/0"),
		IRI("http://example.org/o/1"),
		Blank("b0"),
		Literal("zero"),
		Integer(0),
		Integer(42),
		Double(3.5),
		LangLiteral("hallo", "de"),
	}
	objects = append(objects, subjects[:4]...) // subjects reused as objects

	randTriple := func() Triple {
		tr := Triple{
			S: subjects[rng.Intn(len(subjects))],
			P: preds[rng.Intn(len(preds))],
			O: objects[rng.Intn(len(objects))],
		}
		// A slice of the stream is structurally invalid: Add rejects these and
		// AddBatch must skip them without disturbing parity.
		switch r := rng.Intn(100); {
		case r < 4:
			tr.S = Literal("bad-subject")
		case r < 8:
			tr.P = Blank("bad-pred")
		case r < 10:
			tr = Triple{}
		}
		return tr
	}

	const total = 4000
	stream := make([]Triple, total)
	for i := range stream {
		stream[i] = randTriple()
	}

	seq := NewGraph()
	seqAdded := 0
	for _, tr := range stream {
		if seq.Add(tr) {
			seqAdded++
		}
	}

	bat := NewGraph()
	batAdded := 0
	for i := 0; i < len(stream); {
		n := 1 + rng.Intn(9)
		if i+n > len(stream) {
			n = len(stream) - i
		}
		batAdded += bat.AddBatch(stream[i : i+n])
		i += n
	}

	assertParity := func(stage string) {
		t.Helper()
		if seq.Len() != bat.Len() {
			t.Fatalf("%s: Len: sequential %d, batched %d", stage, seq.Len(), bat.Len())
		}
		// Insertion-log order must be identical term-for-term (what the flush
		// pipeline serializes).
		so, bo := deltaOf(seq, 0), deltaOf(bat, 0)
		if len(so) != len(bo) {
			t.Fatalf("%s: log replay length: sequential %d, batched %d", stage, len(so), len(bo))
		}
		for i := range so {
			if so[i] != bo[i] {
				t.Fatalf("%s: insertion log diverges at %d: %v vs %v", stage, i, so[i], bo[i])
			}
		}
		// Same triple set (lengths equal, so one-sided containment suffices).
		for _, tr := range so {
			if !bat.Has(tr) {
				t.Fatalf("%s: batched graph missing %v", stage, tr)
			}
		}
		// Per-predicate maintained statistics.
		for _, p := range preds {
			sid, sok := seq.TermID(p)
			bid, bok := bat.TermID(p)
			if sok != bok {
				t.Fatalf("%s: predicate %v interned in one graph only", stage, p)
			}
			if !sok {
				continue
			}
			st, ss, sobj := seq.PredStats(sid)
			bt, bs, bobj := bat.PredStats(bid)
			if st != bt || ss != bs || sobj != bobj {
				t.Fatalf("%s: PredStats(%v): sequential (%d,%d,%d), batched (%d,%d,%d)",
					stage, p, st, ss, sobj, bt, bs, bobj)
			}
		}
		// Cardinality oracle parity on random patterns (IDs differ between
		// the graphs — interning order is not part of the contract — so
		// patterns are mapped per graph through TermID).
		idOf := func(g *Graph, tm Term, bound bool) (ID, bool) {
			if !bound {
				return NoID, true
			}
			return g.TermID(tm)
		}
		for i := 0; i < 300; i++ {
			sT := subjects[rng.Intn(len(subjects))]
			pT := preds[rng.Intn(len(preds))]
			oT := objects[rng.Intn(len(objects))]
			sb, pb, ob := rng.Intn(2) == 0, rng.Intn(2) == 0, rng.Intn(2) == 0
			sid, ok1 := idOf(seq, sT, sb)
			pid, ok2 := idOf(seq, pT, pb)
			oid, ok3 := idOf(seq, oT, ob)
			bsid, ok4 := idOf(bat, sT, sb)
			bpid, ok5 := idOf(bat, pT, pb)
			boid, ok6 := idOf(bat, oT, ob)
			if ok1 != ok4 || ok2 != ok5 || ok3 != ok6 {
				t.Fatalf("%s: interning disagreement for pattern (%v %v %v)", stage, sT, pT, oT)
			}
			if !ok1 || !ok2 || !ok3 {
				continue
			}
			if sc, bc := seq.CountMatchIDs(sid, pid, oid), bat.CountMatchIDs(bsid, bpid, boid); sc != bc {
				t.Fatalf("%s: CountMatchIDs(%v,%v,%v bound=%v,%v,%v): sequential %d, batched %d",
					stage, sT, pT, oT, sb, pb, ob, sc, bc)
			}
		}
	}

	if seqAdded != batAdded {
		t.Fatalf("added count: sequential %d, batched %d", seqAdded, batAdded)
	}
	assertParity("after insert")

	// Single-triple inserts through both entry points must also agree.
	for i := 0; i < 1000; i++ {
		tr := randTriple()
		if seq.Add(tr) != (bat.AddBatch([]Triple{tr}) == 1) {
			t.Fatalf("single-add disagreement for %v", tr)
		}
	}
	assertParity("after single adds")
}

// TestAddBatchSkipsInvalid pins AddBatch's rejection semantics: invalid
// triples are skipped (not inserted, not logged, not counted), exactly as Add
// rejects them one at a time.
func TestAddBatchSkipsInvalid(t *testing.T) {
	g := NewGraph()
	n := g.AddBatch([]Triple{
		{S: IRI("http://x/a"), P: IRI("http://x/p"), O: Literal("v")},
		{S: Literal("nope"), P: IRI("http://x/p"), O: Literal("v")}, // literal subject
		{S: IRI("http://x/a"), P: Blank("b"), O: Literal("v")},      // blank predicate
		{}, // zero triple
		{S: IRI("http://x/a"), P: IRI("http://x/p"), O: Literal("v")}, // duplicate
		{S: IRI("http://x/b"), P: IRI("http://x/p"), O: IRI("http://x/a")},
	})
	if n != 2 {
		t.Fatalf("AddBatch added %d, want 2", n)
	}
	if g.Len() != 2 {
		t.Fatalf("Len=%d, want 2", g.Len())
	}
}

// TestAddBatchCountsDuplicatesOnce: AddBatch returns the number of newly added
// triples, with duplicates inside the slice counted once.
func TestAddBatchCountsDuplicatesOnce(t *testing.T) {
	g := NewGraph()
	tr := Triple{S: IRI("http://x/a"), P: IRI("http://x/p"), O: Integer(1)}
	if n := g.AddBatch([]Triple{tr, tr, tr}); n != 1 {
		t.Fatalf("AddBatch = %d, want 1", n)
	}
	if n := g.AddBatch([]Triple{tr}); n != 0 {
		t.Fatalf("AddBatch of existing = %d, want 0", n)
	}
}
