package core

import (
	"runtime"
	"testing"

	"github.com/hpc-io/prov-io/internal/model"
	"github.com/hpc-io/prov-io/internal/rdf"
	"github.com/hpc-io/prov-io/internal/sparql"
)

// TestMergedGraphRetains: what a merged store keeps live once a pattern
// query has built its index — the dictionary's entries and value pages, the
// insertion log and the snapshot index, and no membership table, dictionary
// slot table, spo array or decoded value strings — stays under a per-triple
// budget. Over 61 440 triples and 40 963 terms in 8 segments, the merge and
// one query retain 37.2 B a triple. 24-byte entries over the decoded
// strings retained 48.6, a merged graph built by interning kept its slot
// table (8.5 B a triple here) and an index with spo (4 B more) and retained
// 61.4; any one of them breaks the budget, as do the membership table
// (8.5 B) and an index of four permutations with per-term predicate
// offsets (6.7 B).
func TestMergedGraphRetains(t *testing.T) {
	if raceEnabled {
		t.Skip("heap readings are not the program's own under the race detector")
	}
	const budget = 42.0
	store := newBinaryVFSStore(t)
	derived := model.AllRelations()[0].IRI()
	for seg := 0; seg < 8; seg++ {
		triples := make([]rdf.Triple, 0, 3*2560)
		for i := 0; i < 2560; i++ {
			node := wideNode(seg, i)
			triples = append(triples,
				rdf.Triple{S: node, P: rdf.IRI("urn:size"), O: rdf.Integer(int64(seg*10000 + i))},
				rdf.Triple{S: node, P: rdf.IRI("urn:rank"), O: rdf.Integer(int64(i % 16))},
				rdf.Triple{S: node, P: derived, O: wideNode(seg, (i*7)%2560)})
		}
		if err := writeDelta(store, seg%4, seg/4, triples); err != nil {
			t.Fatal(err)
		}
	}
	q, err := sparql.Parse(`SELECT ?s WHERE { ?s <urn:rank> 3 }`, model.Namespaces())
	if err != nil {
		t.Fatal(err)
	}

	before := liveHeap()
	g, _, err := store.MergePruned(nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := sparql.EvalParallelOnInfo(g.Snapshot(), q, 1)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(res.Rows); n != 8*2560/16 {
		t.Fatalf("the query found %d subjects, want %d", n, 8*2560/16)
	}
	res = nil
	after := liveHeap()
	runtime.KeepAlive(g)
	if g.Len() < 50000 {
		t.Fatalf("the merged graph holds %d triples; the test needs 5×10⁴", g.Len())
	}
	got := float64(after-before) / float64(g.Len())
	t.Logf("%d triples, %d terms: %.1f B per triple retained", g.Len(), g.TermCount(), got)
	if got > budget {
		t.Fatalf("the merged graph and its index retain %.1f B per triple, budget %.0f", got, budget)
	}
}
