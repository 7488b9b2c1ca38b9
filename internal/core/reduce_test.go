package core

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/hpc-io/prov-io/internal/model"
	"github.com/hpc-io/prov-io/internal/rdf"
	"github.com/hpc-io/prov-io/internal/vfs"
)

// chainTracker builds a lineage chain f0 <- f1 <- ... <- fN plus an
// unrelated island.
func chainTracker(n int) (*Tracker, []rdf.Term) {
	tr := NewTracker(DefaultConfig(), nil, 0)
	prog := tr.RegisterProgram("p", rdf.Term{})
	nodes := make([]rdf.Term, n)
	for i := 0; i < n; i++ {
		nodes[i] = tr.TrackDataObject(model.File, fmt.Sprintf("/f%d", i), "", rdf.Term{}, prog)
		if i > 0 {
			tr.TrackDerivation(nodes[i], nodes[i-1])
		}
	}
	// Unrelated island.
	island := tr.TrackDataObject(model.File, "/island", "", rdf.Term{}, rdf.Term{})
	tr.TrackIO(model.Write, "write", island, rdf.Term{}, 0, 0)
	return tr, nodes
}

func TestReduceLineageKeepsComponent(t *testing.T) {
	tr, nodes := chainTracker(5)
	g := tr.Graph()
	reduced := ReduceLineage(g, []rdf.Term{nodes[4]}, 0)
	if reduced.Len() >= g.Len() {
		t.Errorf("reduction did not shrink: %d >= %d", reduced.Len(), g.Len())
	}
	// The whole chain is kept.
	for i, n := range nodes {
		if len(reduced.Find(n.Ptr(), rdf.IRI(rdf.RDFType).Ptr(), nil)) != 1 {
			t.Errorf("chain node %d lost", i)
		}
	}
	// The island is gone.
	island := rdf.IRI(model.NodeIRI(model.File, "/island"))
	if len(reduced.Find(island.Ptr(), nil, nil)) != 0 {
		t.Error("island survived reduction")
	}
}

func TestReduceLineageHopBound(t *testing.T) {
	// A pure derivation chain (no shared agent hub that would shortcut
	// the hop count).
	tr := NewTracker(DefaultConfig(), nil, 0)
	nodes := make([]rdf.Term, 6)
	for i := range nodes {
		nodes[i] = tr.TrackDataObject(model.File, fmt.Sprintf("/c%d", i), "", rdf.Term{}, rdf.Term{})
		if i > 0 {
			tr.TrackDerivation(nodes[i], nodes[i-1])
		}
	}
	reduced := ReduceLineage(tr.Graph(), []rdf.Term{nodes[5]}, 2)
	// Nodes 5, 4, 3 kept (2 hops); node 0 dropped.
	if len(reduced.Find(nodes[3].Ptr(), nil, nil)) == 0 {
		t.Error("2-hop node dropped")
	}
	if len(reduced.Find(nodes[0].Ptr(), rdf.IRI(rdf.RDFType).Ptr(), nil)) != 0 {
		t.Error("far node survived hop bound")
	}
}

func TestReduceLineageAnnotationsKept(t *testing.T) {
	tr, nodes := chainTracker(2)
	reduced := ReduceLineage(tr.Graph(), []rdf.Term{nodes[1]}, 0)
	if len(reduced.Find(nodes[1].Ptr(), model.PropName.IRI().Ptr(), nil)) != 1 {
		t.Error("name annotation lost")
	}
}

func TestReduceLineageEmptyRoots(t *testing.T) {
	tr, _ := chainTracker(3)
	reduced := ReduceLineage(tr.Graph(), nil, 0)
	if reduced.Len() != 0 {
		t.Errorf("no roots should keep nothing, got %d", reduced.Len())
	}
	reduced = ReduceLineage(tr.Graph(), []rdf.Term{{}}, 0)
	if reduced.Len() != 0 {
		t.Errorf("zero-term root kept %d triples", reduced.Len())
	}
}

func TestMergeStoresCrossRun(t *testing.T) {
	// Two runs of the "same workflow" write to separate stores; the merged
	// graph unifies the program node and keeps both configuration versions
	// — the cross-run provenance of the paper's future-work section.
	view := vfs.NewStore().NewView()
	var stores []*Store
	for run := 0; run < 2; run++ {
		store, err := NewStore(VFSBackend{View: view}, fmt.Sprintf("/prov/run%d", run), FormatTurtle)
		if err != nil {
			t.Fatal(err)
		}
		tr := NewTracker(DefaultConfig(), store, 0)
		prog := tr.RegisterProgram("topreco", rdf.Term{})
		tr.TrackConfigurationAccuracy(prog, "learning_rate",
			rdf.Double(0.01*float64(run+1)), run, 0.8+0.05*float64(run))
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
		stores = append(stores, store)
	}
	merged, err := MergeStores(stores...)
	if err != nil {
		t.Fatal(err)
	}
	// One program node.
	prog := rdf.IRI(model.NodeIRI(model.Program, "topreco"))
	if n := len(merged.Find(prog.Ptr(), rdf.IRI(rdf.RDFType).Ptr(), nil)); n != 1 {
		t.Errorf("program nodes = %d, want 1 (GUID merge)", n)
	}
	// Two accuracy-bearing configuration versions.
	if n := len(merged.Find(nil, model.PropAccuracy.IRI().Ptr(), nil)); n != 2 {
		t.Errorf("accuracy records = %d, want 2", n)
	}
}

// TestReduceLineageCache: a repeated lineage question against an unchanged
// graph is served from the snapshot memo; any mutation invalidates it.
func TestReduceLineageCache(t *testing.T) {
	tr, nodes := chainTracker(6)
	g := tr.Graph()
	cold := ReduceLineage(g, []rdf.Term{nodes[3]}, 2)
	if warm := ReduceLineage(g, []rdf.Term{nodes[3]}, 2); warm != cold {
		t.Fatal("repeat lineage question against an unchanged graph was recomputed")
	}
	// Different roots or hops are distinct cache entries.
	if other := ReduceLineage(g, []rdf.Term{nodes[3]}, 3); other == cold {
		t.Fatal("different maxHops returned the cached closure")
	}
	// A mutation moves the snapshot epoch pair: the cache must miss and the
	// fresh closure must see the new edge.
	g.Add(rdf.Triple{S: nodes[3], P: model.WasDerivedFrom.IRI(), O: rdf.IRI(model.NodeIRI(model.File, "/new-root"))})
	fresh := ReduceLineage(g, []rdf.Term{nodes[3]}, 2)
	if fresh == cold {
		t.Fatal("Add did not invalidate the lineage cache")
	}
	if fresh.Len() <= cold.Len() {
		t.Fatalf("post-Add closure has %d triples, want more than %d", fresh.Len(), cold.Len())
	}
	// Uncached variant always hands back a private graph.
	a := ReduceLineageUncached(g, []rdf.Term{nodes[3]}, 2)
	b := ReduceLineageUncached(g, []rdf.Term{nodes[3]}, 2)
	if a == b {
		t.Fatal("ReduceLineageUncached returned a shared graph")
	}
}

// ReduceLineageLegacy is the term-space implementation ReduceLineage
// replaced: rdf.Term-keyed visited set and relation set, probes through
// ForEachMatch. It is the oracle of TestReduceLineageMatchesTermSpaceOracle.
func ReduceLineageLegacy(g *rdf.Graph, roots []rdf.Term, maxHops int) *rdf.Graph {
	keep := map[rdf.Term]int{}
	frontier := make([]rdf.Term, 0, len(roots))
	for _, r := range roots {
		if r.IsZero() {
			continue
		}
		keep[r] = 0
		frontier = append(frontier, r)
	}

	relations := map[rdf.Term]bool{}
	for _, rel := range model.AllRelations() {
		if rel.IRI() == model.WasMemberOf.IRI() {
			continue
		}
		relations[rel.IRI()] = true
	}
	for _, rel := range []model.Relation{model.PropType, model.PropConfig, model.PropMetric} {
		relations[rel.IRI()] = true
	}

	for len(frontier) > 0 {
		node := frontier[0]
		frontier = frontier[1:]
		depth := keep[node]
		if maxHops > 0 && depth >= maxHops {
			continue
		}
		visit := func(next rdf.Term) {
			if !next.IsIRI() && !next.IsBlank() {
				return
			}
			if _, seen := keep[next]; seen {
				return
			}
			keep[next] = depth + 1
			frontier = append(frontier, next)
		}
		n := node
		g.ForEachMatch(&n, nil, nil, func(t rdf.Triple) bool {
			if relations[t.P] {
				visit(t.O)
			}
			return true
		})
		g.ForEachMatch(nil, nil, &n, func(t rdf.Triple) bool {
			if relations[t.P] {
				visit(t.S)
			}
			return true
		})
	}

	out := rdf.NewGraph()
	g.ForEachMatch(nil, nil, nil, func(t rdf.Triple) bool {
		_, sKept := keep[t.S]
		if !sKept {
			return true
		}
		if relations[t.P] {
			if _, oKept := keep[t.O]; oKept {
				out.Add(t)
			}
			return true
		}
		out.Add(t)
		return true
	})
	return out
}

// TestReduceLineageMatchesTermSpaceOracle: on random graphs the ID-space
// reducer returns exactly the oracle's triples — memoized and uncached over
// the resident graph, and through a lazy view of a store holding the same
// triples scattered over delta segments (packed for even seeds), at a 1-byte
// cache budget and an unbounded one. The graphs mix traversable relation edges, annotation edges, wasMemberOf edges
// into shared class nodes (kept as annotations, never followed) and literal
// objects on relation predicates (kept out of the closure); root sets
// include none, zero terms and nodes the graph has never seen.
func TestReduceLineageMatchesTermSpaceOracle(t *testing.T) {
	node := func(i int) rdf.Term { return rdf.IRI(model.NodeIRI(model.File, fmt.Sprintf("/n%d", i))) }
	class := func(i int) rdf.Term { return rdf.IRI(model.NodeIRI(model.Program, fmt.Sprintf("class%d", i))) }
	relations := []model.Relation{
		model.WasDerivedFrom, model.WasReadBy, model.WasWrittenBy, model.Used, model.PropConfig,
	}
	annotations := []model.Relation{model.PropName, model.PropAccuracy}

	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nodes := 4 + rng.Intn(28)
		g := rdf.NewGraph()
		for i, edges := 0, nodes+rng.Intn(3*nodes); i < edges; i++ {
			s := node(rng.Intn(nodes))
			switch rng.Intn(6) {
			case 0:
				g.Add(rdf.Triple{S: s, P: annotations[rng.Intn(len(annotations))].IRI(), O: rdf.Literal(fmt.Sprintf("v%d", rng.Intn(5)))})
			case 1:
				g.Add(rdf.Triple{S: s, P: model.WasMemberOf.IRI(), O: class(rng.Intn(2))})
			case 2:
				g.Add(rdf.Triple{S: s, P: relations[rng.Intn(len(relations))].IRI(), O: rdf.Literal(fmt.Sprintf("lit%d", rng.Intn(3)))})
			default:
				g.Add(rdf.Triple{S: s, P: relations[rng.Intn(len(relations))].IRI(), O: node(rng.Intn(nodes))})
			}
		}
		rootSets := [][]rdf.Term{
			nil,
			{{}},
			{node(nodes + 7)}, // never added to the graph
			{node(rng.Intn(nodes))},
			{node(rng.Intn(nodes)), {}, node(nodes + 7), node(rng.Intn(nodes))},
			{class(0)},
			{rdf.Literal("lit0")},
		}
		store := newBinaryVFSStore(t)
		ts := g.Triples()
		for i, lo := 0, 0; lo < len(ts); i++ {
			hi := min(len(ts), lo+1+rng.Intn(8))
			if err := writeDelta(store, i%3, i/3, ts[lo:hi]); err != nil {
				t.Fatal(err)
			}
			lo = hi
		}
		if seed%2 == 0 {
			if _, err := store.PackSegments(1); err != nil {
				t.Fatal(err)
			}
		}
		views := []struct {
			tag    string
			budget int64
			v      *LazyView
		}{{tag: "lazy@1B", budget: 1}, {tag: "lazy@inf"}}
		for i := range views {
			v, err := store.OpenLazy(CacheConfig{MaxBytes: views[i].budget})
			if err != nil {
				t.Fatal(err)
			}
			views[i].v = v
		}
		for ri, roots := range rootSets {
			for _, hops := range []int{0, 1, 2, 5} {
				want := canonicalNT(t, ReduceLineageLegacy(g, roots, hops))
				for _, lv := range views {
					got, _, err := lv.v.ReduceLineagePruned(roots, hops, 1)
					if err != nil {
						t.Fatalf("seed %d roots #%d hops %d: %s: %v", seed, ri, hops, lv.tag, err)
					}
					if canonicalNT(t, got) != want {
						t.Fatalf("seed %d roots #%d hops %d: %s lineage differs from the oracle\ngot:\n%swant:\n%s", seed, ri, hops, lv.tag, canonicalNT(t, got), want)
					}
				}
				if got := canonicalNT(t, ReduceLineageUncached(g, roots, hops)); got != want {
					t.Fatalf("seed %d roots #%d hops %d: ReduceLineageUncached differs from the oracle\ngot:\n%swant:\n%s", seed, ri, hops, got, want)
				}
				if got := canonicalNT(t, ReduceLineage(g, roots, hops)); got != want {
					t.Fatalf("seed %d roots #%d hops %d: ReduceLineage differs from the oracle\ngot:\n%swant:\n%s", seed, ri, hops, got, want)
				}
			}
		}
	}
}
