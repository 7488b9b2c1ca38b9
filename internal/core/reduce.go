package core

import (
	"strconv"
	"strings"

	"github.com/hpc-io/prov-io/internal/model"
	"github.com/hpc-io/prov-io/internal/rdf"
)

// ReduceLineage extracts the provenance sub-graph relevant to the given
// root nodes: every node reachable from a root within maxHops relation
// edges (traversed in both directions), together with the kept nodes'
// annotation triples (rdf:type, provio:name, memberships, properties).
//
// This is the provenance-reduction optimization the paper's related-work
// section points at (§7): full workflow provenance can reach millions of
// triples, but a lineage question touches a small neighborhood. Reducing
// before visualization keeps Figure-9-style renderings readable, and
// reducing before repeated querying shrinks the search space.
//
// The traversal runs in dictionary-ID space (rdf.ForEachMatchIDs): the BFS
// frontier, visited set, and relation-predicate set all hold uint32 IDs, and
// terms are rehydrated only for the triples copied into the output graph.
// All probes go through one pinned rdf.Snapshot, so the whole BFS costs a
// single graph-lock acquisition and runs against a consistent view even
// while ingest continues.
//
// maxHops <= 0 means unbounded (full connected component).
//
// The closure is memoized on the graph's current snapshot, keyed by
// (roots, maxHops): Graph.Snapshot returns a fresh snapshot (with an empty
// memo) whenever the insertion log grows, so any Add invalidates every
// cached closure automatically, exactly like the SPARQL result cache. A
// cached sub-graph is shared between callers and must be treated as
// read-only; use ReduceLineageUncached to obtain a private graph or to time
// the traversal itself.
func ReduceLineage(g *rdf.Graph, roots []rdf.Term, maxHops int) *rdf.Graph {
	snap := g.Snapshot()
	key := lineageMemoKey(roots, maxHops)
	if v, ok := snap.Memo(key); ok {
		return v.(*rdf.Graph)
	}
	out, _ := reduceLineageKept(g, roots, maxHops)
	snap.SetMemo(key, out)
	return out
}

// ReduceLineageUncached is ReduceLineage without the snapshot memo: every
// call runs the BFS and returns a graph the caller owns, so a benchmark of
// the traversal is not short-circuited by the cache.
func ReduceLineageUncached(g *rdf.Graph, roots []rdf.Term, maxHops int) *rdf.Graph {
	out, _ := reduceLineageKept(g, roots, maxHops)
	return out
}

// lineageMemoKey builds the snapshot-memo key for a lineage question. Root
// order is preserved: the closure is order-insensitive, but canonicalizing
// here would buy cache hits only for permuted repeats at the cost of a sort
// per call.
func lineageMemoKey(roots []rdf.Term, maxHops int) string {
	var b strings.Builder
	b.WriteString("lineage\x00")
	b.WriteString(strconv.Itoa(maxHops))
	for _, r := range roots {
		b.WriteByte('\x00')
		b.WriteString(r.String())
	}
	return b.String()
}

// reduceLineageKept is ReduceLineage exposing the kept-node terms alongside
// the reduced graph — the probe set the store's pruned lineage fixpoint
// (Store.ReduceLineagePruned) feeds back into segment-stats probes.
func reduceLineageKept(g *rdf.Graph, roots []rdf.Term, maxHops int) (*rdf.Graph, []rdf.Term) {
	v := g.Snapshot()
	keep := map[rdf.ID]int{}
	var frontier []rdf.ID
	for _, r := range roots {
		if r.IsZero() {
			continue
		}
		id, ok := v.TermID(r)
		if !ok {
			continue // a root absent from the graph has no neighborhood
		}
		keep[id] = 0
		frontier = append(frontier, id)
	}

	relations := lineageRelationIDs(v)
	terms := map[rdf.ID]rdf.Term{}
	termOf := func(id rdf.ID) rdf.Term {
		t, ok := terms[id]
		if !ok {
			t = v.TermOf(id)
			terms[id] = t
		}
		return t
	}

	for len(frontier) > 0 {
		node := frontier[0]
		frontier = frontier[1:]
		depth := keep[node]
		if maxHops > 0 && depth >= maxHops {
			continue
		}
		visit := func(next rdf.ID) {
			if _, seen := keep[next]; seen {
				return
			}
			if t := termOf(next); !t.IsIRI() && !t.IsBlank() {
				return
			}
			keep[next] = depth + 1
			frontier = append(frontier, next)
		}
		v.ForEachMatchIDs(node, rdf.NoID, rdf.NoID, func(_, p, o rdf.ID) bool {
			if relations[p] {
				visit(o)
			}
			return true
		})
		v.ForEachMatchIDs(rdf.NoID, rdf.NoID, node, func(s, p, _ rdf.ID) bool {
			if relations[p] {
				visit(s)
			}
			return true
		})
	}

	out := rdf.NewGraph()
	v.ForEachMatchIDs(rdf.NoID, rdf.NoID, rdf.NoID, func(s, p, o rdf.ID) bool {
		if _, sKept := keep[s]; !sKept {
			return true
		}
		if relations[p] {
			// Relation edges only between kept nodes.
			if _, oKept := keep[o]; oKept {
				out.Add(rdf.Triple{S: termOf(s), P: termOf(p), O: termOf(o)})
			}
			return true
		}
		// Annotation triples (type, name, literals) of kept nodes.
		out.Add(rdf.Triple{S: termOf(s), P: termOf(p), O: termOf(o)})
		return true
	})
	kept := make([]rdf.Term, 0, len(keep))
	for id := range keep {
		kept = append(kept, termOf(id))
	}
	return out, kept
}

// lineageRelationIDs resolves the traversable relation predicates to their
// dictionary IDs in the snapshot. prov:wasMemberOf is classification, not
// lineage — following it would connect every entity through the shared
// super-class nodes; it is kept as an annotation of retained nodes instead.
// Predicates absent from the snapshot are simply omitted.
func lineageRelationIDs(v *rdf.Snapshot) map[rdf.ID]bool {
	relations := map[rdf.ID]bool{}
	add := func(t rdf.Term) {
		if id, ok := v.TermID(t); ok {
			relations[id] = true
		}
	}
	for _, rel := range model.AllRelations() {
		if rel.IRI() == model.WasMemberOf.IRI() {
			continue
		}
		add(rel.IRI())
	}
	for _, rel := range []model.Relation{model.PropType, model.PropConfig, model.PropMetric} {
		add(rel.IRI())
	}
	return relations
}

// MergeStores merges the sub-graphs of several provenance stores — the
// cross-run / cross-workflow provenance the paper's conclusion calls for
// (§8): each run keeps its own store, and GUID-based node identity unifies
// the shared agents, data objects, and configuration records at merge time.
func MergeStores(stores ...*Store) (*rdf.Graph, error) {
	merged := rdf.NewGraph()
	for _, s := range stores {
		g, err := s.Merge()
		if err != nil {
			return nil, err
		}
		merged.Merge(g)
	}
	return merged, nil
}
