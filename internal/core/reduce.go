package core

import (
	"slices"
	"strconv"
	"strings"

	"github.com/hpc-io/prov-io/internal/model"
	"github.com/hpc-io/prov-io/internal/rdf"
	"github.com/hpc-io/prov-io/internal/sparql"
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
// The reduction is reduceLineage over one pinned rdf.Snapshot: a single
// graph-lock acquisition, and a consistent view even while ingest
// continues. maxHops <= 0 means unbounded (full connected component).
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
	out := reduceLineage(snap, roots, maxHops)
	snap.SetMemo(key, out)
	return out
}

// ReduceLineageUncached is ReduceLineage without the snapshot memo: every
// call runs the walk and returns a graph the caller owns, so a benchmark of
// the traversal is not short-circuited by the cache.
func ReduceLineageUncached(g *rdf.Graph, roots []rdf.Term, maxHops int) *rdf.Graph {
	return reduceLineage(g.Snapshot(), roots, maxHops)
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

// reduceLineage is the one lineage reducer, over any query source (a
// snapshot, or a lazy view's source): sparql.Reach finds the kept nodes,
// then each kept node's own triples are copied — probed with only the node
// bound as subject, so nothing outside the kept set is enumerated. A
// relation edge is kept only when its object is kept too; every other
// triple of a kept node is an annotation and is kept.
func reduceLineage(src sparql.Source, roots []rdf.Term, maxHops int) *rdf.Graph {
	var ids []rdf.ID
	for _, r := range roots {
		if r.IsZero() {
			continue
		}
		if id, ok := src.TermID(r); ok { // a root absent from the graph has no neighborhood
			ids = append(ids, id)
		}
	}
	relations := lineageRelationIDs(src)
	reached := sparql.Reach(src, ids, relations, sparql.Both, maxHops)
	kept := make(map[rdf.ID]bool, len(reached))
	for _, n := range reached {
		kept[n.ID] = true
	}
	out := rdf.NewGraph()
	for _, n := range reached {
		src.ForEachMatchIDs(n.ID, rdf.NoID, rdf.NoID, func(s, p, o rdf.ID) bool {
			if !slices.Contains(relations, p) || kept[o] {
				out.Add(rdf.Triple{S: src.TermOf(s), P: src.TermOf(p), O: src.TermOf(o)})
			}
			return true
		})
	}
	return out
}

// lineageIRIs are the traversable relation predicates: every relation but
// prov:wasMemberOf, which is classification, not lineage — following it
// would connect every entity through the shared super-class nodes; it is
// kept as an annotation of retained nodes instead — and the three property
// relations.
var lineageIRIs = func() []rdf.Term {
	var iris []rdf.Term
	for _, rel := range append(model.AllRelations(), model.PropType, model.PropConfig, model.PropMetric) {
		if rel != model.WasMemberOf {
			iris = append(iris, rel.IRI())
		}
	}
	return iris
}()

// lineageRelationIDs resolves lineageIRIs to their dictionary IDs in the
// source. Predicates absent from the source are simply omitted.
func lineageRelationIDs(src sparql.Source) []rdf.ID {
	ids := make([]rdf.ID, 0, len(lineageIRIs))
	for _, iri := range lineageIRIs {
		if id, ok := src.TermID(iri); ok {
			ids = append(ids, id)
		}
	}
	return ids
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
