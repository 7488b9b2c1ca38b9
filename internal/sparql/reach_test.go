package sparql_test

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/hpc-io/prov-io/internal/core"
	"github.com/hpc-io/prov-io/internal/rdf"
	"github.com/hpc-io/prov-io/internal/sparql"
	"github.com/hpc-io/prov-io/internal/vfs"
)

// reachOracle is Reach restated in term space over the triple list: the
// hop distance of every node entered from the roots.
func reachOracle(ts []rdf.Triple, roots []rdf.Term, preds map[rdf.Term]bool, dir sparql.Dir, maxHops int) map[rdf.Term]int {
	depth := map[rdf.Term]int{}
	var queue []rdf.Term
	for _, r := range roots {
		if _, ok := depth[r]; !ok {
			depth[r] = 0
			queue = append(queue, r)
		}
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if maxHops > 0 && depth[cur] >= maxHops {
			continue
		}
		for _, t := range ts {
			if !preds[t.P] {
				continue
			}
			var next rdf.Term
			switch {
			case dir&sparql.Out != 0 && t.S == cur:
				next = t.O
			case dir&sparql.In != 0 && t.O == cur:
				next = t.S
			default:
				continue
			}
			if _, seen := depth[next]; !seen && !next.IsLiteral() {
				depth[next] = depth[cur] + 1
				queue = append(queue, next)
			}
		}
	}
	return depth
}

// lazySourceOf writes the triples to a store as delta segments of a few
// triples each and opens them through a view that keeps nothing resident.
func lazySourceOf(t *testing.T, rng *rand.Rand, ts []rdf.Triple) *core.LazySource {
	t.Helper()
	store, err := core.NewStore(core.VFSBackend{View: vfs.NewStore().NewView()}, "/prov", core.FormatBinary)
	if err != nil {
		t.Fatal(err)
	}
	for i, lo := 0, 0; lo < len(ts); i++ {
		hi := min(len(ts), lo+1+rng.Intn(6))
		g := rdf.NewGraph()
		g.AddBatch(ts[lo:hi])
		refs, _ := g.RefsSince(0)
		if err := store.WriteDeltaSegmentRefs(i%2, i/2, refs, rdf.NewTermRenderer(g)); err != nil {
			t.Fatal(err)
		}
		lo = hi
	}
	view, err := store.OpenLazy(core.CacheConfig{MaxBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	return view.Source(nil)
}

// TestReach: over a pinned snapshot and over a lazy source holding the same
// random graph, Reach enters exactly the oracle's nodes at the oracle's
// depths, each once, in nondecreasing depth order with the roots first —
// for every direction and hop bound. Literal objects of followed
// predicates are never entered; an unfollowed predicate links nothing.
func TestReach(t *testing.T) {
	node := func(i int) rdf.Term { return rdf.IRI(fmt.Sprintf("urn:n%d", i)) }
	followed := []rdf.Term{rdf.IRI("urn:p0"), rdf.IRI("urn:p1")}
	other := rdf.IRI("urn:q")
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nodes := 4 + rng.Intn(20)
		g := rdf.NewGraph()
		for i := nodes + rng.Intn(2*nodes); i > 0; i-- {
			s, p, o := node(rng.Intn(nodes)), followed[rng.Intn(2)], node(rng.Intn(nodes))
			switch rng.Intn(5) {
			case 0:
				p = other
			case 1:
				o = rdf.Literal(fmt.Sprintf("v%d", rng.Intn(3)))
			}
			g.Add(rdf.Triple{S: s, P: p, O: o})
		}
		ts := g.Triples()
		roots := []rdf.Term{ts[rng.Intn(len(ts))].S, ts[rng.Intn(len(ts))].S}
		distinct := roots[:1]
		if roots[1] != roots[0] {
			distinct = roots
		}
		predSet := map[rdf.Term]bool{followed[0]: true, followed[1]: true}
		sources := []struct {
			name string
			src  sparql.Source
		}{{"snapshot", g.Snapshot()}, {"lazy", lazySourceOf(t, rng, ts)}}
		for _, sc := range sources {
			src := sc.src
			preds := map[rdf.ID]bool{}
			for p := range predSet {
				if id, ok := src.TermID(p); ok {
					preds[id] = true
				}
			}
			ids := []rdf.ID{rdf.NoID}
			for _, r := range roots {
				id, _ := src.TermID(r)
				ids = append(ids, id)
			}
			for _, dir := range []sparql.Dir{sparql.Out, sparql.In, sparql.Both} {
				for _, hops := range []int{0, 1, 2, 3} {
					tag := fmt.Sprintf("seed %d %s dir %d hops %d", seed, sc.name, dir, hops)
					want := reachOracle(ts, roots, predSet, dir, hops)
					got := sparql.Reach(src, ids, preds, dir, hops)
					if len(got) != len(want) {
						t.Fatalf("%s: reached %d nodes, want %d", tag, len(got), len(want))
					}
					prev := 0
					for i, n := range got {
						term := src.TermOf(n.ID)
						if d, ok := want[term]; !ok || d != n.Depth {
							t.Fatalf("%s: %v at depth %d, oracle depth %d (present %v)", tag, term, n.Depth, d, ok)
						}
						if n.Depth < prev || (i < len(distinct) && term != distinct[i]) {
							t.Fatalf("%s: %v at position %d depth %d breaks discovery order", tag, term, i, n.Depth)
						}
						prev = n.Depth
						delete(want, term)
					}
				}
			}
		}
	}
}
