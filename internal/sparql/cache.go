package sparql

import (
	"github.com/hpc-io/prov-io/internal/rdf"
)

// Materialized result cache, keyed on the snapshot.
//
// The graph is append-only, and Graph.Snapshot reuses a *Snapshot exactly
// while the insertion log has not grown. Memoizing a query's *Result on the
// snapshot itself therefore gives epoch-keyed invalidation for free: a
// repeated query against an unchanged graph lands on the same snapshot and
// hits; any Add produces a fresh snapshot with an empty memo and misses. A
// snapshot never changes, so an entry can never be stale for the snapshot
// that holds it.
//
// Cached *Result values are shared between callers and must be treated as
// read-only; ExecParallelInfo returns them without copying.

// cacheKey namespaces SPARQL results within the snapshot memo (the lineage
// reducer shares the same memo with its own prefix).
const cacheKeyPrefix = "sparql\x00"

// ExecParallelInfo parses and runs a query with the epoch-keyed result
// cache in front of the executor, reporting how the query was served.
func ExecParallelInfo(g *rdf.Graph, query string, base *rdf.Namespaces, workers int) (*Result, ExecInfo, error) {
	q, err := Parse(query, base)
	if err != nil {
		return nil, ExecInfo{Workers: workers}, err
	}
	snap := g.Snapshot()
	key := cacheKeyPrefix + query
	if v, ok := snap.Memo(key); ok {
		return v.(*Result), ExecInfo{Workers: workers, CacheHit: true}, nil
	}
	p := Compile(snap, q)
	res, info, err := runPlanParallelInfo(snap, p, workers)
	if err != nil {
		return nil, info, err
	}
	snap.SetMemo(key, res)
	return res, info, nil
}
