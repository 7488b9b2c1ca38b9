package sparql

import (
	"github.com/hpc-io/prov-io/internal/rdf"
)

// Materialized result cache, keyed on the snapshot epoch pair.
//
// Every Graph mutation moves the (watermark, removeEpoch) pair — Add bumps
// the watermark, Remove bumps removeEpoch — and Graph.Snapshot only reuses a
// *Snapshot while that pair is unchanged. Memoizing a query's *Result on the
// snapshot itself therefore gives epoch-keyed invalidation for free: a
// repeated query against an unchanged graph lands on the same snapshot and
// hits; any Add or Remove produces a fresh snapshot with an empty memo and
// misses. The epochs are still stored and compared on lookup as a belt —
// if a caller holds a stale snapshot pointer across mutations the entry is
// rejected rather than served.
//
// Cached *Result values are shared between callers and must be treated as
// read-only; ExecParallelInfo returns them without copying.

// cacheEntry is one memoized query result plus the epochs it was computed at.
type cacheEntry struct {
	watermark   int
	removeEpoch uint64
	res         *Result
}

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
		if e, ok := v.(cacheEntry); ok && e.watermark == snap.Watermark() && e.removeEpoch == snap.RemoveEpoch() {
			return e.res, ExecInfo{Workers: workers, CacheHit: true}, nil
		}
	}
	p := Compile(snap, q)
	res, info, err := runPlanParallelInfo(snap, p, workers)
	if err != nil {
		return nil, info, err
	}
	snap.SetMemo(key, cacheEntry{watermark: snap.Watermark(), removeEpoch: snap.RemoveEpoch(), res: res})
	return res, info, nil
}
