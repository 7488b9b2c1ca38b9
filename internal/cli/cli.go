// Package cli is the store-opening plumbing shared by the provio command
// line tools: one place that resolves the -store flag (a spec string; a bare
// directory path stays a valid alias for dir:), so every tool accepts every
// backend and their help text stays in sync — and one place (OpenSource)
// that turns the -cache-bytes flag into the source a tool reads through.
package cli

import (
	"fmt"
	"time"

	"github.com/hpc-io/prov-io/internal/core"
	"github.com/hpc-io/prov-io/internal/rdf"
	"github.com/hpc-io/prov-io/internal/sparql"
)

// StoreUsage is the shared help text of the -store flag.
const StoreUsage = "provenance store: a directory, or a spec — dir:/path | mem: | file:/store.pvs | mount:hot=SPEC,cold=SPEC"

// Rate renders a maintenance step's throughput the way bench/perf reports
// verify_mb_per_s and pack_mb_per_s: store bytes over wall time, in MB/s.
func Rate(bytes int64, elapsed time.Duration) string {
	return fmt.Sprintf("%.1f MB/s", float64(bytes)/1e6/elapsed.Seconds())
}

// OpenStore opens the store a tool's -store flag names. The empty spec is
// rejected (-store is required everywhere).
func OpenStore(spec string) (*core.Store, error) {
	if spec == "" {
		return nil, fmt.Errorf("-store is required")
	}
	return core.OpenStore(spec, core.FormatBinary)
}

// Source is the read side of a store as a tool opened it: the eagerly
// merged graph, or a lazy view decoding units on demand into a bounded
// cache. The budget a tool passes OpenSource picks one, and the tool then
// reads through the same calls either way.
type Source struct {
	// Query is what provio.Query and provio.Explain run over: the merged
	// *rdf.Graph, or the view's *core.LazySource.
	Query sparql.Source

	view       *core.LazyView  // nil for an eager merge
	scan       *core.ScanStats // what the eager merge decoded
	workers    int
	cacheBytes int64
}

// OpenSource opens the store for reading, on the path the decoded-unit
// cache budget picks. At 0 (or below) it merges the units the pruner admits
// up front with `workers` decode workers; above 0 it pins the layout in a
// view whose cache holds at most cacheBytes and admits the same units into
// a query source.
func OpenSource(store *core.Store, pruner *core.SegmentPruner, workers int, cacheBytes int64) (*Source, error) {
	if cacheBytes <= 0 {
		g, scan, err := store.MergePruned(pruner, workers)
		if err != nil {
			return nil, fmt.Errorf("merge: %w", err)
		}
		return &Source{Query: g, scan: scan, workers: workers}, nil
	}
	view, err := store.OpenLazy(core.CacheConfig{MaxBytes: cacheBytes})
	if err != nil {
		return nil, fmt.Errorf("open lazy view: %w", err)
	}
	return &Source{Query: view.Source(pruner), view: view, workers: workers, cacheBytes: cacheBytes}, nil
}

// Pushdown is the report a plan opens with: what the eager merge decoded,
// or how many units the lazy source admitted (nothing is decoded yet).
func (s *Source) Pushdown() string {
	ls, ok := s.Query.(*core.LazySource)
	if !ok {
		return s.scan.String()
	}
	return fmt.Sprintf("%d/%d unit(s) admitted (lazy view, cache %d bytes)", ls.Admitted(), ls.Stats().Units, s.cacheBytes)
}

// Scan reports what reading has touched so far: the eager merge's scan, or
// the units the lazy source's queries paged in plus the cache counters.
func (s *Source) Scan() *core.ScanStats {
	if ls, ok := s.Query.(*core.LazySource); ok {
		return ls.Stats()
	}
	return s.scan
}

// Graph returns the whole store as one graph with the scan that produced
// it: the eager merge itself, or the view materialized through its cache.
func (s *Source) Graph() (*rdf.Graph, *core.ScanStats, error) {
	if s.view == nil {
		return s.Query.(*rdf.Graph), s.scan, nil
	}
	return s.view.MaterializeGraph(s.workers)
}

// Residency is the lazy view's per-level decoded/resident byte breakdown,
// keyed by level; nil for an eager merge.
func (s *Source) Residency() map[int]core.LevelResidency {
	if s.view == nil {
		return nil
	}
	out := make(map[int]core.LevelResidency)
	for _, lr := range s.view.LevelResidency() {
		out[lr.Level] = lr
	}
	return out
}
