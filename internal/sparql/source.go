package sparql

import "github.com/hpc-io/prov-io/internal/rdf"

// Source is the read surface the planner and executor run against: the
// ID-level scan/count/stats API of the immutable *rdf.Snapshot (lock-free),
// which *rdf.Graph also offers by answering each call from its current
// snapshot.
//
// EvalParallel compiles and executes against one Snapshot, so a query
// acquires the graph lock exactly once — when the snapshot is pinned — and
// reads one graph state throughout.
type Source interface {
	// TermID resolves a term to its dictionary ID, reporting whether it is
	// interned (visible to this source).
	TermID(t rdf.Term) (rdf.ID, bool)
	// TermOf rehydrates a dictionary ID (zero Term when out of range).
	TermOf(id rdf.ID) rdf.Term
	// ForEachMatchIDs streams matching triples in ID space; rdf.NoID is the
	// wildcard, fn returning false stops early.
	ForEachMatchIDs(s, p, o rdf.ID, fn func(s, p, o rdf.ID) bool)
	// CountMatchIDs is the planner's exact cardinality oracle.
	CountMatchIDs(s, p, o rdf.ID) int
	// PredStats returns a predicate's triple/distinct-subject/distinct-object
	// counts.
	PredStats(p rdf.ID) (triples, subjects, objects int)
	// IndexStats returns the global distinct subject/predicate/object counts.
	IndexStats() (subjects, predicates, objects int)
	// Len returns the triple count.
	Len() int
}

// ScanSource is a Source whose pattern scans expose an exact, partitionable
// morsel domain — the surface the morsel-parallel executor fans out over.
// The contract (inherited from rdf.Snapshot, the reference implementation):
//
//   - ScanLen(s, p, o) is the number of base index items a full enumeration
//     of the pattern walks, each item emitting at most one triple;
//   - ScanRange(s, p, o, lo, hi, fn) enumerates [lo, hi) of that domain, and
//     concatenating adjacent ranges reproduces the full scan exactly (items
//     failing a residual filter emit nothing);
//   - both are safe for concurrent use and deterministic for the source's
//     lifetime — ScanLen must not change between the partitioning call and
//     the per-morsel ScanRange calls.
//
// core's out-of-core LazySource federates many per-unit snapshots behind
// this interface, which is how a store larger than RAM runs the unchanged
// parallel executor. Its lifetime is one query's: the first ScanLen of a
// pattern records the pattern's domain on the source and ScanRange walks
// that record, while ForEachMatchIDs streams the units and records nothing.
type ScanSource interface {
	Source
	ScanLen(s, p, o rdf.ID) int
	ScanRange(s, p, o rdf.ID, lo, hi int, fn func(s, p, o rdf.ID) bool) bool
}

var (
	_ Source     = (*rdf.Graph)(nil)
	_ Source     = (*rdf.Snapshot)(nil)
	_ ScanSource = (*rdf.Snapshot)(nil)
)
