package rdf

import (
	"sync"
	"sync/atomic"
)

// Snapshot is an immutable read view of a Graph, pinned at an insertion-log
// watermark, and the home of the only adjacency index there is: the graph
// itself keeps a log and a membership table, and its pattern scans delegate
// here. All scan methods run lock-free: a snapshot holds its own term table,
// triple list, and (lazily built) adjacency index, none of which the live
// graph ever mutates, so a long query touches the graph mutex exactly once —
// in Graph.Snapshot — and a scan callback may freely call Add/Remove/Flush
// on the underlying graph without deadlocking (the mutations are simply not
// visible to the snapshot).
//
// This is the reader half of the capture-vs-query split: writers keep
// appending under the graph lock while queries run against a pinned prefix
// of the insertion log. Snapshots are cheap when the graph is quiescent
// (the last one is cached and reused until the watermark moves) and
// incremental under ingest (a new snapshot extends the previous one's index
// with the log delta, structurally sharing everything untouched).
type Snapshot struct {
	dict  *termDict
	terms []Term
	// refs is the pinned triple list: the surviving insertion-log prefix at
	// the watermark, one entry per present triple — the log's own backing
	// array while the graph never saw a Remove, an owned deduplicated copy
	// after. It is the morsel domain of full scans and the source the index
	// is built from.
	refs        []TripleID
	watermark   int
	removeEpoch uint64

	// idx is the lazily built adjacency index. Full-graph scans never need
	// it (they walk refs); pattern probes build it on first use. When the
	// previous snapshot's index was already built, Graph.Snapshot extends it
	// eagerly instead, sharing every untouched node.
	idxMu sync.Mutex
	idx   atomic.Pointer[snapIndex]

	// memo caches derived results (query results, lineage closures) keyed by
	// an arbitrary string. A snapshot is immutable, so anything computed from
	// it stays valid for its whole lifetime; because Graph.Snapshot returns a
	// fresh Snapshot whenever the (watermark, removeEpoch) pair moves, the
	// memo dies with the snapshot on any Add or Remove — epoch-keyed
	// invalidation for free. Entries should be treated as read-only by every
	// consumer.
	memo sync.Map
}

// Memo returns the cached value stored under key, if any.
func (s *Snapshot) Memo(key string) (any, bool) { return s.memo.Load(key) }

// SetMemo caches a derived value under key for the snapshot's lifetime.
func (s *Snapshot) SetMemo(key string, v any) { s.memo.Store(key, v) }

// snapPO is one (predicate, object) adjacency entry of a subject.
type snapPO struct{ p, o termID }

// snapSO is one (subject, object) entry of a predicate's flat posting list.
type snapSO struct{ s, o termID }

// snapSubj is a subject's adjacency in a snapshot index. Slices are
// append-shared across snapshot generations: a newer snapshot may append
// past this snapshot's length into the same backing array (builds are
// serialized by Graph.snapMu), which never disturbs entries below it.
type snapSubj struct{ pairs []snapPO }

// snapSrc is an object's (subject, predicate) source list.
type snapSrc struct{ pairs []spair }

// snapPred is a predicate's index node: the flat (s, o) posting list that
// morsel partitioning ranges over, the o -> subjects map behind (? p o)
// probes, and the maintained cardinalities the query planner reads.
type snapPred struct {
	triples  int
	subjects int
	flat     []snapSO
	byObj    map[termID][]termID
}

// snapIndex is a snapshot's adjacency index. The maps are never mutated
// after publication; an extension copies the map headers (and the touched
// nodes) into fresh maps while sharing all untouched slices.
type snapIndex struct {
	spo map[termID]snapSubj
	pos map[termID]snapPred
	osp map[termID]snapSrc
}

// Snapshot returns an immutable read view of the graph pinned at the current
// insertion-log watermark. The view is internally cached: while no triples
// are added or removed, every call returns the same *Snapshot, and after
// appends the next call extends the cached view with just the log delta.
// After a Remove the view is rebuilt from the surviving log (removals are
// rare in provenance workloads; appends are the steady state).
func (g *Graph) Snapshot() *Snapshot {
	g.mu.RLock()
	w, re := len(g.log), g.removeEpoch
	g.mu.RUnlock()
	if s := g.snap.Load(); s != nil && s.watermark == w && s.removeEpoch == re {
		return s
	}

	g.snapMu.Lock()
	defer g.snapMu.Unlock()
	base := g.snap.Load()

	g.mu.RLock()
	w, re = len(g.log), g.removeEpoch
	if base != nil && base.watermark == w && base.removeEpoch == re {
		g.mu.RUnlock()
		return base
	}
	incremental := base != nil && base.removeEpoch == re
	// Entries below w in the log's backing array are immutable (the log is
	// append-only and reallocation abandons the old array), so sub-slices
	// stay valid after the lock is dropped.
	var refs, delta []TripleID
	if incremental {
		delta = g.log[base.watermark:w]
	}
	if re == 0 {
		// Never removed: the log prefix is the surviving triple list. Pin it
		// in place, capped so nothing can append through this header.
		refs = g.log[:w:w]
	} else if !incremental {
		refs = g.survivingRefsLocked()
	}
	g.mu.RUnlock()

	ns := &Snapshot{dict: &g.dict, terms: g.dict.snapshot(), refs: refs, watermark: w, removeEpoch: re}
	if incremental {
		if re != 0 {
			// Owned append: after a Remove, refs is never an alias of g.log,
			// so growing it (serialized by snapMu) cannot collide with
			// concurrent Adds, and base's readers only see their own length.
			ns.refs = append(base.refs, delta...)
		}
		if bix := base.idx.Load(); bix != nil {
			ns.idx.Store(extendSnapIndex(bix, delta))
		}
	}
	g.snap.Store(ns)
	return ns
}

// survivingRefsLocked returns the present triples in insertion-log order,
// deduplicated (a triple removed and re-added has two surviving log entries;
// the first is kept). Caller must hold g.mu. This is the O(graph) rebuild
// path taken only after a Remove invalidated the cached snapshot.
func (g *Graph) survivingRefsLocked() []TripleID {
	out := make([]TripleID, 0, g.size)
	seen := make(map[TripleID]struct{}, g.size)
	for _, r := range g.log {
		if g.findLocked(r) < 0 {
			continue
		}
		if _, dup := seen[r]; dup {
			continue
		}
		seen[r] = struct{}{}
		out = append(out, r)
	}
	return out
}

// index returns the snapshot's adjacency index, building it from refs on
// first use. Full scans never call it.
func (s *Snapshot) index() *snapIndex {
	if ix := s.idx.Load(); ix != nil {
		return ix
	}
	s.idxMu.Lock()
	defer s.idxMu.Unlock()
	if ix := s.idx.Load(); ix != nil {
		return ix
	}
	ix := &snapIndex{
		spo: make(map[termID]snapSubj),
		pos: make(map[termID]snapPred),
		osp: make(map[termID]snapSrc),
	}
	ix.insertAll(s.refs, nil)
	s.idx.Store(ix)
	return ix
}

// extendSnapIndex builds the index of base + delta, copying the top-level
// map headers and mutating only touched nodes; untouched posting lists are
// shared with base. Appends may write past base's slice lengths into shared
// backing arrays — safe because builds are serialized and base's readers are
// bounded by their own lengths.
func extendSnapIndex(base *snapIndex, delta []TripleID) *snapIndex {
	ix := &snapIndex{
		spo: make(map[termID]snapSubj, len(base.spo)+len(delta)/4),
		pos: make(map[termID]snapPred, len(base.pos)),
		osp: make(map[termID]snapSrc, len(base.osp)+len(delta)/4),
	}
	for k, v := range base.spo {
		ix.spo[k] = v
	}
	for k, v := range base.pos {
		ix.pos[k] = v
	}
	for k, v := range base.osp {
		ix.osp[k] = v
	}
	// byObj maps are shared with base until first touch in this extension.
	touched := make(map[termID]bool, len(base.pos))
	ix.insertAll(delta, touched)
	return ix
}

// insertAll inserts refs into the index. touchedByObj tracks which
// predicates' byObj maps are already private to this build: nil means every
// node is private (from-scratch build), non-nil means byObj maps are shared
// with a base index and must be copied before the first mutation.
func (ix *snapIndex) insertAll(refs []TripleID, touchedByObj map[termID]bool) {
	for _, r := range refs {
		sub := ix.spo[r.S]
		pNew := true
		for _, po := range sub.pairs {
			if po.p == r.P {
				pNew = false
				break
			}
		}
		sub.pairs = append(sub.pairs, snapPO{p: r.P, o: r.O})
		ix.spo[r.S] = sub

		pn, ok := ix.pos[r.P]
		if !ok {
			pn = snapPred{byObj: make(map[termID][]termID)}
			if touchedByObj != nil {
				touchedByObj[r.P] = true
			}
		} else if touchedByObj != nil && !touchedByObj[r.P] {
			cp := make(map[termID][]termID, len(pn.byObj)+1)
			for k, v := range pn.byObj {
				cp[k] = v
			}
			pn.byObj = cp
			touchedByObj[r.P] = true
		}
		pn.triples++
		if pNew {
			pn.subjects++
		}
		pn.flat = append(pn.flat, snapSO{s: r.S, o: r.O})
		pn.byObj[r.O] = append(pn.byObj[r.O], r.S)
		ix.pos[r.P] = pn

		src := ix.osp[r.O]
		src.pairs = append(src.pairs, spair{s: r.S, p: r.P})
		ix.osp[r.O] = src
	}
}

// ---- read API (mirrors the Graph ID-level API, lock-free) ----

// Len returns the number of triples in the snapshot.
func (s *Snapshot) Len() int { return len(s.refs) }

// Watermark returns the insertion-log position the snapshot is pinned at:
// every triple visible in the snapshot was appended at a log position below
// it.
func (s *Snapshot) Watermark() int { return s.watermark }

// RemoveEpoch returns the graph's remove epoch at pin time. Together with
// Watermark it identifies the exact graph state a snapshot (and anything
// memoized on it) was computed from.
func (s *Snapshot) RemoveEpoch() uint64 { return s.removeEpoch }

// TermCount returns the number of terms in the snapshot's term table.
func (s *Snapshot) TermCount() int { return len(s.terms) }

// TermOf returns the term interned under id, or the zero Term if id is
// outside the snapshot's term table (including NoID).
func (s *Snapshot) TermOf(id ID) Term {
	if int(id) >= len(s.terms) {
		return Term{}
	}
	return s.terms[id]
}

// TermID returns the snapshot-visible dictionary ID of t. Terms interned
// after the snapshot was taken report !ok: the snapshot is self-consistent.
func (s *Snapshot) TermID(t Term) (ID, bool) {
	id, ok := s.dict.lookup(t)
	if !ok || int(id) >= len(s.terms) {
		return 0, false
	}
	return id, true
}

// inRange reports whether the pattern IDs are answerable: NoID is the
// wildcard, any other ID beyond the term table matches nothing.
func (s *Snapshot) inRange(ids ...ID) bool {
	for _, id := range ids {
		if id != NoID && int(id) >= len(s.terms) {
			return false
		}
	}
	return true
}

// ForEachMatchIDs streams the dictionary IDs of all triples matching the
// pattern (NoID = wildcard) to fn; fn returning false stops early. No lock is
// held: fn may mutate the underlying graph.
// Enumeration order is deterministic for a given snapshot (insertion order
// within each index node), and identical to concatenating ScanRange over the
// full domain.
func (s *Snapshot) ForEachMatchIDs(sid, pid, oid ID, fn func(s, p, o ID) bool) {
	s.ScanRange(sid, pid, oid, 0, s.ScanLen(sid, pid, oid), fn)
}

// ForEachMatch streams all triples matching the pattern to fn, rehydrating
// terms from the snapshot's term table. A nil pointer matches any term.
func (s *Snapshot) ForEachMatch(sp, pp, op *Term, fn func(Triple) bool) {
	sid, pid, oid := NoID, NoID, NoID
	var ok bool
	if sp != nil {
		if sid, ok = s.TermID(*sp); !ok {
			return
		}
	}
	if pp != nil {
		if pid, ok = s.TermID(*pp); !ok {
			return
		}
	}
	if op != nil {
		if oid, ok = s.TermID(*op); !ok {
			return
		}
	}
	s.ForEachMatchIDs(sid, pid, oid, func(si, pi, oi ID) bool {
		return fn(Triple{S: s.terms[si], P: s.terms[pi], O: s.terms[oi]})
	})
}

// ScanLen returns the size of the pattern's morsel domain: the number of
// base index items a full enumeration of the pattern walks. Each item emits
// at most one triple, so [0, ScanLen) ranges partition the scan exactly —
// this is the domain the parallel executor splits into morsels.
func (s *Snapshot) ScanLen(sid, pid, oid ID) int {
	if !s.inRange(sid, pid, oid) {
		return 0
	}
	switch {
	case sid != NoID:
		ix := s.index()
		return len(ix.spo[sid].pairs)
	case pid != NoID:
		ix := s.index()
		pn, ok := ix.pos[pid]
		if !ok {
			return 0
		}
		if oid != NoID {
			return len(pn.byObj[oid])
		}
		return len(pn.flat)
	case oid != NoID:
		ix := s.index()
		return len(ix.osp[oid].pairs)
	default:
		return len(s.refs)
	}
}

// ScanRange enumerates the pattern over the base-item range [lo, hi) of its
// morsel domain (see ScanLen), emitting each matching triple to fn. It
// reports false iff fn stopped the scan. Items that fail the residual filter
// (a bound position the domain does not already discriminate on) emit
// nothing, so concatenating adjacent ranges reproduces the full scan.
func (s *Snapshot) ScanRange(sid, pid, oid ID, lo, hi int, fn func(s, p, o ID) bool) bool {
	if lo < 0 {
		lo = 0
	}
	if n := s.ScanLen(sid, pid, oid); hi > n {
		hi = n
	}
	if lo >= hi {
		return true
	}
	switch {
	case sid != NoID:
		for _, po := range s.index().spo[sid].pairs[lo:hi] {
			if pid != NoID && po.p != pid {
				continue
			}
			if oid != NoID && po.o != oid {
				continue
			}
			if !fn(sid, po.p, po.o) {
				return false
			}
		}
	case pid != NoID:
		pn := s.index().pos[pid]
		if oid != NoID {
			for _, si := range pn.byObj[oid][lo:hi] {
				if !fn(si, pid, oid) {
					return false
				}
			}
			return true
		}
		for _, so := range pn.flat[lo:hi] {
			if !fn(so.s, pid, so.o) {
				return false
			}
		}
	case oid != NoID:
		for _, pr := range s.index().osp[oid].pairs[lo:hi] {
			if !fn(pr.s, pr.p, oid) {
				return false
			}
		}
	default:
		for _, r := range s.refs[lo:hi] {
			if !fn(r.S, r.P, r.O) {
				return false
			}
		}
	}
	return true
}

// CountMatchIDs returns the exact number of triples matching the ID pattern
// (NoID = wildcard), read off the index without enumerating where a node
// answers directly:
//
//	(? p o) -> POS posting-list length  (? p ?) -> per-predicate count
//	(s ? ?) -> subject's adjacency size (? ? o) -> OSP source count
//	(? ? ?) -> snapshot size            otherwise a walk of s's adjacency
func (s *Snapshot) CountMatchIDs(sid, pid, oid ID) int {
	if !s.inRange(sid, pid, oid) {
		return 0
	}
	switch {
	case sid != NoID:
		pairs := s.index().spo[sid].pairs
		if pid == NoID && oid == NoID {
			return len(pairs)
		}
		c := 0
		for _, po := range pairs {
			if (pid == NoID || po.p == pid) && (oid == NoID || po.o == oid) {
				c++
			}
		}
		return c
	case pid != NoID:
		pn, ok := s.index().pos[pid]
		if !ok {
			return 0
		}
		if oid != NoID {
			return len(pn.byObj[oid])
		}
		return pn.triples
	case oid != NoID:
		return len(s.index().osp[oid].pairs)
	default:
		return len(s.refs)
	}
}

// PredStats returns the maintained cardinalities of predicate p in the
// snapshot: triple count and distinct subject/object counts.
func (s *Snapshot) PredStats(p ID) (triples, subjects, objects int) {
	if !s.inRange(p) || p == NoID {
		return 0, 0, 0
	}
	pn, ok := s.index().pos[p]
	if !ok {
		return 0, 0, 0
	}
	return pn.triples, pn.subjects, len(pn.byObj)
}

// IndexStats returns the snapshot's distinct subject, predicate, and object
// counts — the planner's global divisors.
func (s *Snapshot) IndexStats() (subjects, predicates, objects int) {
	ix := s.index()
	return len(ix.spo), len(ix.pos), len(ix.osp)
}
