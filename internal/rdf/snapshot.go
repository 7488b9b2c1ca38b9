package rdf

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Snapshot is an immutable read view of a Graph, pinned at a prefix of its
// insertion log, and the home of the only adjacency index there is: the
// graph itself keeps a log and a membership table (which no snapshot reads,
// so a sorted graph has none), and its pattern scans delegate here.
// All scan methods run lock-free: a snapshot holds its own term table,
// triple list, and (lazily built) adjacency index, none of which the live
// graph ever mutates, so a long query touches the graph mutex exactly once
// — in Graph.Snapshot — and a scan callback may freely call Add/Flush on
// the underlying graph without deadlocking (the mutations are simply not
// visible to the snapshot).
//
// This is the reader half of the capture-vs-query split: writers keep
// appending under the graph lock while queries run against a pinned prefix
// of the insertion log. Snapshots are cheap when the graph is quiescent
// (the last one is cached and reused until the log grows); under ingest a
// new pin shares the log and the term table with the last one and derives
// its own index from them in one linear pass (see buildSnapIndex).
type Snapshot struct {
	g     *Graph
	terms termTable
	// refs is the pinned triple list: the insertion-log prefix at pin time,
	// aliasing the log's own backing array. It is the morsel domain of full
	// scans and the source the index is built from.
	refs []TripleID

	// idx is the lazily built adjacency index. Full-graph scans never need
	// it (they walk refs); pattern probes build it on first use. When the
	// previous snapshot's index was already built, Graph.Snapshot builds this
	// one eagerly instead.
	idxMu sync.Mutex
	idx   atomic.Pointer[snapIndex]

	// memo caches derived results (query results, lineage closures) keyed by
	// an arbitrary string. A snapshot is immutable, so anything computed from
	// it stays valid for its whole lifetime; because Graph.Snapshot returns a
	// fresh Snapshot whenever the log grows, the memo dies with the snapshot
	// on any Add — invalidation for free. Entries should be treated as
	// read-only by every consumer.
	memo sync.Map
}

// Memo returns the cached value stored under key, if any.
func (s *Snapshot) Memo(key string) (any, bool) { return s.memo.Load(key) }

// SetMemo caches a derived value under key for the snapshot's lifetime.
func (s *Snapshot) SetMemo(key string, v any) { s.memo.Store(key, v) }

// snapCard is one predicate in use: its run [lo, hi) of flat and its
// distinct subject and object counts.
type snapCard struct {
	p                 termID
	lo, hi            uint32
	subjects, objects uint32
}

// snapIndex is a snapshot's adjacency index in CSR form: three permutations
// of the log positions of the pinned refs, 4 bytes per triple each. spo and
// osp have one offset table each, indexed by term ID (len(terms)+1 entries,
// so term k's run is [off[k], off[k+1])); flat's runs sit on cards, one per
// predicate in use, because only a few dozen terms are predicates. An entry
// is a position into refs, so the triple it stands for is refs[pos]. Every
// run is ascending in position, which is insertion-log order. Positions and
// offsets are 32-bit because log positions are (maxLogEntries).
//
// When the refs already ascend in S (a sorted graph's log), spo would be
// the identity: it is nil, and subject s's run is refs[sOff[s]:sOff[s+1]]
// itself.
type snapIndex struct {
	refs       []TripleID // the snapshot's pinned refs, which the positions index
	sOff, oOff []uint32
	spo        []uint32 // by S; nil when the refs ascend in S
	flat       []uint32 // by P
	osp        []uint32 // by O

	cards               []snapCard // ascending p, one per predicate in use
	nSubjects, nObjects int
}

// buildSnapIndex derives the index from refs by counting sort: one histogram
// pass, which also notes whether the refs ascend in S, then a stable scatter
// of the log positions per permutation that is not the identity. The
// cardinalities fall out of the finished arrays. O(len(refs) + nTerms) time,
// a fixed number of allocations, 12 bytes per triple (8 without spo) and 8
// per term retained.
func buildSnapIndex(refs []TripleID, nTerms int) *snapIndex {
	n := len(refs)
	ix := &snapIndex{
		refs: refs,
		sOff: make([]uint32, nTerms+1), oOff: make([]uint32, nTerms+1),
		flat: make([]uint32, n), osp: make([]uint32, n),
	}
	// cur is the predicate histogram, then the write cursor of each scatter
	// in turn, then the stamp array.
	cur := make([]uint32, nTerms+1)
	sSorted, prevS := true, ID(0)
	for _, r := range refs {
		sSorted = sSorted && prevS <= r.S
		prevS = r.S
		ix.sOff[r.S+1]++
		cur[r.P+1]++
		ix.oOff[r.O+1]++
	}
	nPreds := prefixSum(cur)
	ix.nSubjects, ix.nObjects = prefixSum(ix.sOff), prefixSum(ix.oOff)
	ix.cards = make([]snapCard, 0, nPreds)
	for p := 0; p < nTerms; p++ {
		if cur[p] != cur[p+1] {
			ix.cards = append(ix.cards, snapCard{p: termID(p), lo: cur[p], hi: cur[p+1]})
		}
	}
	for i, r := range refs {
		ix.flat[cur[r.P]] = uint32(i)
		cur[r.P]++
	}
	if !sSorted {
		ix.spo = make([]uint32, n)
		copy(cur, ix.sOff)
		for i, r := range refs {
			ix.spo[cur[r.S]] = uint32(i)
			cur[r.S]++
		}
	}
	copy(cur, ix.oOff)
	for i, r := range refs {
		ix.osp[cur[r.O]] = uint32(i)
		cur[r.O]++
	}

	// Distinct subjects and objects of each predicate are counted by
	// stamping cur[s] and seen[o] with p+1 over its flat run, so a term with
	// many pairs of several predicates costs one compare per pair.
	clear(cur)
	seen := make([]uint32, nTerms)
	for i := range ix.cards {
		c := &ix.cards[i]
		mark := uint32(c.p) + 1
		for _, pos := range ix.flat[c.lo:c.hi] {
			r := refs[pos]
			if cur[r.S] != mark {
				cur[r.S] = mark
				c.subjects++
			}
			if seen[r.O] != mark {
				seen[r.O] = mark
				c.objects++
			}
		}
	}
	return ix
}

// prefixSum turns the histogram off (count of key k at off[k+1]) into run
// starts in place and returns the number of non-empty runs.
func prefixSum(off []uint32) (runs int) {
	for k := 1; k < len(off); k++ {
		if off[k] != 0 {
			runs++
		}
		off[k] += off[k-1]
	}
	return runs
}

// The run lookups return log positions, ascending. IDs must be below the
// term count (see inRange).

// subj returns subject s's run: its positions from spo, or, when spo is nil,
// the refs that are the run (pos nil).
func (ix *snapIndex) subj(s termID) (pos []uint32, run []TripleID) {
	lo, hi := ix.sOff[s], ix.sOff[s+1]
	if ix.spo == nil {
		return nil, ix.refs[lo:hi]
	}
	return ix.spo[lo:hi], nil
}

func (ix *snapIndex) obj(o termID) []uint32 { return ix.osp[ix.oOff[o]:ix.oOff[o+1]] }

func (ix *snapIndex) pred(p termID) []uint32 {
	c := ix.card(p)
	return ix.flat[c.lo:c.hi]
}

// domain returns the run a pattern with a bound position walks: the
// subject's, else the shorter of the predicate's and the object's, else the
// one that is bound. Positions the run does not discriminate on are the
// scan's residual filter, so (? p o) costs O(min run). The run comes as
// positions, or as refs for a subject's run without spo (see subj).
func (ix *snapIndex) domain(sid, pid, oid ID) (pos []uint32, run []TripleID) {
	switch {
	case sid != NoID:
		return ix.subj(sid)
	case pid != NoID && oid != NoID:
		pr, or := ix.pred(pid), ix.obj(oid)
		if len(or) < len(pr) {
			return or, nil
		}
		return pr, nil
	case pid != NoID:
		return ix.pred(pid), nil
	default:
		return ix.obj(oid), nil
	}
}

// card returns predicate p's card, zero when p has no triple.
func (ix *snapIndex) card(p termID) snapCard {
	i := sort.Search(len(ix.cards), func(i int) bool { return ix.cards[i].p >= p })
	if i < len(ix.cards) && ix.cards[i].p == p {
		return ix.cards[i]
	}
	return snapCard{}
}

// Snapshot returns an immutable read view of the graph pinned at the current
// insertion-log length. The view is internally cached: while no triples are
// added, every call returns the same *Snapshot, and after appends the next
// call pins the longer log prefix in place.
func (g *Graph) Snapshot() *Snapshot {
	g.mu.RLock()
	w := len(g.log)
	g.mu.RUnlock()
	if s := g.snap.Load(); s != nil && len(s.refs) == w {
		return s
	}

	g.snapMu.Lock()
	defer g.snapMu.Unlock()
	base := g.snap.Load()

	// Pin the log prefix in place, capped so nothing can append through this
	// header; entries below w are immutable (the log is append-only and
	// reallocation abandons the old array), so it stays valid after the lock
	// is dropped.
	g.mu.RLock()
	w = len(g.log)
	refs := g.log[:w:w]
	g.mu.RUnlock()
	if base != nil && len(base.refs) == w {
		return base
	}

	ns := &Snapshot{g: g, terms: g.dict.snapshot(), refs: refs}
	if base != nil && base.idx.Load() != nil {
		// The graph is being queried between appends: index the new pin now,
		// under snapMu, not inside the next query's first probe.
		ns.idx.Store(buildSnapIndex(ns.refs, ns.terms.len()))
	}
	g.snap.Store(ns)
	return ns
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
	ix := buildSnapIndex(s.refs, s.terms.len())
	s.idx.Store(ix)
	return ix
}

// ---- read API (mirrors the Graph ID-level API, lock-free) ----

// Len returns the number of triples in the snapshot.
func (s *Snapshot) Len() int { return len(s.refs) }

// TermCount returns the number of terms in the snapshot's term table.
func (s *Snapshot) TermCount() int { return s.terms.len() }

// Tables returns the entry counts of the tables a snapshot's graph holds
// only when something needs them: the dictionary's slot table, the graph's
// membership table, and the spo permutation of the index (0 while the index
// is not built). A graph built by NewSortedGraph holds none of the three
// until it is written to. No reader needs them; tests and diagnostics do.
func (s *Snapshot) Tables() (slots, membership, spo int) {
	slots = len(*s.g.dict.slots.Load())
	s.g.mu.RLock()
	membership = len(s.g.table)
	s.g.mu.RUnlock()
	if ix := s.idx.Load(); ix != nil {
		spo = len(ix.spo)
	}
	return slots, membership, spo
}

// TermOf returns the term interned under id, or the zero Term if id is
// outside the snapshot's term table (including NoID).
func (s *Snapshot) TermOf(id ID) Term {
	if int(id) >= s.terms.len() {
		return Term{}
	}
	return s.terms.at(id)
}

// TermID returns the snapshot-visible dictionary ID of t. Terms interned
// after the snapshot was taken report !ok: the snapshot is self-consistent.
func (s *Snapshot) TermID(t Term) (ID, bool) {
	id, ok := s.g.dict.lookup(t)
	if !ok || int(id) >= s.terms.len() {
		return 0, false
	}
	return id, true
}

// inRange reports whether the pattern IDs are answerable: NoID is the
// wildcard, any other ID beyond the term table matches nothing.
func (s *Snapshot) inRange(sid, pid, oid ID) bool {
	n := ID(s.terms.len())
	return (sid == NoID || sid < n) && (pid == NoID || pid < n) && (oid == NoID || oid < n)
}

// ForEachMatchIDs streams the dictionary IDs of all triples matching the
// pattern (NoID = wildcard) to fn; fn returning false stops early. No lock is
// held: fn may mutate the underlying graph.
// Enumeration order is the matching refs in insertion-log order, for every
// pattern shape, and identical to concatenating ScanRange over the full
// domain.
func (s *Snapshot) ForEachMatchIDs(sid, pid, oid ID, fn func(s, p, o ID) bool) {
	s.ScanRange(sid, pid, oid, 0, math.MaxInt, fn)
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
		return fn(Triple{S: s.terms.at(si), P: s.terms.at(pi), O: s.terms.at(oi)})
	})
}

// ScanLen returns the size of the pattern's morsel domain: the number of
// base index items a full enumeration of the pattern walks. Each item emits
// at most one triple, so [0, ScanLen) ranges partition the scan exactly —
// this is the domain the parallel executor splits into morsels.
func (s *Snapshot) ScanLen(sid, pid, oid ID) int {
	switch {
	case !s.inRange(sid, pid, oid):
		return 0
	case sid == NoID && pid == NoID && oid == NoID:
		return len(s.refs)
	default:
		pos, run := s.index().domain(sid, pid, oid)
		return len(pos) + len(run)
	}
}

// ScanRange enumerates the pattern over the base-item range [lo, hi) of its
// morsel domain (see ScanLen), emitting each matching triple to fn. It
// reports false iff fn stopped the scan. Items that fail the residual filter
// (a bound position the domain does not already discriminate on) emit
// nothing, so concatenating adjacent ranges reproduces the full scan.
func (s *Snapshot) ScanRange(sid, pid, oid ID, lo, hi int, fn func(s, p, o ID) bool) bool {
	switch {
	case !s.inRange(sid, pid, oid):
	case sid == NoID && pid == NoID && oid == NoID:
		for _, r := range clip(s.refs, lo, hi) {
			if !fn(r.S, r.P, r.O) {
				return false
			}
		}
	default:
		pos, run := s.index().domain(sid, pid, oid) // one of the two is empty
		for _, r := range clip(run, lo, hi) {
			if matches(r, sid, pid, oid) && !fn(r.S, r.P, r.O) {
				return false
			}
		}
		for _, p := range clip(pos, lo, hi) {
			if r := s.refs[p]; matches(r, sid, pid, oid) && !fn(r.S, r.P, r.O) {
				return false
			}
		}
	}
	return true
}

// matches is the residual filter: r agrees with every bound position.
func matches(r TripleID, sid, pid, oid ID) bool {
	return (sid == NoID || r.S == sid) && (pid == NoID || r.P == pid) && (oid == NoID || r.O == oid)
}

// clip returns run[lo:hi] with the bounds clamped to the run.
func clip[T any](run []T, lo, hi int) []T {
	lo, hi = max(lo, 0), min(hi, len(run))
	if lo >= hi {
		return nil
	}
	return run[lo:hi]
}

// CountMatchIDs returns the exact number of triples matching the ID pattern
// (NoID = wildcard). A pattern with at most one bound position is its
// ScanLen, a run length read off the index; any other walks its domain
// through the residual filter, O(deg s) with a bound subject and
// O(min run) for (? p o).
func (s *Snapshot) CountMatchIDs(sid, pid, oid ID) int {
	if (sid == NoID && pid == NoID) || (sid == NoID && oid == NoID) || (pid == NoID && oid == NoID) {
		return s.ScanLen(sid, pid, oid)
	}
	c := 0
	s.ScanRange(sid, pid, oid, 0, math.MaxInt, func(_, _, _ ID) bool {
		c++
		return true
	})
	return c
}

// PredStats returns the cardinalities of predicate p in the snapshot: triple
// count and distinct subject/object counts.
func (s *Snapshot) PredStats(p ID) (triples, subjects, objects int) {
	if p == NoID || !s.inRange(NoID, p, NoID) {
		return 0, 0, 0
	}
	c := s.index().card(p)
	return int(c.hi - c.lo), int(c.subjects), int(c.objects)
}

// IndexStats returns the snapshot's distinct subject, predicate, and object
// counts — the planner's global divisors.
func (s *Snapshot) IndexStats() (subjects, predicates, objects int) {
	ix := s.index()
	return ix.nSubjects, len(ix.cards), ix.nObjects
}
