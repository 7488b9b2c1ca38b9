package rdf

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// ID is the dictionary index of an interned term. IDs are stable for the
// lifetime of a graph: the dictionary is append-only, so once a term is
// interned its ID never changes. The zero ID is a valid term ID; the
// sentinel NoID never is.
//
// The ID-level API (TermID, TermOf, ForEachMatchIDs, CountMatchIDs) lets
// read-path consumers — the SPARQL executor, lineage reduction, statistics,
// DOT emission — stay in integer space end-to-end and rehydrate Terms only
// when materializing output.
type ID uint32

// NoID is the wildcard/absent sentinel of the ID-level API: as a pattern
// position it matches any term, as a register value it means "unbound".
const NoID ID = ^ID(0)

// termID is the internal alias kept for the storage layer.
type termID = ID

// Graph is an in-memory, dictionary-encoded RDF graph.
//
// Storage layout: a term dictionary (a 12-byte entry per term, the value
// bytes on pages it owns, plus hashed ID slots, see termDict; a sorted
// graph has no slots until written), the
// insertion log (12 bytes per triple), and one flat open-addressed
// membership table of log positions.
// That is everything the write side maintains: an insert interns its terms,
// probes the table, and appends to the log — no per-triple heap objects, so
// the tracker's hot path allocates only when the log or the table grows.
// Readers never touch the table, so a graph built sorted has none.
//
// The graph keeps no adjacency of its own. The SPO/POS/OSP index readers
// need is derived from the log by Snapshot, and every pattern scan on Graph
// (ForEachMatchIDs, CountMatchIDs, PredStats, IndexStats, Subjects) answers
// from g.Snapshot(): an append-only hot path with the query-side structure
// built from it on demand, instead of two indexes kept in step on every
// insert.
//
// A Graph is safe for concurrent use. In the PROV-IO architecture each
// process owns one sub-graph, but within a process many threads (simulated
// MPI ranks or OpenMP workers) may insert records concurrently.
type Graph struct {
	mu sync.RWMutex

	// dict is the term dictionary. Its probes take no lock and its misses
	// take its own, so interning — the first step of every insert — happens
	// outside g.mu and concurrent rank threads do not serialize on the graph
	// write lock just to map terms to IDs (see termDict).
	dict termDict

	// log is the graph: every triple once, in insertion order. The graph is
	// append-only, so entries are never modified once appended and every
	// prefix of the log is an earlier state of the graph. It backs the delta
	// cursor of the flush pipeline (a flusher serializes only the entries
	// since its last flush), it is the value store the membership table
	// points into, and a prefix of it is the pinned triple list of every
	// Snapshot.
	log []TripleID

	// table is the membership set: open addressing with linear probing over
	// a power-of-two slot array. A slot holds 1 + the log position of a
	// triple (compared by value against the log), or slotEmpty. The table
	// doubles when the log would pass 3/4 of it. A sorted graph starts
	// without it; the first write or Has builds it from the log.
	table []uint32

	// snap caches the most recent Snapshot; snapMu serializes its (re)build
	// so concurrent Snapshot() callers do not duplicate the capture work.
	snapMu sync.Mutex
	snap   atomic.Pointer[Snapshot]
}

const (
	slotEmpty = uint32(0)
	// maxLogEntries is the log-length limit: slots store position + 1 in 32
	// bits, and the top value stays unused, as the dictionary's does.
	maxLogEntries = uint64(^uint32(0)) - 1
	// minTable is the initial slot count; small, because the lazy reader
	// decodes many units of a few hundred triples each.
	minTable = 16
)

// TripleID is a triple in dictionary-ID form: one insertion-log entry. The
// delta flush pipeline serializes segments straight from these 12-byte refs
// (LogSince) instead of materializing []Triple.
type TripleID struct{ S, P, O ID }

// hash mixes the three IDs. IDs are dense allocation-order indexes and a
// record's triples differ in one or two of them by small amounts, so both
// rounds multiply by an odd 64-bit constant and fold the high half down
// before the low bits are used as a slot index.
func (r TripleID) hash() uint32 {
	h := (uint64(r.S)<<32 | uint64(r.O)) * 0x9E3779B97F4A7C15
	h = (h ^ h>>32 ^ uint64(r.P)) * 0xD6E8FEB86659FD93
	return uint32(h ^ h>>32)
}

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	g := &Graph{}
	g.dict.init()
	return g
}

// NewSortedGraph returns a graph that adopts terms as its dictionary (term
// i gets ID i) and refs as its insertion log. terms must be strictly
// ascending under TermLess and refs strictly ascending in (S, P, O) over IDs
// below len(terms) — a k-way merge of sorted segments builds exactly that —
// and refs is owned by the graph from here on; terms is not retained (the
// dictionary copies the values).
//
// Such a graph is built without hashing: its dictionary bisects the sorted
// terms until the first intern of a new term builds the slot table, it has
// no membership table until a write or Has builds one, and a snapshot index
// over its refs needs no spo permutation (buildSnapIndex). Every write
// still works and behaves as on a graph built by inserts.
func NewSortedGraph(terms []Term, refs []TripleID) *Graph {
	g := &Graph{log: refs}
	g.dict.initSorted(terms)
	return g
}

// ErrGraphFull classifies a graph that would pass the uint32 limits of term
// IDs or log positions.
var ErrGraphFull = errors.New("rdf: graph exceeds the uint32 ID limits")

// CheckCapacity returns ErrGraphFull when a graph of terms distinct terms
// and triples triples would pass the limits the graph's inserts panic at: a
// bulk builder checks its counts before it allocates.
func CheckCapacity(terms, triples uint64) error {
	if terms > maxDictTerms || triples > maxLogEntries {
		return fmt.Errorf("%w: %d terms, %d triples (at most %d of each)", ErrGraphFull, terms, triples, maxLogEntries)
	}
	return nil
}

// TermID returns the dictionary ID of t and whether t is interned. A term
// that was never added to the graph (in any triple position) has no ID.
func (g *Graph) TermID(t Term) (ID, bool) {
	return g.dict.lookup(t)
}

// TermOf returns the term interned under id, or the zero Term if id is out
// of range (including NoID).
func (g *Graph) TermOf(id ID) Term {
	return g.dict.termAt(id)
}

// refOf resolves t to dictionary IDs without interning; !ok means one of
// its terms was never interned, so t cannot be present. The dictionary has
// its own locks; holding g.mu is not required.
func (g *Graph) refOf(t Triple) (r TripleID, ok bool) {
	if r.S, ok = g.dict.lookup(t.S); !ok {
		return r, false
	}
	if r.P, ok = g.dict.lookup(t.P); !ok {
		return r, false
	}
	r.O, ok = g.dict.lookup(t.O)
	return r, ok
}

// growLocked doubles the table (or sizes a new one to the log) and re-points
// a slot at every log position. Caller must hold g.mu for writing.
func (g *Graph) growLocked() {
	n := max(2*len(g.table), minTable)
	for (len(g.log)+1)*4 > n*3 {
		n *= 2
	}
	g.table = make([]uint32, n)
	mask := n - 1
	for pos, r := range g.log {
		i := int(r.hash()) & mask
		for g.table[i] != slotEmpty {
			i = (i + 1) & mask
		}
		g.table[i] = uint32(pos + 1)
	}
}

// addRefLocked inserts one pre-interned triple, appending it to the log and
// pointing the empty slot that ended its probe at the new entry. It reports
// whether the triple was new. Caller must hold g.mu for writing.
func (g *Graph) addRefLocked(r TripleID) bool {
	if (len(g.log)+1)*4 > len(g.table)*3 {
		g.growLocked()
	}
	i, found := g.findLocked(r)
	if found {
		return false
	}
	if uint64(len(g.log)) >= maxLogEntries {
		panic("rdf: graph insertion log exceeds the uint32 position limit")
	}
	g.log = append(g.log, r)
	g.table[i] = uint32(len(g.log))
	return true
}

// findLocked probes the table for r: the slot that holds it, or the empty
// slot that ended the probe (the log never fills more than 3/4 of the
// table). The table must exist; caller must hold g.mu.
func (g *Graph) findLocked(r TripleID) (slot int, found bool) {
	mask := len(g.table) - 1
	i := int(r.hash()) & mask
	for ; g.table[i] != slotEmpty; i = (i + 1) & mask {
		if g.log[g.table[i]-1] == r {
			return i, true
		}
	}
	return i, false
}

// Add inserts a triple. It reports whether the triple was new.
// Invalid triples are rejected (returns false).
//
// Add is a 1-element batch: the term interning happens against the
// dictionary outside the graph lock, and only the table probe and log append
// run under g.mu.
func (g *Graph) Add(t Triple) bool {
	if !t.Valid() {
		return false
	}
	r := TripleID{g.dict.intern(t.S), g.dict.intern(t.P), g.dict.intern(t.O)}
	g.mu.Lock()
	added := g.addRefLocked(r)
	g.mu.Unlock()
	return added
}

// AddBatch inserts a whole record's triples under one lock acquisition and
// returns the number newly added. Invalid triples are skipped. The graph
// state and insertion-log order are identical to calling Add per triple; the
// difference is cost: terms are interned against the dictionary before g.mu
// is taken, so the critical section is just the table probes and log
// appends, and concurrent rank threads contend once per record instead of
// once per triple.
func (g *Graph) AddBatch(ts []Triple) int {
	if len(ts) == 0 {
		return 0
	}
	// Intern outside the lock. Records repeat terms: the subject of most
	// triples is the record node, which also comes back as an object and again
	// as subject after a triple about another node; rdf:type and class IRIs
	// recur. So reuse the previous triple's IDs, and the first subject's,
	// when the term is identical — for terms minted once per record the
	// comparison is a pointer-equal string check.
	var arr [12]TripleID
	refs := arr[:0]
	if len(ts) > len(arr) {
		refs = make([]TripleID, 0, len(ts))
	}
	var prev Triple
	var pref TripleID
	var node Term
	var nodeID ID
	havePrev := false
	for _, t := range ts {
		if !t.Valid() {
			continue
		}
		var r TripleID
		switch {
		case havePrev && t.S == prev.S:
			r.S = pref.S
		case havePrev && t.S == node:
			r.S = nodeID
		default:
			r.S = g.dict.intern(t.S)
		}
		if havePrev && t.P == prev.P {
			r.P = pref.P
		} else {
			r.P = g.dict.intern(t.P)
		}
		switch {
		case havePrev && t.O == prev.O:
			r.O = pref.O
		case havePrev && t.O == node:
			r.O = nodeID
		default:
			r.O = g.dict.intern(t.O)
		}
		if !havePrev {
			node, nodeID = t.S, r.S
		}
		prev, pref, havePrev = t, r, true
		refs = append(refs, r)
	}
	n := 0
	g.mu.Lock()
	for _, r := range refs {
		if g.addRefLocked(r) {
			n++
		}
	}
	g.mu.Unlock()
	return n
}

// Intern returns the dictionary ID of t, interning it if new — the first half
// of an insert, for bulk loaders that resolve each distinct term once and
// then insert ID triples with AddRefs. A new term's value is copied onto a
// dictionary page; nothing of t is retained.
func (g *Graph) Intern(t Term) ID {
	return g.dict.intern(t)
}

// InternBytes is Intern for the term {kind, string(value), lang, datatype} —
// the fields taken as given, no normalisation — of a caller that formats
// values into a buffer it reuses (the tracker's record builders): a term the
// graph already holds costs no allocation and keeps nothing of value alive; a
// new one costs len(value) bytes of a dictionary page. value may be
// overwritten as soon as the call returns.
func (g *Graph) InternBytes(kind TermKind, value []byte, lang, datatype string) ID {
	return g.dict.internBytes(Term{Kind: kind, Lang: lang, Datatype: datatype}, value)
}

// AddRefs inserts triples already in this graph's ID space (IDs from Intern,
// InternBytes or TermID) under one lock acquisition and returns the number
// newly added: AddBatch without the term hashing, for callers that resolve
// terms themselves — the tracker's record builders, the segment decoder,
// Merge. A ref naming an ID the dictionary has not handed out (NoID among
// them, which is how a record builder marks a triple RDF does not allow) is
// skipped. RDF shape is otherwise the caller's to guarantee.
func (g *Graph) AddRefs(refs []TripleID) int {
	if len(refs) == 0 {
		return 0
	}
	nt := ID(g.dict.count())
	n := 0
	g.mu.Lock()
	for _, r := range refs {
		if r.S >= nt || r.P >= nt || r.O >= nt {
			continue
		}
		if g.addRefLocked(r) {
			n++
		}
	}
	g.mu.Unlock()
	return n
}

// Has reports whether the graph contains the triple. On a sorted graph the
// first call rebuilds the membership table.
func (g *Graph) Has(t Triple) bool {
	r, ok := g.refOf(t)
	if !ok {
		return false
	}
	g.mu.RLock()
	if g.table != nil {
		defer g.mu.RUnlock()
		_, found := g.findLocked(r)
		return found
	}
	g.mu.RUnlock()
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.table == nil {
		g.growLocked()
	}
	_, found := g.findLocked(r)
	return found
}

// Len returns the number of triples in the graph: the length of the
// insertion log, which only grows, so it doubles as the flush pipeline's
// delta cursor.
func (g *Graph) Len() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.log)
}

// TermCount returns the number of distinct interned terms.
func (g *Graph) TermCount() int {
	return g.dict.count()
}

// LogSince returns the insertion-log entries at positions >= n in place,
// plus the log position the delta extends to (the caller's next cursor).
// Capturing the end position under the same lock as the refs means no
// insert can slip between the capture and the cursor advance. The refs are
// pinned the way Snapshot pins its prefix: capped, so nothing appends
// through them, and immutable, because the log is append-only and a growth
// abandons the old array. Callers must treat them as read-only.
//
// This is the delta cursor of the incremental flush pipeline: serializing
// LogSince(c) and advancing c to the returned end after each flush yields
// delta segments whose union equals the full graph, while each flush stays
// O(new triples) instead of O(graph) and copies no ref. The flusher encodes
// the refs straight to ID columns instead of materializing a []Triple.
func (g *Graph) LogSince(n int) (refs []TripleID, end int) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	n = max(n, 0)
	end = len(g.log)
	if n >= end {
		return nil, end
	}
	return g.log[n:end:end], end
}

// RefsSince is LogSince returning an owned copy, for a caller that rewrites
// the refs.
func (g *Graph) RefsSince(n int) (refs []TripleID, end int) {
	refs, end = g.LogSince(n)
	return slices.Clone(refs), end
}

// Find returns all triples matching the pattern. A nil pointer matches any
// term in that position. The result order is unspecified.
func (g *Graph) Find(s, p, o *Term) []Triple {
	var out []Triple
	g.ForEachMatch(s, p, o, func(t Triple) bool {
		out = append(out, t)
		return true
	})
	return out
}

// The pattern scans below all answer from g.Snapshot(), the only adjacency
// index there is. No graph lock is held across a callback, so fn may call
// Add or any other graph method; mutations made during a scan are
// not visible to it. Each call pins the current state, which under
// concurrent ingest means a new snapshot and a new index build: a caller
// that probes many patterns per logical query should take one Snapshot and
// scan that, for a consistent view and one build.

// ForEachMatch streams all triples matching the pattern to fn. fn returning
// false stops the iteration early. A nil pointer matches any term.
func (g *Graph) ForEachMatch(s, p, o *Term, fn func(Triple) bool) {
	g.Snapshot().ForEachMatch(s, p, o, fn)
}

// ForEachMatchIDs streams the dictionary IDs of all triples matching the
// pattern to fn, without materializing Terms. NoID matches any term in that
// position; any other ID that is not interned matches nothing. fn returning
// false stops the iteration early.
func (g *Graph) ForEachMatchIDs(s, p, o ID, fn func(s, p, o ID) bool) {
	g.Snapshot().ForEachMatchIDs(s, p, o, fn)
}

// CountMatchIDs returns the exact number of triples matching the ID pattern
// (NoID = wildcard) — the cardinality oracle behind the query planner's join
// ordering. See Snapshot.CountMatchIDs.
func (g *Graph) CountMatchIDs(s, p, o ID) int {
	return g.Snapshot().CountMatchIDs(s, p, o)
}

// PredStats returns the cardinalities of predicate p: the number of triples
// with that predicate, and the distinct subject and object counts among
// them. All zero when p is not a predicate of any present triple.
func (g *Graph) PredStats(p ID) (triples, subjects, objects int) {
	return g.Snapshot().PredStats(p)
}

// IndexStats returns the distinct subject, predicate, and object counts of
// the graph — the global cardinalities the query planner divides by when a
// join position is bound by an earlier pattern.
func (g *Graph) IndexStats() (subjects, predicates, objects int) {
	return g.Snapshot().IndexStats()
}

// Subjects returns the distinct subjects in the graph, sorted.
func (g *Graph) Subjects() []Term {
	s := g.Snapshot()
	ix := s.index()
	out := make([]Term, 0, ix.nSubjects)
	for id := ID(0); int(id) < s.terms.len(); id++ {
		if ix.sOff[id+1] > ix.sOff[id] {
			out = append(out, s.terms.at(id))
		}
	}
	sort.Slice(out, func(i, j int) bool { return termLess(out[i], out[j]) })
	return out
}

// Triples returns every triple in the graph in an unspecified order.
func (g *Graph) Triples() []Triple {
	return g.Find(nil, nil, nil)
}

// SortedTriples returns every triple sorted by (S, P, O) string form, which
// gives deterministic serialization output.
func (g *Graph) SortedTriples() []Triple {
	ts := g.Triples()
	SortTriples(ts)
	return ts
}

// TermLess reports whether a sorts before b in the canonical term order
// (Kind, Value, Lang, Datatype) — the order behind SortedTriples and every
// deterministic serialization, exported for the segment codec layer.
func TermLess(a, b Term) bool { return termLess(a, b) }

func termLess(a, b Term) bool {
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	if a.Value != b.Value {
		return a.Value < b.Value
	}
	if a.Lang != b.Lang {
		return a.Lang < b.Lang
	}
	return a.Datatype < b.Datatype
}

// Merge adds every triple of other into g, returning the number newly added.
// Because PROV-IO node IDs are globally unique, merging per-process
// sub-graphs deduplicates shared nodes naturally (paper §5).
//
// The merge stays in ID space: it walks other's insertion log,
// renumbers each ID through a remap slice filled on first use — one intern
// into g per distinct term, in the order the log first mentions it — and
// inserts the renumbered refs with AddRefs. g therefore hands out the IDs,
// and logs the triples, in the order a per-triple Add of other's log would.
//
// Merging a graph into itself is a no-op (returns 0): every triple is
// already present.
func (g *Graph) Merge(other *Graph) int {
	if g == other {
		return 0
	}
	refs, _ := other.RefsSince(0) // an owned copy, renumbered in place below
	// Taken after the refs, so it covers every ID they name.
	terms := other.dict.snapshot()
	remap := make([]ID, terms.len())
	for i := range remap {
		remap[i] = NoID
	}
	local := func(id ID) ID {
		if remap[id] == NoID {
			remap[id] = g.dict.intern(terms.at(id))
		}
		return remap[id]
	}
	for i, r := range refs {
		refs[i] = TripleID{S: local(r.S), P: local(r.P), O: local(r.O)}
	}
	return g.AddRefs(refs)
}
