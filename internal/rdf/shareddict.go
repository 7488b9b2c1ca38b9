package rdf

// SharedDict is a standalone interning dictionary with the same lock-free
// probes and ID semantics as the per-graph term dictionary: dense IDs in
// allocation order, append-only, safe for concurrent use. It exists so a
// federation of independently-decoded graphs (each with its own local ID
// space) can be bridged into one global ID space — each of core's
// out-of-core LazySources owns one for its query, interns a term into it the
// first time the query names or emits it, and keeps per unit a local->global
// table, letting the query executor join across units in global ID space
// without ever merging the graphs.
//
// Because the table is append-only, remap tables built against an earlier
// state stay valid forever: an ID handed out once never changes meaning.
type SharedDict struct {
	d termDict
}

// NewSharedDict returns an empty shared dictionary.
func NewSharedDict() *SharedDict {
	sd := &SharedDict{}
	sd.d.init()
	return sd
}

// Intern returns the global ID for t, adding it if new.
func (sd *SharedDict) Intern(t Term) ID {
	return sd.d.intern(t)
}

// Lookup returns the global ID for t and whether it is interned.
func (sd *SharedDict) Lookup(t Term) (ID, bool) {
	return sd.d.lookup(t)
}

// TermAt returns the term interned under id, or the zero Term if id is out
// of range (including NoID).
func (sd *SharedDict) TermAt(id ID) Term {
	return sd.d.termAt(id)
}

// Count returns the number of interned terms.
func (sd *SharedDict) Count() int {
	return sd.d.count()
}

// RemapSnapshot interns every term of snap into the shared dictionary and
// returns the bridge between the two ID spaces:
//
//   - toGlobal[local] is the global ID for snap's local ID (dense: snap's
//     IDs are allocation-order indexes, so a slice suffices);
//   - toLocal maps a global ID back to snap's local ID, containing exactly
//     the globals whose terms snap has interned.
//
// Both sides are immutable once built. Because interning is deterministic
// in snap's local ID order, re-decoding identical bytes against the same
// dictionary reproduces the identical tables. No reader calls it (a
// LazySource fills its own remap slots, one direction only); the perf
// harness's rdf.remap probe times it.
func (sd *SharedDict) RemapSnapshot(snap *Snapshot) (toGlobal []ID, toLocal map[ID]ID) {
	n := snap.TermCount()
	toGlobal = make([]ID, n)
	toLocal = make(map[ID]ID, n)
	for local := 0; local < n; local++ {
		g := sd.d.intern(snap.TermOf(ID(local)))
		toGlobal[local] = g
		toLocal[g] = ID(local)
	}
	return toGlobal, toLocal
}
