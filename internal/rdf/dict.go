package rdf

import (
	"hash/maphash"
	"math/bits"
	"strings"
	"sync"
	"sync/atomic"
)

// dictEntry is a resident term: 24 bytes. Lang and Datatype are not stored
// per term — a workload has a handful of distinct (Lang, Datatype) pairs, so
// aux names one in the dictionary's side table (pair aux-1; 0 = both empty).
type dictEntry struct {
	value string
	kind  TermKind
	aux   uint32
}

// langType is one distinct (Lang, Datatype) pair of the side table.
type langType struct{ lang, datatype string }

const (
	// The entry table is a directory of chunks that are never moved or
	// resized. Chunk c holds 1<<(c+dictChunkMinBits) entries until chunks
	// reach 1<<dictChunkMaxBits, and that many from there on: a decoded
	// unit's few hundred terms cost a few small chunks, a large dictionary
	// wastes at most one 24 KB chunk.
	dictChunkMinBits = 4
	dictChunkMaxBits = 10

	// Values interned from bytes are copied into string chunks the dictionary
	// owns, sized like the entry chunks: the first holds 1<<strChunkMinBits
	// bytes, each next one twice that until 1<<strChunkMaxBits, so a tracker
	// with a handful of terms holds 256 bytes and a large one wastes at most
	// the tail of one 4 KB chunk.
	strChunkMinBits = 8
	strChunkMaxBits = 12

	// minDictSlots is the slot count of the first table: a decoded unit's
	// graph with a few terms holds 64 bytes of slots.
	minDictSlots = 8

	// maxDictTerms is the term-count limit implied by slots storing ID + 1 in
	// 32 bits with NoID reserved (the dictionary's maxLogEntries).
	maxDictTerms = uint64(NoID) - 1
)

// locate returns the chunk of entry id and its offset there.
func locate(id ID) (chunk int, off uint64) {
	j := uint64(id) + 1<<dictChunkMinBits
	if j < 1<<dictChunkMaxBits {
		b := bits.Len64(j) - 1
		return b - dictChunkMinBits, j &^ (1 << b)
	}
	return int(j>>dictChunkMaxBits) + dictChunkMaxBits - dictChunkMinBits - 1, j & (1<<dictChunkMaxBits - 1)
}

// termDict is the append-only term dictionary shared by Graph and SharedDict.
// It has two halves:
//
//   - one open-addressed slot table mapping a term's hash to its ID, which
//     readers probe without a lock;
//   - one append-only ID -> entry table (chunks, aux side table, count) whose
//     IDs are dense indexes in allocation order, which the query planner and
//     the insertion log rely on.
//
// Every write — a new entry, a slot, a grown table — happens under tmu and
// is published by an atomic store; a hit takes no lock at all. Two orders
// make that safe:
//
//   - an entry is published (n stored) before the slot naming it, so a reader
//     that loaded the slot and then takes a table view sees the entry;
//   - a grown slot table is published (one pointer store) after every stored
//     hash is re-placed in it, so a reader sees a table either before or
//     after a doubling, whole. A reader still on the old table can miss only
//     a term whose intern had not returned when it loaded the pointer.
//
// A term arrives either as a Term, whose value string the entry then shares
// with whoever built it, or with its value as bytes (internBytes): the probe
// (findBytes) compares the bytes in place, and only a miss copies them, into
// a string chunk the dictionary owns. A caller that formats values into a reused
// buffer therefore allocates nothing for a term the dictionary already holds
// and retains nothing of it.
//
// Nothing iterates the slot table, so nothing observable depends on the seed.
type termDict struct {
	seed maphash.Seed

	// slots is a power-of-two table, probed linearly and kept at most 3/4
	// full. Each word is a term's 32-bit hash over 1 + its ID; 0 is empty.
	// A table is replaced, never resized in place.
	slots atomic.Pointer[[]atomic.Uint64]

	tmu    sync.Mutex
	auxIDs map[langType]uint32 // pair -> aux; guarded by tmu
	// strs is the string chunk being filled; guarded by tmu. A full chunk is
	// dropped from here and lives on through the entries cut from it.
	strs strings.Builder

	// Append-only and published by atomic store after the write they cover.
	// chunks and aux are republished only when they grow (an append into
	// spare capacity lands beyond every published length); n is stored after
	// both, so a reader that loads n first sees chunks and aux covering n
	// entries.
	chunks atomic.Pointer[[][]dictEntry]
	aux    atomic.Pointer[[]langType]
	n      atomic.Uint32
}

// noSlots is every dictionary's table until its first term: empty, so no
// probe reads it and no write lands in it.
var noSlots []atomic.Uint64

// init seeds the hash and publishes the empty tables. Called once from
// NewGraph / NewSharedDict.
func (d *termDict) init() {
	d.seed = maphash.MakeSeed()
	d.slots.Store(&noSlots)
	d.chunks.Store(new([][]dictEntry))
	d.aux.Store(new([]langType))
	d.auxIDs = make(map[langType]uint32)
}

// hash mixes all four Term fields: Lang and Datatype by content, not length,
// so a file with 10⁵ language tags on one lexical form does not pile onto one
// probe chain.
func (d *termDict) hash(t Term) uint32 {
	return d.hashFrom(maphash.String(d.seed, t.Value), t.Kind, t.Lang, t.Datatype)
}

// hashFrom finishes a term's hash from the hash of its value: maphash hashes
// bytes and the string of those bytes alike, so a value held either way
// hashes to one number.
func (d *termDict) hashFrom(h uint64, kind TermKind, lang, datatype string) uint32 {
	h ^= uint64(kind) << 56
	if lang != "" {
		h = (h ^ maphash.String(d.seed, lang)) * 0x9E3779B97F4A7C15
	}
	if datatype != "" {
		h = (bits.RotateLeft64(h, 29) ^ maphash.String(d.seed, datatype)) * 0xD6E8FEB86659FD93
	}
	return uint32(h ^ h>>32)
}

// termTable is an immutable view of the ID -> entry table: the first n
// entries, which never change once published.
type termTable struct {
	chunks [][]dictEntry
	aux    []langType
	n      int
}

func (tt termTable) len() int { return tt.n }

// entry returns the stored entry; id must be below len().
func (tt termTable) entry(id ID) dictEntry {
	c, off := locate(id)
	return tt.chunks[c][off]
}

// at rebuilds the Term interned under id; id must be below len().
func (tt termTable) at(id ID) Term {
	e := tt.entry(id)
	t := Term{Kind: e.kind, Value: e.value}
	if e.aux != 0 {
		p := tt.aux[e.aux-1]
		t.Lang, t.Datatype = p.lang, p.datatype
	}
	return t
}

// holds reports whether entry id is exactly t, comparing all four fields as
// Term equality does: no normalisation.
func (tt termTable) holds(id ID, t Term) bool {
	e := tt.entry(id)
	return e.value == t.Value && tt.holdsRest(e, t)
}

// holdsBytes is holds with string(raw) for t.Value, compared in place.
func (tt termTable) holdsBytes(id ID, t Term, raw []byte) bool {
	e := tt.entry(id)
	return e.value == string(raw) && tt.holdsRest(e, t)
}

// holdsRest compares everything but the value.
func (tt termTable) holdsRest(e dictEntry, t Term) bool {
	if e.kind != t.Kind {
		return false
	}
	if e.aux == 0 {
		return t.Lang == "" && t.Datatype == ""
	}
	p := tt.aux[e.aux-1]
	return p.lang == t.Lang && p.datatype == t.Datatype
}

// snapshot returns the current table view.
func (d *termDict) snapshot() termTable {
	n := int(d.n.Load())
	return termTable{chunks: *d.chunks.Load(), aux: *d.aux.Load(), n: n}
}

// find probes the slot table for t. The table view is taken after the slot
// load that names the entry, so it covers that entry.
func (d *termDict) find(h uint32, t Term) (ID, bool) {
	slots := *d.slots.Load()
	mask := uint32(len(slots) - 1)
	for i := h & mask; len(slots) > 0; i = (i + 1) & mask {
		w := slots[i].Load()
		if w == 0 {
			break
		}
		if uint32(w>>32) == h && d.snapshot().holds(ID(w-1), t) {
			return ID(w - 1), true
		}
	}
	return 0, false
}

// findBytes is find for t with string(raw) as its value. It is a copy of the
// loop, not a parameter of it: every insert of every graph runs find a dozen
// times, and carrying raw through it cost those probes 7 %.
func (d *termDict) findBytes(h uint32, t Term, raw []byte) (ID, bool) {
	slots := *d.slots.Load()
	mask := uint32(len(slots) - 1)
	for i := h & mask; len(slots) > 0; i = (i + 1) & mask {
		w := slots[i].Load()
		if w == 0 {
			break
		}
		if uint32(w>>32) == h && d.snapshot().holdsBytes(ID(w-1), t, raw) {
			return ID(w - 1), true
		}
	}
	return 0, false
}

// free returns the first empty slot of h's probe sequence. Caller holds tmu,
// or owns a table not yet published.
func free(slots []atomic.Uint64, h uint32) int {
	mask := uint32(len(slots) - 1)
	i := h & mask
	for slots[i].Load() != 0 {
		i = (i + 1) & mask
	}
	return int(i)
}

// lookup returns the ID for t and whether it is interned.
func (d *termDict) lookup(t Term) (ID, bool) {
	return d.find(d.hash(t), t)
}

// intern returns the dictionary ID for t, adding it if new. Safe for
// concurrent use; the common (already-interned) case takes no lock.
func (d *termDict) intern(t Term) ID {
	h := d.hash(t)
	if id, ok := d.find(h, t); ok {
		return id
	}
	return d.add(h, t, nil)
}

// internBytes is intern for t with string(raw) as its value; t.Value must be
// empty. Nothing is allocated for a term already held; a new term's value is
// copied into a string chunk, so raw may be reused as soon as the call
// returns.
func (d *termDict) internBytes(t Term, raw []byte) ID {
	h := d.hashFrom(maphash.Bytes(d.seed, raw), t.Kind, t.Lang, t.Datatype)
	if id, ok := d.findBytes(h, t, raw); ok {
		return id
	}
	return d.add(h, t, raw)
}

// add is the miss path of both interns: under tmu it looks again and, still
// absent, appends the term — its value string(raw) when raw is not nil —
// publishes it, and then points a slot at it.
func (d *termDict) add(h uint32, t Term, raw []byte) ID {
	d.tmu.Lock()
	defer d.tmu.Unlock()
	var id ID
	var ok bool
	if raw != nil {
		id, ok = d.findBytes(h, t, raw)
	} else {
		id, ok = d.find(h, t)
	}
	if ok {
		return id
	}
	n := d.n.Load()
	if uint64(n) >= maxDictTerms {
		panic("rdf: term dictionary exceeds the uint32 ID limit")
	}
	slots := *d.slots.Load()
	if (int(n)+1)*4 > len(slots)*3 {
		// Double by re-placing the stored hashes: no string is re-hashed.
		grown := make([]atomic.Uint64, max(2*len(slots), minDictSlots))
		for i := range slots {
			if w := slots[i].Load(); w != 0 {
				grown[free(grown, uint32(w>>32))].Store(w)
			}
		}
		d.slots.Store(&grown)
		slots = grown
	}

	e := dictEntry{value: t.Value, kind: t.Kind}
	if raw != nil {
		e.value = d.ownLocked(raw)
	}
	if t.Lang != "" || t.Datatype != "" {
		e.aux = d.auxLocked(langType{t.Lang, t.Datatype})
	}
	c, off := locate(ID(n))
	chunks := *d.chunks.Load()
	if c == len(chunks) {
		grown := append(chunks, make([]dictEntry, 1<<min(c+dictChunkMinBits, dictChunkMaxBits)))
		d.chunks.Store(&grown)
		chunks = grown
	}
	chunks[c][off] = e
	d.n.Store(n + 1)
	slots[free(slots, h)].Store(uint64(h)<<32 | uint64(n) + 1)
	return ID(n)
}

// ownLocked returns a copy of raw held in the current string chunk, starting
// a new chunk when raw does not fit in what is left of this one. Writing into
// a Builder's spare capacity never moves what it already holds, so strings
// cut from it earlier stay valid. Caller holds tmu.
func (d *termDict) ownLocked(raw []byte) string {
	if len(raw) == 0 {
		return ""
	}
	if d.strs.Cap()-d.strs.Len() < len(raw) {
		size := min(max(2*d.strs.Cap(), 1<<strChunkMinBits), 1<<strChunkMaxBits)
		d.strs = strings.Builder{}
		d.strs.Grow(max(size, len(raw)))
	}
	at := d.strs.Len()
	d.strs.Write(raw)
	return d.strs.String()[at:]
}

// auxLocked returns the side-table reference of a non-empty pair, adding it
// if new. Caller holds tmu.
func (d *termDict) auxLocked(p langType) uint32 {
	if a, ok := d.auxIDs[p]; ok {
		return a
	}
	aux := append(*d.aux.Load(), p)
	d.aux.Store(&aux)
	d.auxIDs[p] = uint32(len(aux))
	return uint32(len(aux))
}

// count returns the number of interned terms.
func (d *termDict) count() int { return int(d.n.Load()) }

// termAt returns the term interned under id, or the zero Term if id is out
// of range (including NoID).
func (d *termDict) termAt(id ID) Term {
	tt := d.snapshot()
	if int(id) >= tt.len() {
		return Term{}
	}
	return tt.at(id)
}
