package rdf

import (
	"hash/maphash"
	"math/bits"
	"strings"
	"sync"
	"sync/atomic"
)

// dictShardCount is the number of stripes in the term dictionary. Interning
// is the first step of every insert, and before striping all rank threads of
// a process serialized on the graph mutex just to map terms to IDs. 16 shards
// push the collision probability low enough that interning is effectively
// uncontended at realistic thread counts, while keeping the per-graph
// footprint (16 small slot tables) negligible.
const (
	dictShardBits  = 4
	dictShardCount = 1 << dictShardBits
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

// dictSlot is one slot of a stripe's open-addressed table: the low 32 bits of
// the term's hash and 1 + its ID. ref 0 marks an empty slot.
type dictSlot struct{ hash, ref uint32 }

// dictShard is one stripe: a flat power-of-two slot table under its own
// read-write lock, probed linearly and kept at most 3/4 full. The read lock
// is the fast path — after warm-up nearly every record's terms (predicates,
// class IRIs, repeated subjects) are already interned.
type dictShard struct {
	mu    sync.RWMutex
	slots []dictSlot
	used  int
}

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

	// minDictSlots is a stripe's initial slot count.
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

// termDict is the striped, append-only term dictionary shared by Graph and
// SharedDict. It has two halves:
//
//   - per-shard slot tables mapping a term's hash to its ID, striped by the
//     hash's top bits, so concurrent interning by many rank threads does not
//     serialize;
//   - one append-only ID -> entry table (chunks, aux side table, count) whose
//     IDs are dense indexes in allocation order, which the query planner and
//     the insertion log rely on. Writers append under tmu and publish through
//     the atomics; readers never lock it.
//
// A term arrives either as a Term, whose value string the entry then shares
// with whoever built it, or with its value as bytes (internBytes): the probe
// (findBytes) compares the bytes in place, and only a miss copies them, into
// a string chunk the dictionary owns. A caller that formats values into a reused
// buffer therefore allocates nothing for a term the dictionary already holds
// and retains nothing of it.
//
// Lock ordering: a shard lock may be held while acquiring tmu; tmu is never
// held while acquiring a shard lock.
//
// Terms are never removed and entries are never rewritten, so a table view
// taken once (snapshot) stays valid forever and a probe under a shard read
// lock reads entries without further locking: the entry a slot names was
// published before the slot was written.
//
// Nothing iterates a slot table, so nothing observable depends on the seed.
type termDict struct {
	seed   maphash.Seed
	shards [dictShardCount]dictShard

	tmu    sync.Mutex
	auxIDs map[langType]uint32 // pair -> aux; guarded by tmu
	// strs is the string chunk being filled; guarded by tmu. A full chunk is
	// dropped from here and lives on through the entries cut from it.
	strs strings.Builder

	// Append-only and published by atomic store after the write they cover.
	// chunks and aux are republished only when they grow (an append into
	// spare capacity lands beyond every published length); n is stored last,
	// so a reader that loads n first sees chunks and aux covering n entries.
	chunks atomic.Pointer[[][]dictEntry]
	aux    atomic.Pointer[[]langType]
	n      atomic.Uint32
}

// init seeds the hash and publishes the empty tables. Called once from
// NewGraph / NewSharedDict.
func (d *termDict) init() {
	d.seed = maphash.MakeSeed()
	d.chunks.Store(new([][]dictEntry))
	d.aux.Store(new([]langType))
	d.auxIDs = make(map[langType]uint32)
}

// hash mixes all four Term fields: Lang and Datatype by content, not length,
// so a file with 10⁵ language tags on one lexical form does not pile onto one
// probe chain. The top bits pick the stripe, the low 32 go into the slot.
func (d *termDict) hash(t Term) uint64 {
	return d.hashFrom(maphash.String(d.seed, t.Value), t.Kind, t.Lang, t.Datatype)
}

// hashFrom finishes a term's hash from the hash of its value: maphash hashes
// bytes and the string of those bytes alike, so a value held either way
// hashes to one number.
func (d *termDict) hashFrom(h uint64, kind TermKind, lang, datatype string) uint64 {
	h ^= uint64(kind) << 56
	if lang != "" {
		h = (h ^ maphash.String(d.seed, lang)) * 0x9E3779B97F4A7C15
	}
	if datatype != "" {
		h = (bits.RotateLeft64(h, 29) ^ maphash.String(d.seed, datatype)) * 0xD6E8FEB86659FD93
	}
	return h ^ h>>32
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

// find probes sh for t. Caller holds sh.mu (either mode), which also orders
// this read of the entry table after the publication of every entry sh's
// slots name.
func (d *termDict) find(sh *dictShard, h uint32, t Term) (ID, bool) {
	if len(sh.slots) == 0 {
		return 0, false
	}
	tt := d.snapshot()
	mask := uint32(len(sh.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := sh.slots[i]
		if s.ref == 0 {
			return 0, false
		}
		if s.hash == h && tt.holds(ID(s.ref-1), t) {
			return ID(s.ref - 1), true
		}
	}
}

// findBytes is find for t with string(raw) as its value. It is a copy of the
// loop, not a parameter of it: every insert of every graph runs find a dozen
// times, and carrying raw through it cost those probes 7 %.
func (d *termDict) findBytes(sh *dictShard, h uint32, t Term, raw []byte) (ID, bool) {
	if len(sh.slots) == 0 {
		return 0, false
	}
	tt := d.snapshot()
	mask := uint32(len(sh.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := sh.slots[i]
		if s.ref == 0 {
			return 0, false
		}
		if s.hash == h && tt.holdsBytes(ID(s.ref-1), t, raw) {
			return ID(s.ref - 1), true
		}
	}
}

// place stores s in the first empty slot of its probe sequence.
func place(slots []dictSlot, s dictSlot) {
	mask := uint32(len(slots) - 1)
	i := s.hash & mask
	for slots[i].ref != 0 {
		i = (i + 1) & mask
	}
	slots[i] = s
}

// lookup returns the ID for t and whether it is interned.
func (d *termDict) lookup(t Term) (ID, bool) {
	return d.lookupHashed(d.hash(t), t)
}

// split returns the stripe a hash selects and the slot hash stored there.
func (d *termDict) split(h64 uint64) (*dictShard, uint32) {
	return &d.shards[h64>>(64-dictShardBits)], uint32(h64)
}

func (d *termDict) lookupHashed(h64 uint64, t Term) (ID, bool) {
	sh, h := d.split(h64)
	sh.mu.RLock()
	id, ok := d.find(sh, h, t)
	sh.mu.RUnlock()
	return id, ok
}

// intern returns the dictionary ID for t, adding it if new. Safe for
// concurrent use; the common (already-interned) case takes only one shard
// read lock.
func (d *termDict) intern(t Term) ID {
	h64 := d.hash(t)
	if id, ok := d.lookupHashed(h64, t); ok {
		return id
	}
	return d.add(h64, t, nil)
}

// internBytes is intern for t with string(raw) as its value; t.Value must be
// empty. Nothing is allocated for a term already held; a new term's value is
// copied into a string chunk, so raw may be reused as soon as the call
// returns.
func (d *termDict) internBytes(t Term, raw []byte) ID {
	h64 := d.hashFrom(maphash.Bytes(d.seed, raw), t.Kind, t.Lang, t.Datatype)
	sh, h := d.split(h64)
	sh.mu.RLock()
	id, ok := d.findBytes(sh, h, t, raw)
	sh.mu.RUnlock()
	if ok {
		return id
	}
	return d.add(h64, t, raw)
}

// add is the miss path of both interns: under the stripe's write lock it
// looks again and, still absent, appends the term — its value string(raw)
// when raw is not nil — and points a slot at it.
func (d *termDict) add(h64 uint64, t Term, raw []byte) ID {
	sh, h := d.split(h64)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	var id ID
	var ok bool
	if raw != nil {
		id, ok = d.findBytes(sh, h, t, raw)
	} else {
		id, ok = d.find(sh, h, t)
	}
	if ok {
		return id
	}
	if (sh.used+1)*4 > len(sh.slots)*3 {
		// Double by re-placing the stored hashes: no string is re-hashed.
		grown := make([]dictSlot, max(2*len(sh.slots), minDictSlots))
		for _, s := range sh.slots {
			if s.ref != 0 {
				place(grown, s)
			}
		}
		sh.slots = grown
	}
	id = d.append(t, raw)
	place(sh.slots, dictSlot{hash: h, ref: uint32(id) + 1})
	sh.used++
	return id
}

// append publishes t as the next entry and returns its ID. A non-nil raw is
// the entry's value, copied into the dictionary's own string chunk.
func (d *termDict) append(t Term, raw []byte) ID {
	d.tmu.Lock()
	defer d.tmu.Unlock()
	n := d.n.Load()
	if uint64(n) >= maxDictTerms {
		panic("rdf: term dictionary exceeds the uint32 ID limit")
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
