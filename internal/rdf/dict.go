package rdf

import (
	"cmp"
	"hash/maphash"
	"math/bits"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"
)

// dictEntry is a resident term: 12 bytes and no pointer, so the chunks that
// hold entries are noscan. The value is bytes on one of the dictionary's
// pages (see termTable.value): page names the page directory slot, and word
// packs the kind, the value's offset on its page and its length. Lang and
// Datatype are not stored per term — a workload has a handful of distinct
// (Lang, Datatype) pairs, so aux names one in the dictionary's side table
// (pair aux-1; 0 = both empty).
type dictEntry struct {
	page uint32
	word uint32 // kind | off<<kindBits | n<<(kindBits+offBits)
	aux  uint32
}

// langType is one distinct (Lang, Datatype) pair of the side table.
type langType struct{ lang, datatype string }

// The fields of dictEntry.word. None of them limits the dictionary: a page
// that holds more than one value is at most 1<<offBits bytes, so every
// offset fits; a value too long for the length field is a page of its own
// (wholePage); and the page index fits in 32 bits because each term adds at
// most one page, under the term limit.
const (
	kindBits = 8 // all of TermKind
	offBits  = 14
	lenBits  = 32 - kindBits - offBits

	// wholePage in the length field says the value is its whole page. A
	// value of wholePage bytes or more gets a page of its own, exactly its
	// length; the empty value is page 0, which every directory starts with
	// and which is empty.
	wholePage = 1<<lenBits - 1
)

// packWord packs an entry's word; off and n must fit their fields.
func packWord(kind TermKind, off, n int) uint32 {
	return uint32(kind) | uint32(off)<<kindBits | uint32(n)<<(kindBits+offBits)
}

func (e dictEntry) kind() TermKind { return TermKind(e.word) }

const (
	// The entry table is a directory of chunks that are never moved or
	// resized. Chunk c holds 1<<(c+dictChunkMinBits) entries until chunks
	// reach 1<<dictChunkMaxBits, and that many from there on: a decoded
	// unit's few hundred terms cost a few small chunks, a large dictionary
	// wastes at most one 12 KB chunk.
	dictChunkMinBits = 4
	dictChunkMaxBits = 10

	// An interned value is copied onto the page being filled. The first
	// page holds 1<<pageMinBits bytes, each next one twice that until
	// 1<<offBits, so a tracker with a handful of terms holds 256 bytes and
	// a large one wastes at most the tail of one 16 KB page.
	pageMinBits = 8

	// dirInline is the number of page directory slots a dictionary holds
	// inside itself: one with no more pages — a decoded unit, a lineage
	// reduction — allocates no directory, and a larger one a doubling
	// array.
	dirInline = 8

	// minDictSlots is the slot count of the first table: a decoded unit's
	// graph with a few terms holds 64 bytes of slots.
	minDictSlots = 8

	// sortedHits is the size of a sorted dictionary's lookup cache (hits):
	// 4 KB, room for a workload's query vocabulary.
	sortedHits = 512

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
//   - one append-only ID -> entry table (chunks, pages, aux side table,
//     count) whose IDs are dense indexes in allocation order, which the
//     query planner and the insertion log rely on.
//
// Every write — a value's bytes, a new entry, a slot, a grown table —
// happens under tmu and is published by an atomic store; a hit takes no lock
// at all. Two orders make that safe:
//
//   - a value's bytes and its page are written before its entry, and the
//     entry is published (n stored) before the slot naming it, so a reader
//     that loaded the slot and then takes a table view sees the entry, its
//     page and its bytes;
//   - a grown slot table is published (one pointer store) after every stored
//     hash is re-placed in it, so a reader sees a table either before or
//     after a doubling, whole. A reader still on the old table can miss only
//     a term whose intern had not returned when it loaded the pointer.
//
// The dictionary owns every value's bytes: a miss copies the value, whether
// it came as a Term or as bytes (internBytes), onto the page being filled,
// and a page is never moved, resized or written over once a value is on it.
// A Term handed out shares its value with the page, so it pins that page and
// nothing else. A bytes probe (findBytes) compares the bytes in place, so a
// caller that formats values into a reused buffer allocates nothing for a
// term the dictionary already holds and retains nothing of it.
//
// A sorted dictionary (initSorted) starts with entries and no slot table:
// its first sortedN entries ascend under termLess, and lookup bisects them,
// through a small cache of its recent finds, until the first miss of an
// intern builds the table from the entries.
//
// Nothing iterates the slot table, so nothing observable depends on the seed.
type termDict struct {
	seed maphash.Seed

	// sortedN is the length of the sorted prefix initSorted adopted; 0 for a
	// dictionary built by interning. Set before the dictionary is shared and
	// never changed.
	sortedN uint32
	// hits caches a sorted dictionary's bisections while it has no slot
	// table: two candidate words per hash, each hash<<32 | 1 + the term's
	// lower bound in the prefix. A query resolves the same constants over
	// and over, present or not, and a bisection costs a dozen string
	// compares where a hit costs one or two. See bisect.
	hits []atomic.Uint64

	// slots is a power-of-two table, probed linearly and kept at most 3/4
	// full. Each word is a term's 32-bit hash over 1 + its ID; 0 is empty.
	// A table is replaced, never resized in place.
	slots atomic.Pointer[[]atomic.Uint64]

	tmu    sync.Mutex
	auxIDs map[langType]uint32 // pair -> aux; guarded by tmu
	// fill is the page being filled, its length the bytes written, and
	// fillAt its directory slot; npages counts the slots in use. All guarded
	// by tmu. A full page is dropped from here and lives on in the directory.
	fill   []byte
	fillAt uint32
	npages uint32
	// dir0 is the directory's first array and dir its header, which pages
	// points at until the directory outgrows dir0. Neither is written after
	// it is published: a new page only fills a slot of dir0 no published
	// entry names yet.
	dir0 [dirInline][]byte
	dir  [][]byte

	// Append-only and published by atomic store after the write they cover.
	// chunks and aux are republished only when they grow (an append into
	// spare capacity lands beyond every published length). pages is
	// published at the full length of its array and republished only when
	// the array is replaced: a new page is written into a slot no published
	// entry names yet. n is stored after all three, so a reader that loads n
	// first sees chunks, pages and aux covering n entries.
	chunks atomic.Pointer[[][]dictEntry]
	pages  atomic.Pointer[[][]byte]
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
	d.dir = d.dir0[:] // slot 0 is page 0, the empty page of every empty value
	d.pages.Store(&d.dir)
	d.npages = 1
	d.aux.Store(new([]langType))
	d.auxIDs = make(map[langType]uint32)
}

// initSorted is init for a dictionary adopting terms, strictly ascending
// under termLess, as IDs 0..len(terms)-1: their entries and side table are
// published and no slot table is built. The values are copied, in ID order,
// into one block of exactly their total size, cut into pages of at most
// 1<<offBits bytes (a value of wholePage bytes or more is a page of its
// own), so nothing of terms is retained. The dictionary is not shared yet,
// so it is filled without tmu.
func (d *termDict) initSorted(terms []Term) {
	d.init()
	size := 0
	for i := range terms {
		size += len(terms[i].Value)
	}
	block := make([]byte, 0, size)
	dir := d.dir0[:1] // moves to the heap only past dirInline pages
	start := 0        // of the page being cut, whose slot is len(dir)
	cut := func() {
		if len(block) > start {
			dir = append(dir, block[start:len(block):len(block)])
			start = len(block)
		}
	}
	var chunks [][]dictEntry
	for id := range terms {
		c, off := locate(ID(id))
		if c == len(chunks) {
			chunks = append(chunks, make([]dictEntry, 1<<min(c+dictChunkMinBits, dictChunkMaxBits)))
		}
		t := &terms[id]
		e := dictEntry{word: packWord(t.Kind, 0, wholePage)}
		switch n := len(t.Value); {
		case n >= wholePage:
			cut()
			block = append(block, t.Value...)
			e.page = uint32(len(dir))
			cut()
		case n > 0:
			if len(block)+n-start > 1<<offBits {
				cut()
			}
			e.page, e.word = uint32(len(dir)), packWord(t.Kind, len(block)-start, n)
			block = append(block, t.Value...)
		}
		if t.Lang != "" || t.Datatype != "" {
			e.aux = d.auxLocked(langType{t.Lang, t.Datatype})
		}
		chunks[c][off] = e
	}
	cut()
	d.npages = uint32(len(dir))
	d.dir = dir[:cap(dir)]
	d.chunks.Store(&chunks)
	d.n.Store(uint32(len(terms)))
	d.sortedN = uint32(len(terms))
	if len(terms) > 0 {
		d.hits = make([]atomic.Uint64, sortedHits)
	}
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
// entries, which never change once published, and the pages and side table
// they name.
type termTable struct {
	chunks [][]dictEntry
	pages  [][]byte
	aux    []langType
	n      int
}

func (tt *termTable) len() int { return tt.n }

// entry returns the stored entry; id must be below len().
func (tt *termTable) entry(id ID) dictEntry {
	c, off := locate(id)
	return tt.chunks[c][off]
}

// value returns e's value as a string over its page. The bytes were written
// before e was published and are never written again, which is the rule
// unsafe.String asks of the bytes under a string.
func (tt *termTable) value(e dictEntry) string {
	p := tt.pages[e.page]
	n := e.word >> (kindBits + offBits)
	if n == wholePage {
		return unsafe.String(unsafe.SliceData(p), len(p))
	}
	return unsafe.String(&p[e.word>>kindBits&(1<<offBits-1)], n)
}

// at rebuilds the Term interned under id; id must be below len().
func (tt *termTable) at(id ID) Term {
	e := tt.entry(id)
	t := Term{Kind: e.kind(), Value: tt.value(e)}
	if e.aux != 0 {
		p := tt.aux[e.aux-1]
		t.Lang, t.Datatype = p.lang, p.datatype
	}
	return t
}

// holds reports whether entry id is exactly t, comparing all four fields as
// Term equality does: no normalisation.
func (tt *termTable) holds(id ID, t Term) bool {
	e := tt.entry(id)
	return tt.holdsRest(e, t) && tt.value(e) == t.Value
}

// holdsBytes is holds with string(raw) for t.Value, compared in place.
func (tt *termTable) holdsBytes(id ID, t Term, raw []byte) bool {
	e := tt.entry(id)
	return tt.holdsRest(e, t) && tt.value(e) == string(raw)
}

// compare orders entry id against t as termLess orders terms: -1, 0 or +1.
func (tt *termTable) compare(id ID, t Term) int {
	e := tt.entry(id)
	if k := e.kind(); k != t.Kind {
		return cmp.Compare(k, t.Kind)
	}
	if c := strings.Compare(tt.value(e), t.Value); c != 0 {
		return c
	}
	var p langType
	if e.aux != 0 {
		p = tt.aux[e.aux-1]
	}
	if c := strings.Compare(p.lang, t.Lang); c != 0 {
		return c
	}
	return strings.Compare(p.datatype, t.Datatype)
}

// holdsRest compares everything but the value.
func (tt *termTable) holdsRest(e dictEntry, t Term) bool {
	if e.kind() != t.Kind {
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
	return termTable{chunks: *d.chunks.Load(), pages: *d.pages.Load(), aux: *d.aux.Load(), n: n}
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
		if uint32(w>>32) != h {
			continue
		}
		if tt := d.snapshot(); tt.holds(ID(w-1), t) {
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
		if uint32(w>>32) != h {
			continue
		}
		if tt := d.snapshot(); tt.holdsBytes(ID(w-1), t, raw) {
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

// lookup returns the ID for t and whether it is interned. A sorted
// dictionary whose slot table is not built yet holds nothing but its sorted
// prefix, so the prefix is bisected; a reader that sees the built table
// finds every prefix entry there, because the table is published whole.
func (d *termDict) lookup(t Term) (ID, bool) {
	h := d.hash(t)
	if d.sortedN != 0 && len(*d.slots.Load()) == 0 {
		return d.bisect(h, t)
	}
	return d.find(h, t)
}

// bisect finds t, whose hash is h, in the sorted prefix by binary search
// for its lower bound: its ID if t is there, else where it would sort. The
// bound goes to the hits cache, in a free candidate word, else the first. A
// cached bound is proved before it is believed — its entry is t, or its
// neighbours sort either side of t — so it answers an absent term, such as
// a vocabulary IRI the store never used, as cheaply as a present one.
func (d *termDict) bisect(h uint32, t Term) (ID, bool) {
	tt, n := d.snapshot(), int(d.sortedN)
	cand := [2]*atomic.Uint64{&d.hits[h%sortedHits], &d.hits[(h>>16)%sortedHits]}
	for _, c := range cand {
		w := c.Load()
		if w == 0 || uint32(w>>32) != h {
			continue
		}
		i := int(uint32(w) - 1)
		at := 1 // entry i against t; the end sorts after every term
		if i < n {
			at = tt.compare(ID(i), t)
		}
		if at == 0 {
			return ID(i), true
		}
		if at > 0 && (i == 0 || tt.compare(ID(i-1), t) < 0) {
			return 0, false
		}
	}
	lo, hi := 0, n
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); tt.compare(ID(m), t) < 0 {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if cand[0].Load() != 0 && cand[1].Load() == 0 {
		cand[0] = cand[1]
	}
	cand[0].Store(uint64(h)<<32 | uint64(lo) + 1)
	if lo < n && tt.holds(ID(lo), t) {
		return ID(lo), true
	}
	return 0, false
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
// copied onto a page, so raw may be reused as soon as the call returns.
func (d *termDict) internBytes(t Term, raw []byte) ID {
	h := d.hashFrom(maphash.Bytes(d.seed, raw), t.Kind, t.Lang, t.Datatype)
	if id, ok := d.findBytes(h, t, raw); ok {
		return id
	}
	return d.add(h, t, raw)
}

// add is the miss path of both interns: under tmu it looks again and, still
// absent, copies the term's value — string(raw) when raw is not nil — onto a
// page, appends and publishes its entry, and then points a slot at it. A
// sorted dictionary's first add builds the slot table first, so the look
// again sees the prefix.
func (d *termDict) add(h uint32, t Term, raw []byte) ID {
	d.tmu.Lock()
	defer d.tmu.Unlock()
	if d.sortedN != 0 && len(*d.slots.Load()) == 0 {
		d.slotSortedLocked()
	}
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

	var e dictEntry
	e.page, e.word = d.placeLocked(t.Kind, t.Value, raw)
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

// slotSortedLocked builds and publishes the slot table of a sorted
// dictionary from its entries, sized as interning them would have left it.
// Caller holds tmu.
func (d *termDict) slotSortedLocked() {
	tt := d.snapshot()
	size := minDictSlots
	for (tt.len()+1)*4 > size*3 {
		size *= 2
	}
	slots := make([]atomic.Uint64, size)
	for id := ID(0); int(id) < tt.len(); id++ {
		h := d.hash(tt.at(id))
		slots[free(slots, h)].Store(uint64(h)<<32 | uint64(id) + 1)
	}
	d.slots.Store(&slots)
}

// placeLocked copies a value — s, or b when s is empty — onto the pages
// and returns the page and word of its entry. A value that does not fit in
// what is left of the page being filled starts the next one, which is twice
// the size up to 1<<offBits; a value of wholePage bytes or more gets a page
// of its own and the page being filled stays. Nothing already on a page is
// moved or written over. Caller holds tmu.
func (d *termDict) placeLocked(kind TermKind, s string, b []byte) (page, word uint32) {
	n := len(s) + len(b)
	switch {
	case n == 0:
		return 0, packWord(kind, 0, wholePage)
	case n >= wholePage:
		p := make([]byte, n)
		copy(p[copy(p, s):], b)
		return d.addPageLocked(p), packWord(kind, 0, wholePage)
	case cap(d.fill)-len(d.fill) < n:
		size := min(max(2*cap(d.fill), 1<<pageMinBits), 1<<offBits)
		d.fill = make([]byte, 0, max(size, n))
		d.fillAt = d.addPageLocked(d.fill[:cap(d.fill)])
	}
	off := len(d.fill)
	d.fill = append(append(d.fill, s...), b...)
	return d.fillAt, packWord(kind, off, n)
}

// addPageLocked puts p in the next directory slot and returns its index. The
// slot lies beyond every page a published entry names, so it is written in
// place; only a full directory is copied into a twice larger one and
// republished. Caller holds tmu.
func (d *termDict) addPageLocked(p []byte) uint32 {
	dir := *d.pages.Load()
	if int(d.npages) == len(dir) {
		grown := make([][]byte, 2*len(dir))
		copy(grown, dir)
		d.pages.Store(&grown)
		dir = grown
	}
	dir[d.npages] = p
	d.npages++
	return d.npages - 1
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
