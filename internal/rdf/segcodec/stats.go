package segcodec

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"github.com/hpc-io/prov-io/internal/par"
	"github.com/hpc-io/prov-io/internal/rdf"
)

// SegStats is the per-segment statistics block behind query pushdown
// (DESIGN.md "Per-segment statistics"): a summary of what a segment can
// possibly contain, cheap enough to consult without decoding the segment.
// Binary segments carry it as a CRC32-framed stats frame between the triple
// block and the chain seal; pack files additionally carry one per member plus
// a pack-level union in their header.
//
// Every field is conservative: a reader may skip a segment only when the
// stats PROVE no triple of interest can be inside. Absent fields (older files
// without a frame, oversized boundary terms, too many predicates) always read
// as "could match", so pruning can never drop results — at worst it decodes
// a segment it did not need.
//
// The block holds:
//
//   - triple and term counts (a zero-triple segment matches nothing);
//   - a zone map: the minimum and maximum term per column (S, P, O) in the
//     canonical rdf.TermLess order — the dictionary is sorted in that order,
//     so these are the terms of the smallest and largest local ID each
//     column references;
//   - the exact distinct-predicate list (capped; beyond the cap the list is
//     omitted rather than truncated, which would be unsound);
//   - the range of the segment's numeric literals (see numericValue);
//   - a Bloom filter over every other term, so "does term X appear here at
//     all" is answerable with no false negatives.
//
// The frame payload, generation 2 ('STA\x02', written by pbs v5):
//
//	'S' 'T' 'A' 0x02
//	uvarint triples | uvarint terms | flags byte
//	per zoned column: Min: kind | uvarint len | value [| lang | dt]
//	                  Max: kind | uvarint shared | uvarint suffixLen | suffix [| lang | dt]
//	staPreds: uvarint n | per predicate: uvarint shared | uvarint suffixLen | suffix
//	staNums:  zig-zag varint min | uvarint (max − min)
//	staBloom: K | uvarint len | bits
//
// where lang and dt are uvarint-length-prefixed strings, Max is front-coded
// against Min and each predicate (an IRI) against the one before it, the
// first against "". The range is present exactly when the segment holds a
// numeric literal, and the Bloom filter, sized newBloom(terms − numerics),
// leaves the numeric literals out. Generation 1 ('STA\x01') is what pbs
// v1–v4 wrote: this build reads none of it, and a pack header carrying it
// refuses with ErrNeedsMigration (DecodePackHeader).
type SegStats struct {
	// Gen is the frame generation the stats are spelled in, staGenRange;
	// zero where a pack header carries no stats.
	Gen     byte
	Triples uint64
	Terms   uint64
	// ZoneOK marks which per-column zone maps are present; Min/Max are the
	// boundary terms of present columns. A column's zone map is omitted when
	// a boundary term's value exceeds maxZoneValueLen (keeping the frame
	// small and the comparison cheap).
	ZoneOK   [3]bool
	Min, Max [3]rdf.Term
	// Preds is the exact distinct-predicate list in canonical term order,
	// or nil when the segment has more than maxPredList distinct predicates
	// (or the stats block predates the field).
	Preds []rdf.Term
	// NumOK marks the range NumMin..NumMax of the segment's numeric literals:
	// set in generation 2 exactly when the segment holds one.
	NumOK          bool
	NumMin, NumMax int64
	// Bloom is the term membership filter; an empty filter means absent. In
	// generation 2 it holds every term but the numeric literals.
	Bloom bloomFilter
}

// staTag leads the stats frame payload, distinguishing it from the chain
// frame and from a stray data frame; the byte after it is the generation.
var staTag = []byte{'S', 'T', 'A'}

// Stats frame generations: pbs v1–v4 carry the first, v5 the second, the
// only one this build spells.
const (
	staGenBloom = 1 // every term in the Bloom filter
	staGenRange = 2 // numeric literals in a range, front-coded bounds and predicates
)

const (
	// maxZoneValueLen bounds the boundary-term values stored in a zone map;
	// columns with longer boundaries omit their zone map (bloom still works).
	maxZoneValueLen = 256
	// maxPredList bounds the exact distinct-predicate list.
	maxPredList = 64
	// bloomBitsPerTerm and bloomHashes size the term filter for roughly a
	// 1% false-positive rate.
	bloomBitsPerTerm = 10
	bloomHashes      = 7
)

// stats flag bits.
const (
	staZoneS = 1 << iota
	staZoneP
	staZoneO
	staPreds
	staBloom
	staNums
)

// bloomFilter is a split Bloom filter over term identities (double hashing
// over a 64-bit FNV-1a of the term's kind, value, language, and datatype).
type bloomFilter struct {
	K    uint8
	Bits []byte
}

// empty reports whether the filter is absent.
func (b bloomFilter) empty() bool { return len(b.Bits) == 0 }

// newBloom returns a filter sized for n terms.
func newBloom(n int) bloomFilter {
	return bloomFilter{K: bloomHashes, Bits: make([]byte, bloomBytes(n))}
}

// bloomBytes is the size of a filter for n terms.
func bloomBytes(n int) int {
	bits := max(n*bloomBitsPerTerm, 64)
	return (bits + 63) &^ 63 / 8
}

// FNV-1a, 64 bits.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// termHash is the 64-bit FNV-1a over a term's identity. With has it is the
// definition of the filter; addTerms sets the bits has probes.
func termHash(t rdf.Term) uint64 {
	h := uint64(fnvOffset)
	step := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= fnvPrime
		}
		h ^= 0xFF // field separator outside the byte alphabet boundary
		h *= fnvPrime
	}
	h ^= uint64(t.Kind)
	h *= fnvPrime
	step(t.Value)
	step(t.Lang)
	step(t.Datatype)
	return h
}

// has reports whether the term may be in the set (false = definitely not).
func (b bloomFilter) has(t rdf.Term) bool {
	if b.empty() {
		return true
	}
	h := termHash(t)
	h1, h2 := uint32(h), uint32(h>>32)|1
	m := uint32(len(b.Bits) * 8)
	for i := uint32(0); i < uint32(b.K); i++ {
		idx := (h1 + i*h2) % m
		if b.Bits[idx/8]&(1<<(idx%8)) == 0 {
			return false
		}
	}
	return true
}

// ComputeStats derives the stats block of a segment from its sorted term
// dictionary and its sorted, deduplicated local-ID triples — the exact arrays
// a segment serializes, so encode and decode agree byte-for-byte on the
// canonical stats frame. It is two independent halves: the range and the
// Bloom filter read only the dictionary, everything else only the rows and
// the boundary terms they name.
func ComputeStats(terms []rdf.Term, tris [][3]uint32) SegStats {
	st, numeric, filtered := segStats(terms, tris, make([]uint64, 2*((len(terms)+63)/64)), make([]rdf.Term, 0, 16))
	st.Bloom = newBloom(filtered)
	st.Bloom.addTerms(terms, numeric)
	return st
}

// segStats is ComputeStats up to the Bloom filter, in memory the caller
// lends: bits, zeroed, holds two bits per term — which stand as predicates,
// and which are numeric literals — and the predicate list is appended to
// preds. It returns the numeric marks, which the filter skips, and how many
// terms the filter holds.
func segStats(terms []rdf.Term, tris [][3]uint32, bits []uint64, preds []rdf.Term) (st SegStats, numeric []uint64, filtered int) {
	words := len(bits) / 2
	st = rowStats(terms, tris, bits[:words], preds)
	st.Gen = staGenRange
	numeric = bits[words:]
	return st, numeric, len(terms) - st.markNumeric(terms, numeric, nil)
}

// appendStats appends the stats frame payload of a segment, as ComputeStats
// and encode spell it, with the scratch's memory: the Bloom filter's bits
// are set in place, in the payload's tail.
func (sc *encScratch) appendStats(dst []byte, terms []rdf.Term, tris [][3]uint32, preds []rdf.Term) []byte {
	words := 2 * ((len(terms) + 63) / 64)
	sc.bits = grow(sc.bits[:0], words)[:words]
	clear(sc.bits)
	st, numeric, filtered := segStats(terms, tris, sc.bits, preds)
	st.Bloom.K = bloomHashes
	n := bloomBytes(filtered)
	dst = st.appendHead(grow(dst, st.headBound()+n), n)
	at := len(dst)
	dst = append(dst, make([]byte, n)...)
	bloomFilter{K: bloomHashes, Bits: dst[at:]}.addTerms(terms, numeric)
	return dst
}

// markNumeric sets the bit in mark (a bit per term) of every numeric literal
// among terms, widens the range to hold them, and returns how many there are.
// A non-nil keys gets each one's valueKey at its position.
func (st *SegStats) markNumeric(terms []rdf.Term, mark, keys []uint64) int {
	n := 0
	for i := range terms {
		if v, ok := numericValue(&terms[i]); ok {
			st.addNumeric(v)
			mark[i/64] |= 1 << (i % 64)
			if keys != nil {
				keys[i] = valueKey(v)
			}
			n++
		}
	}
	return n
}

// valueKey is the key the union table numbers a numeric literal by: a mix of
// its value (splitmix64's finalizer). A value has one canonical spelling, so
// equal literals get equal keys, as they do under termHash, and the table
// settles a key match by comparing terms either way; it costs a few
// multiplies where termHash walks the 40-byte xsd:integer tag, and the
// filter, the other use of termHash, leaves these literals out.
func valueKey(v int64) uint64 {
	x := uint64(v)
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// addNumeric widens the numeric range to hold v.
func (st *SegStats) addNumeric(v int64) {
	if !st.NumOK {
		st.NumOK, st.NumMin, st.NumMax = true, v, v
	}
	st.NumMin, st.NumMax = min(st.NumMin, v), max(st.NumMax, v)
}

// addTerms sets the bits has probes for each of the terms, in any order, but
// for those whose bit in skip is set (nil skips none). The hashes go through
// a buffer on the stack, a stretch of consecutive terms at a time; a stretch
// restarts the prefix walk, which costs one term's full hash per stretch.
func (b bloomFilter) addTerms(terms []rdf.Term, skip []uint64) {
	set := b.setter()
	var buf [256]uint64
	eachRun(len(terms), skip, len(buf), func(i, j int) {
		for _, h := range hashTerms(buf[:0], terms[i:j]) {
			set.add(h)
		}
	})
}

// eachRun calls f(i, j) for each run [i, j) of consecutive indexes below n
// whose bit in skip is clear (nil skips none), cut at most long.
func eachRun(n int, skip []uint64, most int, f func(i, j int)) {
	skipped := func(i int) bool { return skip != nil && skip[i/64]&(1<<(i%64)) != 0 }
	for i := 0; i < n; {
		if skipped(i) {
			i++
			continue
		}
		j := i + 1
		for j < n && j-i < most && !skipped(j) {
			j++
		}
		f(i, j)
		i = j
	}
}

// bloomSetter sets the bits has probes for a term, given its termHash. The
// seven reductions modulo the filter size multiply by one reciprocal, exact
// for 32-bit operands (Lemire's fastmod), instead of dividing.
type bloomSetter struct {
	filter   []byte
	m, recip uint64
	k        uint32
}

func (b bloomFilter) setter() bloomSetter {
	m := uint64(len(b.Bits) * 8)
	return bloomSetter{filter: b.Bits, m: m, recip: ^uint64(0)/m + 1, k: uint32(b.K)}
}

func (s *bloomSetter) add(h uint64) {
	h1, h2 := uint32(h), uint32(h>>32)|1
	for i := uint32(0); i < s.k; i++ {
		idx, _ := bits.Mul64(s.recip*uint64(h1+i*h2), s.m)
		s.filter[idx/8] |= 1 << (idx % 8)
	}
}

// hashTerms appends the termHash of every term to dst, in order. A segment's
// dictionary is sorted, and two things make that cheap. A term resumes the
// hash where it parts from its predecessor's value (state keeps the hash
// after every byte of it): minted IRIs share all but a few trailing bytes.
// And the hash of a literal's tags — a serial multiply per byte, 40 of them
// for xsd:integer — is run for up to four consecutive terms with the same
// tags in step, the chains overlapping in the multiplier. Any order gives the
// same hashes; only the speed depends on it.
func hashTerms(dst []uint64, terms []rdf.Term) []uint64 {
	// state[i]: the hash after prev's kind and the first i bytes of its value.
	// Values longer than the array, which lives on the stack, move it to the heap.
	var short [192]uint64
	state := short[:0]
	var lane [4]uint64 // hashes up to their term's value, waiting for the tags they share
	n := 0
	flush := func(lang, datatype string) {
		hashTags(&lane, lang, datatype)
		dst = append(dst, lane[:n]...)
		n = 0
	}
	var prev *rdf.Term
	for i := range terms {
		t := &terms[i]
		if prev != nil && (n == len(lane) || prev.Lang != t.Lang || prev.Datatype != t.Datatype) {
			flush(prev.Lang, prev.Datatype)
		}
		v, from := t.Value, 0
		if cap(state) <= len(v) {
			state = append(make([]uint64, 0, 2*len(v)+1), state...)
		}
		if prev != nil && prev.Kind == t.Kind {
			p := prev.Value
			for from+8 <= len(v) && from+8 <= len(p) && v[from:from+8] == p[from:from+8] {
				from += 8
			}
			for from < len(v) && from < len(p) && v[from] == p[from] {
				from++
			}
		} else {
			state = append(state[:0], (fnvOffset^uint64(t.Kind))*fnvPrime)
		}
		state = state[:len(v)+1]
		h := state[from]
		for j := from; j < len(v); j++ {
			h = (h ^ uint64(v[j])) * fnvPrime
			state[j+1] = h
		}
		lane[n] = h
		n++
		prev = t
	}
	if prev != nil {
		flush(prev.Lang, prev.Datatype)
	}
	return dst
}

// hashTags continues four term hashes, each up to the end of its value, over
// the field separators and the (lang, datatype) tags the four share.
func hashTags(lane *[4]uint64, lang, datatype string) {
	a, b, c, d := lane[0], lane[1], lane[2], lane[3]
	for _, tag := range [2]string{lang, datatype} {
		a, b, c, d = (a^0xFF)*fnvPrime, (b^0xFF)*fnvPrime, (c^0xFF)*fnvPrime, (d^0xFF)*fnvPrime
		for i := 0; i < len(tag); i++ {
			x := uint64(tag[i])
			a, b, c, d = (a^x)*fnvPrime, (b^x)*fnvPrime, (c^x)*fnvPrime, (d^x)*fnvPrime
		}
	}
	lane[0], lane[1], lane[2], lane[3] = (a^0xFF)*fnvPrime, (b^0xFF)*fnvPrime, (c^0xFF)*fnvPrime, (d^0xFF)*fnvPrime
}

// rowStats is ComputeStats without the Bloom filter: the counts, the zone
// maps and the predicate list, appended to preds. isPred is a zeroed bit
// per term.
func rowStats(terms []rdf.Term, tris [][3]uint32, isPred []uint64, preds []rdf.Term) SegStats {
	st := SegStats{Triples: uint64(len(tris)), Terms: uint64(len(terms))}
	if len(tris) == 0 {
		st.Preds = []rdf.Term{}
		return st
	}
	b := boundsOf(tris, isPred)
	// The dictionary is sorted in canonical term order, so the boundary
	// local IDs map straight to boundary terms.
	for c := 0; c < 3; c++ {
		st.setZone(c, terms[b.min[c]], terms[b.max[c]])
	}
	// For the same reason the set bits, walked upward, are the predicate
	// list in its canonical order; one predicate past the cap settles that
	// the list is omitted.
	for w, word := range b.isPred {
		for ; word != 0 && len(preds) <= maxPredList; word &= word - 1 {
			preds = append(preds, terms[w*64+bits.TrailingZeros64(word)])
		}
	}
	if len(preds) <= maxPredList {
		st.Preds = preds
	}
	return st
}

// rowBounds is what a segment's rows say about its dictionary: the least and
// greatest local ID each column (S, P, O) references, and which local IDs
// stand as predicates, a bit per ID.
type rowBounds struct {
	min, max [3]uint32
	isPred   []uint64
}

// boundsOf reads the bounds off non-empty rows, marking the predicates in
// isPred, a zeroed bit per term of their dictionary.
func boundsOf(tris [][3]uint32, isPred []uint64) rowBounds {
	b := rowBounds{min: tris[0], max: tris[0], isPred: isPred}
	for _, t := range tris {
		for c := 0; c < 3; c++ {
			b.min[c] = min(b.min[c], t[c])
			b.max[c] = max(b.max[c], t[c])
		}
		b.isPred[t[1]/64] |= 1 << (t[1] % 64)
	}
	return b
}

// setZone records column c's zone map, unless a boundary term is too long to.
func (st *SegStats) setZone(c int, lo, hi rdf.Term) {
	if len(lo.Value) <= maxZoneValueLen && len(hi.Value) <= maxZoneValueLen {
		st.ZoneOK[c] = true
		st.Min[c], st.Max[c] = lo, hi
	}
}

// ComputeGraphStats is ComputeStats over a whole graph, read off its
// insertion log through the EncodeRefs dictionary builder, like Encode.
func ComputeGraphStats(g *rdf.Graph) SegStats {
	refs, _ := g.LogSince(0)
	sc := encPool.Get().(*encScratch)
	terms, tris := sc.refTriples(refs, g)
	st := ComputeStats(terms, sc.sortDedup(tris, len(terms)))
	sc.release()
	return st
}

// UnionStats computes the stats of the union of the members' triples — the
// pack-level stats block — without building the union: there is no union
// dictionary and no union row array, sorted or not. Every member's terms
// are distinct and so are its rows (DecodeColumns and the tests'
// graphColumns both guarantee it), and no field of the stats needs the
// union in order:
//
//   - Terms: one open-addressed table, keyed by each member term's termHash
//     and settled by comparing the terms, numbers the distinct terms and
//     marks those that occur in two or more members;
//   - numeric range: folded over the members' numeric literals;
//   - Bloom: the other distinct terms' hashes, set in any order;
//   - Triples: the members' row total less the rows one member repeats from
//     another — only a row whose three terms are all marked can be one;
//   - zone maps: the least and greatest of the members' boundary terms;
//   - predicate list: the members' predicates, numbered by the table.
//
// Hashing each member's dictionary, marking its numeric literals and reading
// its row bounds, then finding its repeat candidates, run on up to `workers`
// goroutines (inline at one);
// the table is filled serially, member by member. Nothing concurrent writes
// what another part reads, so the result is what ComputeGraphStats reports
// for a graph holding every member, at any worker count. A dictionary entry
// no triple uses still counts as a term of the union. The stats are
// generation 2 whatever the members' own frames are: they derive from
// content.
func UnionStats(members []*Columns, workers int) SegStats {
	return unionStats(members, workers, hashTerms)
}

// unionStats is UnionStats with the term hash kernel as a parameter, so a
// test can make every term but the numeric literals (keyed by valueKey)
// collide.
func unionStats(members []*Columns, workers int, hash func(dst []uint64, terms []rdf.Term) []uint64) SegStats {
	hashes := make([][]uint64, len(members))
	numeric := make([][]uint64, len(members)) // each member's numeric literals, a bit per term
	ranges := make([]SegStats, len(members))  // and their range
	bounds := make([]rowBounds, len(members))
	refOff := make([]int, len(members)+1) // member m's terms are refs [refOff[m], refOff[m+1])
	rows := 0
	for m, c := range members {
		refOff[m+1] = refOff[m] + len(c.Terms)
		rows += len(c.Tris)
	}
	par.Do(len(members), workers, func(m int) {
		c := members[m]
		keys := make([]uint64, len(c.Terms))
		numeric[m] = make([]uint64, (len(c.Terms)+63)/64)
		ranges[m].markNumeric(c.Terms, numeric[m], keys)
		eachRun(len(c.Terms), numeric[m], len(c.Terms), func(i, j int) { hash(keys[i:i], c.Terms[i:j]) })
		hashes[m] = keys
		if len(c.Tris) > 0 {
			bounds[m] = boundsOf(c.Tris, make([]uint64, (len(c.Terms)+63)/64))
		}
	})

	// The table: a slot holds a union ID plus one (zero = empty) in its low
	// half and the low half of the term's hash in its high half, so a probe
	// compares terms only when 32 more bits of hash agree. It is indexed by
	// the hash's top bits, FNV's best mixed, and at most two thirds full.
	nRefs := refOff[len(members)]
	shift := 64 - 4
	for 1<<(64-shift) < nRefs+nRefs/2 {
		shift--
	}
	table := make([]uint64, 1<<(64-shift))
	mask := uint64(len(table) - 1)
	remap := make([]uint32, nRefs)       // union ID of member m's local ID l at refOff[m]+l
	first := make([]*rdf.Term, 0, nRefs) // the first occurrence of each union term,
	shared := make([]bool, 0, nRefs)     // whether a second member holds it,
	filtered := make([]uint64, 0, nRefs) // and the termHash of those the filter holds
	for m, c := range members {
		to := remap[refOff[m]:refOff[m+1]]
		for l := range c.Terms {
			t, h := &c.Terms[l], hashes[m][l]
			tag := h << 32
			for i := h >> shift; ; i = (i + 1) & mask {
				slot := table[i]
				if slot == 0 {
					to[l] = uint32(len(first))
					table[i] = tag | uint64(len(first)+1)
					first, shared = append(first, t), append(shared, false)
					if numeric[m][l/64]&(1<<(l%64)) == 0 {
						filtered = append(filtered, h)
					}
					break
				}
				if u := uint32(slot) - 1; slot&^0xFFFFFFFF == tag && *first[u] == *t {
					to[l] = u
					shared[u] = true
					break
				}
			}
		}
	}

	// A row one member repeats from another has all three of its terms in
	// both: collect the rows that could be, then count the repeats among them.
	candidates := make([][][3]uint32, len(members))
	st := SegStats{Gen: staGenRange}
	for _, r := range ranges {
		if r.NumOK {
			st.addNumeric(r.NumMin)
			st.addNumeric(r.NumMax)
		}
	}
	par.Do(len(members)+1, workers, func(m int) {
		if m == len(members) {
			st.Bloom = newBloom(len(filtered))
			set := st.Bloom.setter()
			for _, h := range filtered {
				set.add(h)
			}
			return
		}
		to := remap[refOff[m]:refOff[m+1]]
		for _, t := range members[m].Tris {
			s, p, o := to[t[0]], to[t[1]], to[t[2]]
			if shared[s] && shared[p] && shared[o] {
				candidates[m] = append(candidates[m], [3]uint32{s, p, o})
			}
		}
	})
	seen := make(map[[3]uint32]struct{})
	for _, cs := range candidates {
		for _, r := range cs {
			if _, ok := seen[r]; ok {
				rows--
			} else {
				seen[r] = struct{}{}
			}
		}
	}
	st.Triples, st.Terms = uint64(rows), uint64(len(first))
	if rows == 0 {
		st.Preds = []rdf.Term{}
		return st
	}

	var lo, hi [3]*rdf.Term
	var preds []uint32 // union IDs, one past the cap at most
	for m, c := range members {
		if len(c.Tris) == 0 {
			continue
		}
		b := &bounds[m]
		for col := 0; col < 3; col++ {
			if t := &c.Terms[b.min[col]]; lo[col] == nil || rdf.TermLess(*t, *lo[col]) {
				lo[col] = t
			}
			if t := &c.Terms[b.max[col]]; hi[col] == nil || rdf.TermLess(*hi[col], *t) {
				hi[col] = t
			}
		}
		to := remap[refOff[m]:refOff[m+1]]
		for w, word := range b.isPred {
			for ; word != 0 && len(preds) <= maxPredList; word &= word - 1 {
				if u := to[w*64+bits.TrailingZeros64(word)]; !slices.Contains(preds, u) {
					preds = append(preds, u)
				}
			}
		}
	}
	for col := 0; col < 3; col++ {
		st.setZone(col, *lo[col], *hi[col])
	}
	if len(preds) <= maxPredList {
		st.Preds = make([]rdf.Term, len(preds))
		perm := make([]uint32, len(preds))
		for i, u := range preds {
			st.Preds[i], perm[i] = *first[u], uint32(i)
		}
		sortTermPerm(st.Preds, perm, 0)
		permuteTerms(st.Preds, perm)
	}
	return st
}

// encode renders the canonical stats frame payload, in one buffer sized up
// front.
func (st *SegStats) encode() []byte {
	b := st.appendHead(make([]byte, 0, st.headBound()+len(st.Bloom.Bits)), len(st.Bloom.Bits))
	return append(b, st.Bloom.Bits...)
}

// headBound is an upper bound on the bytes appendHead writes.
func (st *SegStats) headBound() int {
	size := len(staTag) + 2 + 5*binary.MaxVarintLen64
	for c := 0; c < 3; c++ {
		size += termBound(st.Min[c]) + termBound(st.Max[c])
	}
	for _, p := range st.Preds {
		size += termBound(p)
	}
	return size
}

// appendHead appends the stats frame payload up to the Bloom filter's bits,
// which are bloomLen bytes (none: no filter) and the payload's tail.
func (st *SegStats) appendHead(b []byte, bloomLen int) []byte {
	b = append(b, staTag...)
	b = append(b, st.Gen)
	b = binary.AppendUvarint(b, st.Triples)
	b = binary.AppendUvarint(b, st.Terms)
	var flags byte
	for c := 0; c < 3; c++ {
		if st.ZoneOK[c] {
			flags |= staZoneS << c
		}
	}
	if st.Preds != nil {
		flags |= staPreds
	}
	if bloomLen > 0 {
		flags |= staBloom
	}
	if st.NumOK {
		flags |= staNums
	}
	b = append(b, flags)
	for c := 0; c < 3; c++ {
		if !st.ZoneOK[c] {
			continue
		}
		b = appendTerm(b, st.Min[c])
		hi := &st.Max[c]
		b = appendFrontCoded(append(b, byte(hi.Kind)), st.Min[c].Value, hi.Value)
		if hi.Kind == rdf.LiteralTerm {
			b = appendTag(b, tagOf(hi))
		}
	}
	if st.Preds != nil {
		b = binary.AppendUvarint(b, uint64(len(st.Preds)))
		prev := ""
		for _, p := range st.Preds {
			b = appendFrontCoded(b, prev, p.Value)
			prev = p.Value
		}
	}
	if st.NumOK {
		b = binary.AppendVarint(b, st.NumMin)
		b = binary.AppendUvarint(b, uint64(st.NumMax)-uint64(st.NumMin))
	}
	if bloomLen > 0 {
		b = append(b, st.Bloom.K)
		b = binary.AppendUvarint(b, uint64(bloomLen))
	}
	return b
}

// parseStatsPayload decodes a generation 2 stats frame payload (after the
// CRC check). It rejects what no encoder writes and a pack header's stats
// must not carry either: another generation or an unknown flag, a zone map
// whose Max sorts before its Min, a front-coded prefix that is not the
// longest, predicates that do not ascend, and a range whose maximum
// overflows int64. What only the contents can tell — which
// terms are numeric, the filter's size — DecodeColumns checks.
func parseStatsPayload(p []byte) (SegStats, error) {
	var st SegStats
	if len(p) <= len(staTag) || !bytes.HasPrefix(p, staTag) {
		return st, fmt.Errorf("missing stats magic")
	}
	st.Gen = p[len(staTag)]
	if st.Gen != staGenRange {
		return st, fmt.Errorf("unknown stats frame generation %d", st.Gen)
	}
	p = p[len(staTag)+1:]
	var err error
	if st.Triples, p, err = getUvarint(p); err != nil {
		return st, fmt.Errorf("triple count: %v", err)
	}
	if st.Terms, p, err = getUvarint(p); err != nil {
		return st, fmt.Errorf("term count: %v", err)
	}
	if len(p) == 0 {
		return st, fmt.Errorf("missing flags byte")
	}
	flags := p[0]
	p = p[1:]
	if flags&^byte(staZoneS|staZoneP|staZoneO|staPreds|staBloom|staNums) != 0 {
		return st, fmt.Errorf("unknown stats flags %#02x", flags)
	}
	var val []byte // a front-coded value, over the bytes of the one before it
	for c := 0; c < 3; c++ {
		if flags&(staZoneS<<c) == 0 {
			continue
		}
		st.ZoneOK[c] = true
		if st.Min[c], p, err = getTerm(p); err != nil {
			return st, fmt.Errorf("zone %d min: %v", c, err)
		}
		if st.Max[c], p, err = getFrontCodedTerm(append(val[:0], st.Min[c].Value...), p); err != nil {
			return st, fmt.Errorf("zone %d max: %v", c, err)
		}
		if rdf.TermLess(st.Max[c], st.Min[c]) {
			return st, fmt.Errorf("zone %d: max sorts before min", c)
		}
	}
	if flags&staPreds != 0 {
		var n uint64
		if n, p, err = getUvarint(p); err != nil {
			return st, fmt.Errorf("predicate count: %v", err)
		}
		if n > maxPredList {
			return st, fmt.Errorf("predicate list of %d exceeds cap %d", n, maxPredList)
		}
		st.Preds = make([]rdf.Term, 0, n)
		val = val[:0]
		for i := uint64(0); i < n; i++ {
			var t rdf.Term
			if val, p, err = frontCoded(val, p); err == nil {
				t = rdf.IRI(string(val))
				if i > 0 && st.Preds[i-1].Value >= t.Value {
					err = fmt.Errorf("predicate list is not strictly ascending")
				}
			}
			if err != nil {
				return st, fmt.Errorf("predicate %d: %v", i, err)
			}
			st.Preds = append(st.Preds, t)
		}
	}
	if flags&staNums != 0 {
		var span uint64
		if st.NumMin, p, err = getSvarint(p); err != nil {
			return st, fmt.Errorf("numeric range min: %v", err)
		}
		if span, p, err = getUvarint(p); err != nil {
			return st, fmt.Errorf("numeric range span: %v", err)
		}
		if span > uint64(math.MaxInt64)-uint64(st.NumMin) {
			return st, fmt.Errorf("numeric range max overflows int64 (min %d, span %d)", st.NumMin, span)
		}
		st.NumOK, st.NumMax = true, int64(uint64(st.NumMin)+span)
	}
	if flags&staBloom != 0 {
		if len(p) == 0 {
			return st, fmt.Errorf("missing bloom k byte")
		}
		st.Bloom.K = p[0]
		p = p[1:]
		var n uint64
		if n, p, err = getUvarint(p); err != nil {
			return st, fmt.Errorf("bloom size: %v", err)
		}
		if st.Bloom.K == 0 || n == 0 || n > uint64(len(p)) {
			return st, fmt.Errorf("bloom of %d bytes exceeds remaining %d", n, len(p))
		}
		st.Bloom.Bits = append([]byte(nil), p[:n]...)
		p = p[n:]
	}
	if len(p) != 0 {
		return st, fmt.Errorf("%d trailing bytes", len(p))
	}
	return st, nil
}

// statsMismatch names what is wrong with a stats frame payload that differs
// from want, the stats the segment's contents derive: a rule of the frame's
// own structure, or one only the contents decide — whether there is a range
// and what it spans, and the size of the filter over the other terms.
func statsMismatch(payload []byte, want *SegStats) string {
	got, err := parseStatsPayload(payload)
	switch {
	case err != nil:
		return err.Error()
	case got.NumOK && !want.NumOK:
		return "numeric range over a segment without numeric literals"
	case !got.NumOK && want.NumOK:
		return "no numeric range over a segment with numeric literals"
	case got.NumOK && (got.NumMin != want.NumMin || got.NumMax != want.NumMax):
		return fmt.Sprintf("numeric range [%d, %d], the segment's is [%d, %d]", got.NumMin, got.NumMax, want.NumMin, want.NumMax)
	case len(got.Bloom.Bits) != len(want.Bloom.Bits):
		return fmt.Sprintf("bloom of %d bytes, the segment's terms size it %d", len(got.Bloom.Bits), len(want.Bloom.Bits))
	}
	return "does not match segment contents"
}

// appendTerm serializes one term: kind, value, and a literal's tags.
func appendTerm(b []byte, t rdf.Term) []byte {
	b = binary.AppendUvarint(append(b, byte(t.Kind)), uint64(len(t.Value)))
	b = append(b, t.Value...)
	if t.Kind == rdf.LiteralTerm {
		b = appendTag(b, tagOf(&t))
	}
	return b
}

// termBound is an upper bound on the bytes appendTerm writes for t.
func termBound(t rdf.Term) int {
	return 1 + 3*binary.MaxVarintLen64 + len(t.Value) + len(t.Lang) + len(t.Datatype)
}

// getTerm deserializes one appendTerm-encoded term.
func getTerm(p []byte) (rdf.Term, []byte, error) {
	return getTermWith(p, func(p []byte) (string, []byte, error) { return getString(p) })
}

// getFrontCodedTerm deserializes a term whose value is front-coded against
// prev, which holds the previous value's bytes: kind, shared prefix, suffix,
// and a literal's tags.
func getFrontCodedTerm(prev, p []byte) (rdf.Term, []byte, error) {
	return getTermWith(p, func(p []byte) (string, []byte, error) {
		val, p, err := frontCoded(prev, p)
		return string(val), p, err
	})
}

// getTermWith reads a kind byte, then the value through value, then a
// literal's tags.
func getTermWith(p []byte, value func([]byte) (string, []byte, error)) (rdf.Term, []byte, error) {
	var t rdf.Term
	if len(p) == 0 {
		return t, nil, fmt.Errorf("missing kind byte")
	}
	t.Kind = rdf.TermKind(p[0])
	p = p[1:]
	if t.Kind != rdf.IRITerm && t.Kind != rdf.BlankTerm && t.Kind != rdf.LiteralTerm {
		return t, nil, fmt.Errorf("invalid term kind %d", t.Kind)
	}
	var err error
	if t.Value, p, err = value(p); err != nil {
		return t, nil, err
	}
	if t.Kind == rdf.LiteralTerm {
		var lang, dt []byte
		if lang, dt, p, err = getTag(p); err != nil {
			return t, nil, err
		}
		t.Lang, t.Datatype = string(lang), string(dt)
	}
	return t, p, nil
}

// inZone reports whether t can lie inside column c's zone map (true when the
// column has no zone map).
func (st *SegStats) inZone(c int, t rdf.Term) bool {
	if !st.ZoneOK[c] {
		return true
	}
	return !rdf.TermLess(t, st.Min[c]) && !rdf.TermLess(st.Max[c], t)
}

// CanMatch reports whether a triple pattern (nil = wildcard per position)
// could match any triple of the segment. False means provably no match, so
// the segment may be skipped without decoding.
func (st *SegStats) CanMatch(s, p, o *rdf.Term) bool {
	if st.Triples == 0 {
		return false
	}
	if p != nil && st.Preds != nil {
		found := false
		for _, t := range st.Preds {
			if t == *p {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	for c, t := range []*rdf.Term{s, p, o} {
		if t == nil {
			continue
		}
		if !st.mayHold(t) {
			return false
		}
		if !st.inZone(c, *t) {
			return false
		}
	}
	return true
}

// mayHold reports whether the term can be one of the segment's at all: a
// numeric literal against the range when the frame has one, any other term
// against the Bloom filter. That is sound: a frame without a range
// describes a segment without numeric literals, where the filter's "no" is
// right.
func (st *SegStats) mayHold(t *rdf.Term) bool {
	if st.NumOK {
		if v, ok := numericValue(t); ok {
			return st.NumMin <= v && v <= st.NumMax
		}
	}
	return st.Bloom.has(*t)
}

// StatsOf returns a pbs v5 file's stats frame, which a read prunes on
// before it decodes the file, without decoding the blocks the frame
// describes. It refuses what DecodeColumns refuses at the frames, with the
// same error; the frame itself is held to the contents at decode.
func StatsOf(data []byte) (*SegStats, error) {
	f, err := currentFrames(data)
	if err != nil {
		return nil, err
	}
	st, err := parseStatsPayload(f.stats)
	if err != nil {
		return nil, fmt.Errorf("%w: stats frame: %v", ErrCorrupt, err)
	}
	return &st, nil
}
