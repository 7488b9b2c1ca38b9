package segcodec

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"

	"github.com/hpc-io/prov-io/internal/par"
	"github.com/hpc-io/prov-io/internal/rdf"
)

// SegStats is the per-segment statistics block behind query pushdown
// (DESIGN.md "Leveled segments & pushdown"): a summary of what a segment can
// possibly contain, cheap enough to consult without decoding the segment.
// Binary segments carry it as a CRC32-framed 'STA\x01' frame between the
// triple block and the chain seal; pack files additionally carry one per
// member plus a pack-level union in their header.
//
// Every field is conservative: a reader may skip a segment only when the
// stats PROVE no triple of interest can be inside. Absent fields (legacy
// files, oversized boundary terms, too many predicates) always read as
// "could match", so pruning can never drop results — at worst it decodes a
// segment it did not need.
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
//   - a Bloom filter over every term in the segment's dictionary, so "does
//     term X appear here at all" is answerable with no false negatives.
type SegStats struct {
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
	// Bloom is the term membership filter; an empty filter means absent.
	Bloom Bloom
}

// staMagic leads the stats frame payload, distinguishing it from the chain
// frame and from a stray data frame.
var staMagic = []byte{'S', 'T', 'A', 0x01}

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
)

// Bloom is a split Bloom filter over term identities (double hashing over a
// 64-bit FNV-1a of the term's kind, value, language, and datatype).
type Bloom struct {
	K    uint8
	Bits []byte
}

// Empty reports whether the filter is absent.
func (b Bloom) Empty() bool { return len(b.Bits) == 0 }

// newBloom returns a filter sized for n terms.
func newBloom(n int) Bloom {
	bits := n * bloomBitsPerTerm
	if bits < 64 {
		bits = 64
	}
	bits = (bits + 63) &^ 63
	return Bloom{K: bloomHashes, Bits: make([]byte, bits/8)}
}

// FNV-1a, 64 bits.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// termHash is the 64-bit FNV-1a over a term's identity. With Add and Has it
// is the definition of the filter; termBloom builds the same bits faster.
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

// Add sets the term's bits.
func (b Bloom) Add(t rdf.Term) {
	h := termHash(t)
	h1, h2 := uint32(h), uint32(h>>32)|1
	m := uint32(len(b.Bits) * 8)
	for i := uint32(0); i < uint32(b.K); i++ {
		idx := (h1 + i*h2) % m
		b.Bits[idx/8] |= 1 << (idx % 8)
	}
}

// Has reports whether the term may be in the set (false = definitely not).
func (b Bloom) Has(t rdf.Term) bool {
	if b.Empty() {
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
// dictionary and its sorted, deduplicated local-ID triples — the exact
// arrays writeSegment serializes, so encode and decode agree byte-for-byte
// on the canonical stats frame. It is two independent halves: the Bloom
// filter reads only the dictionary, everything else only the rows and the
// boundary terms they name.
func ComputeStats(terms []rdf.Term, tris [][3]uint32) SegStats {
	st := rowStats(terms, tris)
	st.Bloom = termBloom(terms)
	return st
}

// termBloom is the membership filter over a dictionary: the bits Add sets
// term by term, for terms in any order. A segment's dictionary is sorted, and
// three things make that cheap. A term resumes the hash where it parts from
// its predecessor's value (state keeps the hash after every byte of it):
// minted IRIs share all but a few trailing bytes. The hash of a literal's
// tags — a serial multiply per byte, 40 of them for xsd:integer — is run for
// up to four consecutive terms with the same tags in step, the chains
// overlapping in the multiplier. And the seven reductions modulo the filter
// size multiply by one reciprocal, exact for 32-bit operands (Lemire's
// fastmod), instead of dividing.
func termBloom(terms []rdf.Term) Bloom {
	b := newBloom(len(terms))
	m := uint64(len(b.Bits) * 8)
	recip := ^uint64(0)/m + 1
	// state[i]: the hash after prev's kind and the first i bytes of its value.
	// Values longer than the array, which lives on the stack, move it to the heap.
	var short [192]uint64
	state := short[:0]
	var lane [4]uint64 // hashes up to their term's value, waiting for the tags they share
	n := 0
	filter, k := b.Bits, uint32(b.K)
	flush := func(lang, datatype string) {
		hashTags(&lane, lang, datatype)
		for _, h := range lane[:n] {
			h1, h2 := uint32(h), uint32(h>>32)|1
			for i := uint32(0); i < k; i++ {
				idx, _ := bits.Mul64(recip*uint64(h1+i*h2), m)
				filter[idx/8] |= 1 << (idx % 8)
			}
		}
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
	return b
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
// maps and the predicate list.
func rowStats(terms []rdf.Term, tris [][3]uint32) SegStats {
	st := SegStats{Triples: uint64(len(tris)), Terms: uint64(len(terms))}
	if len(tris) == 0 {
		st.Preds = []rdf.Term{}
		return st
	}
	var mn, mx [3]uint32
	for c := 0; c < 3; c++ {
		mn[c], mx[c] = tris[0][c], tris[0][c]
	}
	isPred := make([]uint64, (len(terms)+63)/64) // a bit per local ID
	for _, t := range tris {
		for c := 0; c < 3; c++ {
			if t[c] < mn[c] {
				mn[c] = t[c]
			}
			if t[c] > mx[c] {
				mx[c] = t[c]
			}
		}
		isPred[t[1]/64] |= 1 << (t[1] % 64)
	}
	// The dictionary is sorted in canonical term order, so the boundary
	// local IDs map straight to boundary terms.
	for c := 0; c < 3; c++ {
		lo, hi := terms[mn[c]], terms[mx[c]]
		if len(lo.Value) <= maxZoneValueLen && len(hi.Value) <= maxZoneValueLen {
			st.ZoneOK[c] = true
			st.Min[c], st.Max[c] = lo, hi
		}
	}
	// For the same reason the set bits, walked upward, are the predicate
	// list in its canonical order; one predicate past the cap settles that
	// the list is omitted.
	preds := make([]rdf.Term, 0, 16)
	for w, word := range isPred {
		for ; word != 0 && len(preds) <= maxPredList; word &= word - 1 {
			preds = append(preds, terms[w*64+bits.TrailingZeros64(word)])
		}
	}
	if len(preds) <= maxPredList {
		st.Preds = preds
	}
	return st
}

// ComputeGraphStats is ComputeStats over a whole graph, read off its
// insertion log like Encode.
func ComputeGraphStats(g *rdf.Graph) SegStats {
	c := GraphColumns(g)
	return ComputeStats(c.Terms, sortDedupTriples(c.Tris, len(c.Terms)))
}

// GraphColumns returns a graph's contents in segment shape, read off its
// surviving insertion log through the EncodeRefs dictionary builder: what
// Encode serializes, and how a member that is not a binary segment (a text
// file, which decodes only into a graph) takes part in UnionStats. The rows
// are in log order and repeat where a triple was removed and re-added.
func GraphColumns(g *rdf.Graph) *Columns {
	refs, _ := g.RefsSince(0)
	terms, tris := refTriples(refs, g)
	return &Columns{Terms: terms, Tris: tris}
}

// dictRef names one entry of one member's dictionary: what UnionStats merges
// in place of the 64-byte term itself.
type dictRef struct{ member, local uint32 }

// UnionStats computes the stats of the union of the members' triples — the
// pack-level stats block — without building the union as a graph, and
// without copying a term until the union dictionary is final. Each member's
// dictionary is strictly ascending (DecodeColumns rejects any other), so as
// a run of references it is already sorted; the runs are merged pairwise in
// rounds between two buffers, stably and keeping duplicates, by comparing
// the terms the references name. One walk along the single run that is left
// numbers the distinct terms, fills every member's local-to-union table and
// leaves the union's references behind, from which the union dictionary is
// built once, at its size. The members' rows, renumbered into disjoint
// ranges of one array, are sorted and deduplicated like any segment's.
//
// The pairs of a round, the members' renumberings, and the Bloom filter
// beside the row sort are independent of each other and run on up to
// `workers` goroutines (inline at one). The result is what ComputeGraphStats
// reports for a graph holding every member, at any worker count. A
// dictionary entry no triple uses still counts as a term of the union.
func UnionStats(members []*Columns, workers int) SegStats {
	dicts := make([][]rdf.Term, len(members))
	refOff := make([]int, len(members)+1) // member m's dictionary is refs [refOff[m], refOff[m+1])
	rowOff := make([]int, len(members)+1) // and its rows are union rows [rowOff[m], rowOff[m+1])
	for m, c := range members {
		dicts[m] = c.Terms
		refOff[m+1] = refOff[m] + len(c.Terms)
		rowOff[m+1] = rowOff[m] + len(c.Tris)
	}
	nRefs, nRows := refOff[len(members)], rowOff[len(members)]
	bufs := make([]dictRef, 2*nRefs)
	src, dst := bufs[:nRefs], bufs[nRefs:]
	for m, d := range dicts {
		run := src[refOff[m]:refOff[m+1]]
		for i := range d {
			run[i] = dictRef{uint32(m), uint32(i)}
		}
	}

	// Merge rounds. Going into a round every run covers `width` members (the
	// last maybe fewer); the round merges runs 2p and 2p+1 into one, and an
	// odd run out is carried over as a merge with nothing.
	refAt := func(m int) int { return refOff[min(m, len(members))] }
	for width := 1; width < len(members); width *= 2 {
		pairs := (len(members) + 2*width - 1) / (2 * width)
		par.Do(pairs, workers, func(p int) {
			lo, mid, hi := refAt(2*p*width), refAt((2*p+1)*width), refAt((2*p+2)*width)
			mergeRefs(dst[lo:hi], src[lo:mid], src[mid:hi], dicts)
		})
		src, dst = dst, src
	}

	// Equal terms are adjacent in src now. remap[refOff[m]+l] becomes the
	// union ID of member m's local ID l; src[:nu] the first reference to each
	// union term.
	remap := make([]uint32, nRefs)
	nu := 0
	var prev *rdf.Term
	for _, r := range src {
		if t := &dicts[r.member][r.local]; prev == nil || *t != *prev {
			src[nu] = r
			nu++
			prev = t
		}
		remap[refOff[r.member]+int(r.local)] = uint32(nu - 1)
	}
	terms := make([]rdf.Term, nu)
	for u, r := range src[:nu] {
		terms[u] = dicts[r.member][r.local]
	}

	tris := make([][3]uint32, nRows)
	par.Do(len(members), workers, func(m int) {
		to, out := remap[refOff[m]:refOff[m+1]], tris[rowOff[m]:rowOff[m+1]]
		for i, t := range members[m].Tris {
			out[i] = [3]uint32{to[t[0]], to[t[1]], to[t[2]]}
		}
	})

	var st SegStats
	var bloom Bloom
	par.Do(2, workers, func(half int) {
		if half == 0 {
			bloom = termBloom(terms)
		} else {
			st = rowStats(terms, sortDedupTriples(tris, len(terms)))
		}
	})
	st.Bloom = bloom
	return st
}

// mergeRefs merges two runs of references, each ascending by the term it
// names, into dst (as long as both together). It is stable — on equal terms
// a's reference goes first — and keeps duplicates.
func mergeRefs(dst, a, b []dictRef, dicts [][]rdf.Term) {
	k := 0
	for len(a) > 0 && len(b) > 0 {
		if rdf.TermLess(dicts[b[0].member][b[0].local], dicts[a[0].member][a[0].local]) {
			dst[k], b = b[0], b[1:]
		} else {
			dst[k], a = a[0], a[1:]
		}
		k++
	}
	k += copy(dst[k:], a)
	copy(dst[k:], b)
}

// encode renders the canonical stats frame payload.
func (st *SegStats) encode() []byte {
	size := len(staMagic) + 2 + 4*binary.MaxVarintLen64 + len(st.Bloom.Bits)
	for c := 0; c < 3; c++ {
		size += termBound(st.Min[c]) + termBound(st.Max[c])
	}
	for _, p := range st.Preds {
		size += termBound(p)
	}
	var b bytes.Buffer
	b.Grow(size)
	b.Write(staMagic)
	putUvarint(&b, st.Triples)
	putUvarint(&b, st.Terms)
	var flags byte
	for c := 0; c < 3; c++ {
		if st.ZoneOK[c] {
			flags |= staZoneS << c
		}
	}
	if st.Preds != nil {
		flags |= staPreds
	}
	if !st.Bloom.Empty() {
		flags |= staBloom
	}
	b.WriteByte(flags)
	for c := 0; c < 3; c++ {
		if st.ZoneOK[c] {
			putTerm(&b, st.Min[c])
			putTerm(&b, st.Max[c])
		}
	}
	if st.Preds != nil {
		putUvarint(&b, uint64(len(st.Preds)))
		for _, p := range st.Preds {
			putTerm(&b, p)
		}
	}
	if !st.Bloom.Empty() {
		b.WriteByte(st.Bloom.K)
		putUvarint(&b, uint64(len(st.Bloom.Bits)))
		b.Write(st.Bloom.Bits)
	}
	return b.Bytes()
}

// parseStatsPayload decodes a stats frame payload (after the CRC check).
func parseStatsPayload(p []byte) (SegStats, error) {
	var st SegStats
	if !bytes.HasPrefix(p, staMagic) {
		return st, fmt.Errorf("missing stats magic")
	}
	p = p[len(staMagic):]
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
	if flags&^(staZoneS|staZoneP|staZoneO|staPreds|staBloom) != 0 {
		return st, fmt.Errorf("unknown stats flags %#02x", flags)
	}
	for c := 0; c < 3; c++ {
		if flags&(staZoneS<<c) == 0 {
			continue
		}
		st.ZoneOK[c] = true
		if st.Min[c], p, err = getTerm(p); err != nil {
			return st, fmt.Errorf("zone %d min: %v", c, err)
		}
		if st.Max[c], p, err = getTerm(p); err != nil {
			return st, fmt.Errorf("zone %d max: %v", c, err)
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
		for i := uint64(0); i < n; i++ {
			var t rdf.Term
			if t, p, err = getTerm(p); err != nil {
				return st, fmt.Errorf("predicate %d: %v", i, err)
			}
			st.Preds = append(st.Preds, t)
		}
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

// putTerm serializes one term (kind, value, and literal tags).
func putTerm(b *bytes.Buffer, t rdf.Term) {
	b.WriteByte(byte(t.Kind))
	putUvarint(b, uint64(len(t.Value)))
	b.WriteString(t.Value)
	if t.Kind == rdf.LiteralTerm {
		putUvarint(b, uint64(len(t.Lang)))
		b.WriteString(t.Lang)
		putUvarint(b, uint64(len(t.Datatype)))
		b.WriteString(t.Datatype)
	}
}

// termBound is an upper bound on the bytes putTerm writes for t.
func termBound(t rdf.Term) int {
	return 1 + 3*binary.MaxVarintLen64 + len(t.Value) + len(t.Lang) + len(t.Datatype)
}

// getTerm deserializes one putTerm-encoded term.
func getTerm(p []byte) (rdf.Term, []byte, error) {
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
	if t.Value, p, err = getString(p); err != nil {
		return t, nil, err
	}
	if t.Kind == rdf.LiteralTerm {
		if t.Lang, p, err = getString(p); err != nil {
			return t, nil, err
		}
		if t.Datatype, p, err = getString(p); err != nil {
			return t, nil, err
		}
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
		if !st.Bloom.Has(*t) {
			return false
		}
		if !st.inZone(c, *t) {
			return false
		}
	}
	return true
}

// CanContainNode reports whether the term could appear in the segment's
// subject or object column — the probe the pruned lineage traversal uses for
// frontier nodes (edges and annotations both touch a node as S or O).
func (st *SegStats) CanContainNode(t rdf.Term) bool {
	if st.Triples == 0 {
		return false
	}
	if !st.Bloom.Has(t) {
		return false
	}
	return st.inZone(0, t) || st.inZone(2, t)
}

// StatsOf extracts the embedded stats frame of a binary segment file.
// ok is false for legacy (pre-stats), non-binary, or damaged files — the
// always-match answer, so callers degrade to decoding.
func StatsOf(data []byte) (SegStats, bool) {
	payload, _, ok := statsSplit(data)
	if !ok {
		return SegStats{}, false
	}
	st, err := parseStatsPayload(payload)
	if err != nil {
		return SegStats{}, false
	}
	return st, true
}

// statsSplit locates the stats frame of a binary segment: payload is the
// frame payload, off the byte offset where the frame starts. ok is false
// when no structurally valid stats frame is present.
func statsSplit(data []byte) (payload []byte, off int, ok bool) {
	_, rest, err := pbsBody(data)
	if err != nil {
		return nil, 0, false
	}
	if _, rest, _ = readFrame(rest); rest == nil {
		return nil, 0, false
	}
	if _, rest, _ = readFrame(rest); rest == nil {
		return nil, 0, false
	}
	off = len(data) - len(rest)
	payload, _, err = readFrame(rest)
	if err != nil || !bytes.HasPrefix(payload, staMagic) {
		return nil, 0, false
	}
	return payload, off, true
}

// StripStats returns data without its embedded stats frame (data itself when
// none is present) — the pre-stats payload form, used by canonicality checks
// that compare across format generations.
func StripStats(data []byte) []byte {
	payload, off, ok := statsSplit(data)
	if !ok {
		return data
	}
	var lenBytes bytes.Buffer
	putUvarint(&lenBytes, uint64(len(payload)))
	frameLen := lenBytes.Len() + len(payload) + 4
	out := make([]byte, 0, len(data)-frameLen)
	out = append(out, data[:off]...)
	out = append(out, data[off+frameLen:]...)
	return out
}
