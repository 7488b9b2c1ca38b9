package segcodec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/hpc-io/prov-io/internal/rdf"
)

// statsOfGraph encodes a graph and extracts the embedded stats frame.
func statsOfGraph(t *testing.T, g *rdf.Graph) (SegStats, []byte) {
	t.Helper()
	var buf bytes.Buffer
	if err := Binary.Encode(&buf, g, nil); err != nil {
		t.Fatal(err)
	}
	st, ok := StatsOf(buf.Bytes())
	if !ok {
		t.Fatal("freshly encoded segment carries no stats frame")
	}
	return st, buf.Bytes()
}

// TestStatsNeverFalseNegative is the soundness property pruning rests on:
// for randomized segments, in both frame generations and read back from the
// frame's bytes, every term actually present in a column must pass CanMatch
// when probed in that position — a stats block may only ever say
// "definitely absent" about terms that are absent. The objects include numeric literals up to both int64 bounds, and
// xsd:integer text no int64 spells canonically ("-0", "007", "+5"), which a
// generation 2 frame keeps in its Bloom filter. A numeric literal outside a
// generation 2 frame's range answers false.
func TestStatsNeverFalseNegative(t *testing.T) {
	integer := func(v string) rdf.Term { return rdf.TypedLiteral(v, rdf.XSDInteger) }
	edges := []rdf.Term{rdf.Integer(math.MinInt64), rdf.Integer(math.MaxInt64), rdf.Integer(0), rdf.Integer(-1),
		integer("-0"), integer("007"), integer("+5"), integer("9223372036854775808")}
	outside := 0
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 3+rng.Intn(80))
		for i := rng.Intn(12); i > 0; i-- {
			o := rdf.Integer(rng.Int63n(2000) - 1000)
			if rng.Intn(3) == 0 {
				o = edges[rng.Intn(len(edges))]
			}
			g.Add(rdf.Triple{S: rdf.IRI(fmt.Sprintf("urn:n%d", rng.Intn(5))), P: rdf.IRI("urn:at"), O: o})
		}
		c := GraphColumns(g)
		tris := sortDedupTriples(c.Tris, len(c.Terms))
		for _, computed := range []SegStats{legacyStats(c.Terms, tris), ComputeStats(c.Terms, tris)} {
			gen := computed.Gen
			st, err := parseStatsPayload(computed.encode())
			if err != nil {
				t.Fatalf("seed %d, generation %d: %v", seed, gen, err)
			}
			for _, tr := range g.Triples() {
				s, p, o := tr.S, tr.P, tr.O
				if !st.CanMatch(&s, nil, nil) {
					t.Fatalf("seed %d, generation %d: subject %v pruned despite being present", seed, gen, s)
				}
				if !st.CanMatch(nil, &p, nil) {
					t.Fatalf("seed %d, generation %d: predicate %v pruned despite being present", seed, gen, p)
				}
				if !st.CanMatch(nil, nil, &o) {
					t.Fatalf("seed %d, generation %d: object %v pruned despite being present", seed, gen, o)
				}
				if !st.CanMatch(&s, &p, &o) {
					t.Fatalf("seed %d, generation %d: full triple pruned despite being present", seed, gen)
				}
			}
			if !st.CanMatch(nil, nil, nil) && g.Len() > 0 {
				t.Fatalf("seed %d, generation %d: wildcard pattern pruned a non-empty segment", seed, gen)
			}
			if gen == staGenBloom || !st.NumOK {
				continue
			}
			for _, v := range []int64{st.NumMin - 1, st.NumMax + 1} {
				if v < st.NumMin || v > st.NumMax { // not wrapped into a range that spans int64
					x := rdf.Integer(v)
					if st.CanMatch(nil, nil, &x) {
						t.Fatalf("seed %d: %d outside the range [%d, %d] not pruned", seed, v, st.NumMin, st.NumMax)
					}
					outside++
				}
			}
		}
	}
	if outside == 0 {
		t.Fatal("no segment had a range to probe outside of")
	}
}

// TestStatsPrunesAbsent checks the useful direction on a controlled graph:
// terms far outside the segment are pruned by zone map or predicate list.
func TestStatsPrunesAbsent(t *testing.T) {
	g := rdf.NewGraph()
	g.Add(rdf.Triple{S: rdf.IRI("urn:m/a"), P: rdf.IRI("urn:p1"), O: rdf.IRI("urn:m/b")})
	g.Add(rdf.Triple{S: rdf.IRI("urn:m/c"), P: rdf.IRI("urn:p2"), O: rdf.Literal("x")})
	st, _ := statsOfGraph(t, g)

	absentPred := rdf.IRI("urn:never")
	if st.CanMatch(nil, &absentPred, nil) {
		t.Error("absent predicate not pruned by the distinct-predicate list")
	}
	absentNode := rdf.IRI("urn:zzzz/way-past-the-zone")
	if st.CanMatch(&absentNode, nil, nil) {
		t.Error("absent subject not pruned")
	}

	empty, _ := statsOfGraph(t, rdf.NewGraph())
	someIRI := rdf.IRI("urn:m/a")
	if empty.CanMatch(nil, nil, nil) || empty.CanMatch(&someIRI, nil, nil) {
		t.Error("empty segment must match nothing")
	}
}

// TestStatsRoundTrip: the stats payload encoding is self-inverse and strict
// about trailing garbage.
func TestStatsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := randomGraph(rng, 64)
	st, _ := statsOfGraph(t, g)
	enc := st.encode()
	back, err := parseStatsPayload(enc)
	if err != nil {
		t.Fatal(err)
	}
	if re := back.encode(); !bytes.Equal(re, enc) {
		t.Fatal("stats payload does not round-trip byte-identically")
	}
	if _, err := parseStatsPayload(append(enc, 0)); err == nil {
		t.Fatal("trailing byte after stats payload accepted")
	}
}

// TestStatsFrameCorruptionMatrix is the corruption-matrix entry for the new
// frame: flipping any bit of the stats frame must yield a classified
// ErrCorrupt from Decode and an always-match (ok=false) answer from StatsOf
// — never wrong stats, never a panic.
func TestStatsFrameCorruptionMatrix(t *testing.T) {
	good := validSegment(t)
	legacyLen := len(stripStats(good))
	if legacyLen == len(good) {
		t.Fatal("segment carries no stats frame")
	}
	want, ok := StatsOf(good)
	if !ok {
		t.Fatal("intact segment must expose stats")
	}
	for off := legacyLen; off < len(good); off++ {
		for bit := uint(0); bit < 8; bit++ {
			mut := append([]byte{}, good...)
			mut[off] ^= 1 << bit
			if st, ok := StatsOf(mut); ok {
				// The CRC covers the whole frame, so any accepted read must
				// be byte-identical stats — and a flip inside the frame that
				// still reads back the same stats cannot happen.
				if !bytes.Equal(st.encode(), want.encode()) {
					t.Fatalf("offset %d bit %d: corrupted stats accepted with different contents", off, bit)
				}
			}
			err := Binary.Decode(bytes.NewReader(mut), rdf.NewGraph())
			if err == nil {
				t.Fatalf("offset %d bit %d: decode accepted a flipped stats frame", off, bit)
			}
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("offset %d bit %d: error %v does not wrap ErrCorrupt", off, bit, err)
			}
		}
	}
}

// TestStatsForgedCanonicalFrameRejected: a structurally valid stats frame
// that does not match the segment contents (here: spliced from a different
// segment, CRC re-framed correctly) must be rejected by Decode — stats can
// never make a reader believe wrong things about a decodable segment.
func TestStatsForgedCanonicalFrameRejected(t *testing.T) {
	good := validSegment(t)
	other := rdf.NewGraph()
	other.Add(rdf.Triple{S: rdf.IRI("urn:q"), P: rdf.IRI("urn:q"), O: rdf.Literal("q")})
	var otherBuf bytes.Buffer
	if err := Binary.Encode(&otherBuf, other, nil); err != nil {
		t.Fatal(err)
	}
	otherStats, _, ok := statsSplit(otherBuf.Bytes())
	if !ok {
		t.Fatal("no stats frame in donor segment")
	}
	forged := appendFrame(append([]byte{}, stripStats(good)...), otherStats)
	err := Binary.Decode(bytes.NewReader(forged), rdf.NewGraph())
	if err == nil {
		t.Fatal("decode accepted a spliced stats frame from another segment")
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("error %v does not wrap ErrCorrupt", err)
	}
}

// staFrame is a generation 2 stats frame payload field by field, every field
// written as given: each zoned column's Min and its Max front-coded against
// it, each predicate front-coded against the one before it.
type staFrame struct {
	triples, terms uint64
	flags          byte
	zones          []staZone
	preds          []v4Entry
	numMin         int64
	span           uint64
	bloom          Bloom
}

// staZone is one zone map of a staFrame: Min whole, Max as its kind and tags
// and the front-coded value.
type staZone struct {
	min, max rdf.Term
	shared   int
	suffix   string
}

// frameOf spells stats canonically as a staFrame.
func frameOf(st SegStats) staFrame {
	f := staFrame{triples: st.Triples, terms: st.Terms, numMin: st.NumMin,
		span: uint64(st.NumMax) - uint64(st.NumMin), bloom: st.Bloom, flags: staBloom}
	for c := 0; c < 3; c++ {
		if st.ZoneOK[c] {
			f.flags |= staZoneS << c
			shared := commonPrefixLen(st.Min[c].Value, st.Max[c].Value)
			f.zones = append(f.zones, staZone{st.Min[c], st.Max[c], shared, st.Max[c].Value[shared:]})
		}
	}
	if st.Preds != nil {
		f.flags |= staPreds
	}
	prev := ""
	for _, p := range st.Preds {
		shared := commonPrefixLen(prev, p.Value)
		f.preds = append(f.preds, text(shared, p.Value[shared:]))
		prev = p.Value
	}
	if st.NumOK {
		f.flags |= staNums
	}
	return f
}

func (f staFrame) bytes() []byte {
	b := append(append([]byte{}, staTag...), staGenRange)
	b = binary.AppendUvarint(b, f.triples)
	b = binary.AppendUvarint(b, f.terms)
	b = append(b, f.flags)
	for _, z := range f.zones {
		b = append(appendTerm(b, z.min), byte(z.max.Kind))
		b = binary.AppendUvarint(b, uint64(z.shared))
		b = binary.AppendUvarint(b, uint64(len(z.suffix)))
		b = append(b, z.suffix...)
		if z.max.Kind == rdf.LiteralTerm {
			b = appendTag(b, tagOf(&z.max))
		}
	}
	if f.flags&staPreds != 0 {
		b = binary.AppendUvarint(b, uint64(len(f.preds)))
		for _, p := range f.preds {
			b = binary.AppendUvarint(b, uint64(p.shared))
			b = binary.AppendUvarint(b, uint64(len(p.suffix)))
			b = append(b, p.suffix...)
		}
	}
	if f.flags&staNums != 0 {
		b = binary.AppendVarint(b, f.numMin)
		b = binary.AppendUvarint(b, f.span)
	}
	if f.flags&staBloom != 0 {
		b = append(b, f.bloom.K)
		b = binary.AppendUvarint(b, uint64(len(f.bloom.Bits)))
		b = append(b, f.bloom.Bits...)
	}
	return b
}

// staCases are the tamper shapes of the generation 2 stats frame, over the
// segment
//
//	<urn:s/1> <urn:p/a> "5"^^xsd:integer     zone S: <urn:s/1> .. <urn:s/2>
//	<urn:s/1> <urn:p/b> "x"                  zone P: <urn:p/a> .. <urn:p/b>
//	<urn:s/2> <urn:p/a> "-3"^^xsd:integer    zone O: <urn:s/1> .. "x"
//	<urn:s/2> <urn:p/b> <urn:s/1>            range -3 .. 5, a filter over 5 terms
//
// spelled canonically once and then with one rule broken at a time, and one
// over a segment without numeric literals.
func staCases(t *testing.T) []blockCase {
	s1, s2, pa, pb := rdf.IRI("urn:s/1"), rdf.IRI("urn:s/2"), rdf.IRI("urn:p/a"), rdf.IRI("urn:p/b")
	g := rdf.NewGraph()
	g.AddBatch([]rdf.Triple{{S: s1, P: pa, O: rdf.Integer(5)}, {S: s1, P: pb, O: rdf.Literal("x")},
		{S: s2, P: pa, O: rdf.Integer(-3)}, {S: s2, P: pb, O: s1}})
	framed := func(g *rdf.Graph) (dict, cols []byte, st SegStats) {
		var buf bytes.Buffer
		if err := Binary.Encode(&buf, g, nil); err != nil {
			t.Fatal(err)
		}
		_, rest, _ := pbsBody(buf.Bytes())
		dict, rest, _ = readFrame(rest)
		cols, rest, _ = readFrame(rest)
		sta, _, _ := readFrame(rest)
		if st, err := parseStatsPayload(sta); err != nil || !bytes.Equal(frameOf(st).bytes(), sta) {
			t.Fatalf("frameOf does not spell the encoder's frame (%v)", err)
		}
		st, _ = parseStatsPayload(sta)
		return dict, cols, st
	}
	dict, cols, st := framed(g)
	build := func(name, want string, edit func(f *staFrame)) blockCase {
		f := frameOf(st)
		edit(&f)
		return blockCase{name, want, handFramedStats(PBSVersion, dict, cols, f.bytes())}
	}
	plain := rdf.NewGraph()
	plain.Add(rdf.Triple{S: s1, P: pa, O: rdf.Literal("x")})
	plainDict, plainCols, plainSt := framed(plain)
	everyTerm := legacyStats([]rdf.Term{pa, pb, s1, s2, rdf.Integer(-3), rdf.Integer(5), rdf.Literal("x")}, nil).Bloom
	generation1 := legacyStats([]rdf.Term{pa, pb, s1, s2, rdf.Integer(-3), rdf.Integer(5), rdf.Literal("x")},
		[][3]uint32{{2, 0, 5}, {2, 1, 6}, {3, 0, 4}, {3, 1, 2}})
	return []blockCase{
		build("canonical", "", func(*staFrame) {}),
		build("Max's prefix shorter than the longest", "zone 0 max: shared prefix 5 is not the longest", func(f *staFrame) {
			f.zones[0].shared, f.zones[0].suffix = 5, "/2"
		}),
		build("Max's prefix past Min", "zone 0 max: shared prefix 8 exceeds previous value length 7", func(f *staFrame) {
			f.zones[0].shared, f.zones[0].suffix = 8, ""
		}),
		build("Max sorts before Min", "zone 0: max sorts before min", func(f *staFrame) {
			f.zones[0].min, f.zones[0].max, f.zones[0].suffix = s2, s1, "1"
		}),
		build("predicate's prefix shorter than the longest", "predicate 1: shared prefix 5 is not the longest", func(f *staFrame) {
			f.preds[1] = text(5, "/b")
		}),
		build("first predicate's prefix past \"\"", "predicate 0: shared prefix 1 exceeds previous value length 0", func(f *staFrame) {
			f.preds[0] = text(1, "rn:p/a")
		}),
		build("predicates descend", "predicate 1: predicate list is not strictly ascending", func(f *staFrame) {
			f.preds = []v4Entry{text(0, "urn:p/b"), text(6, "a")}
		}),
		build("numeric literals without a range", "no numeric range over a segment with numeric literals", func(f *staFrame) {
			f.flags &^= staNums
		}),
		build("range max past int64", "numeric range max overflows int64", func(f *staFrame) {
			f.span = math.MaxUint64 // max = min - 1, modulo 2⁶⁴
		}),
		build("range narrower than the literals", "numeric range [-2, 5], the segment's is [-3, 5]", func(f *staFrame) {
			f.numMin, f.span = -2, 7
		}),
		build("filter over every term", "bloom of 16 bytes, the segment's terms size it 8", func(f *staFrame) {
			f.bloom = everyTerm
		}),
		build("unknown flag bit", "unknown stats flags 0x7f", func(f *staFrame) {
			f.flags |= 0x40
		}),
		{"generation 1 frame", "a pbs v5 file carries generation 2 only", handFramedStats(PBSVersion, dict, cols, generation1.encode())},
		{"range over a segment without numeric literals", "numeric range over a segment without numeric literals", func() []byte {
			f := frameOf(plainSt)
			f.flags |= staNums
			return handFramedStats(PBSVersion, plainDict, plainCols, f.bytes())
		}()},
	}
}

// TestDecodeRejectsHostileStatsFrame: the generation 2 stats frame is
// canonical by rejection — by its own rules, or by the contents' — and the
// reference encoder writes its canonical spelling too.
func TestDecodeRejectsHostileStatsFrame(t *testing.T) {
	cases := staCases(t)
	checkBlockCases(t, "stats frame", cases)
	c, err := DecodeColumns(cases[0].data)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Stats.NumOK || c.Stats.NumMin != -3 || c.Stats.NumMax != 5 {
		t.Fatalf("premise: the canonical frame ranges over [-3, 5], not %+v", c.Stats)
	}
	var ref bytes.Buffer
	if err := oracleWriteSegment(&ref, c.Terms, c.Tris); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ref.Bytes(), cases[0].data) {
		t.Fatal("the reference encoder spells the canonical frame otherwise")
	}
}

// TestStatsLegacySegmentsAlwaysMatch: files without a stats frame (pbs v1
// from before the frame existed, text formats) must answer "could match" so
// pruning degrades to decoding, never to dropping.
func TestStatsLegacySegmentsAlwaysMatch(t *testing.T) {
	c, err := DecodeColumns(validSegment(t))
	if err != nil {
		t.Fatal(err)
	}
	legacy := stripStats(segmentOf(1, c.Terms, c.Tris))
	if old, err := DecodeColumns(legacy); err != nil || old.Stats != nil {
		t.Fatalf("a version 1 segment without a stats frame: %v", err)
	}
	if _, ok := StatsOf(legacy); ok {
		t.Fatal("legacy segment without a stats frame reported stats")
	}
	if _, ok := StatsOf([]byte("<urn:a> <urn:p> <urn:b> .\n")); ok {
		t.Fatal("text file reported stats")
	}
	// Sealed legacy file: chain frame present, no stats frame.
	sealedLegacy := AppendChain(legacy, Chain{Seq: 1, Prev: [32]byte{4}})
	if _, ok := StatsOf(sealedLegacy); ok {
		t.Fatal("sealed legacy segment reported stats")
	}
	if _, ok := ChainOf(sealedLegacy); !ok {
		t.Fatal("chain seal lost on a legacy segment")
	}
	// And the seal still resolves when a stats frame IS present.
	sealedNew := AppendChain(validSegment(t), Chain{Seq: 2, Prev: [32]byte{5}})
	if ch, ok := ChainOf(sealedNew); !ok || ch.Seq != 2 {
		t.Fatal("chain seal not found behind the stats frame")
	}
	if _, ok := StatsOf(sealedNew); !ok {
		t.Fatal("stats frame not found on a sealed segment")
	}
	if !bytes.Equal(StripChain(sealedNew), validSegment(t)) {
		t.Fatal("StripChain must preserve the stats frame")
	}
}

// TestBloomNoFalseNegatives hammers the filter directly.
func TestBloomNoFalseNegatives(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomGraph(rng, 300)
	terms, _ := oracleTermTriples(g.Triples())
	b := newBloom(len(terms))
	for _, tm := range terms {
		b.Add(tm)
	}
	for _, tm := range terms {
		if !b.Has(tm) {
			t.Fatalf("bloom false negative for %v", tm)
		}
	}
	// False-positive rate sanity: far-away terms should mostly miss.
	misses := 0
	const probes = 1000
	for i := 0; i < probes; i++ {
		if !b.Has(rdf.IRI(string(rune('a'+i%26)) + "://absent.example/" + string(rune('0'+i%10)))) {
			misses++
		}
	}
	if misses < probes/2 {
		t.Errorf("bloom rejects only %d/%d absent terms — filter is saturated", misses, probes)
	}
}

// randDictionary draws n distinct terms with everything the filter kernel
// keys on: values sharing prefixes within a kind and across kinds, a value
// that is a prefix of the next, empty values, long values, a handful of
// (lang, datatype) pairs in runs shorter and longer than the kernel's four
// lanes, and kinds changing where the values do not.
func randDictionary(rng *rand.Rand, n int) []rdf.Term {
	stems := []string{"", "a", "http://x/api/H5Dwrite-p0-b", "http://x/api/H5Dwrite-p0-b1", "1000", "\xff\x00",
		strings.Repeat("/long/component", 1+rng.Intn(20))}
	tags := [][2]string{{"", ""}, {"", rdf.XSDInteger}, {"", rdf.XSDDouble}, {"fr", ""}, {"en", ""}, {"e", "n"}, {"", "en"}}
	seen := map[rdf.Term]bool{}
	var out []rdf.Term
	for len(out) < n {
		t := rdf.Term{Kind: rdf.TermKind(1 + rng.Intn(3)), Value: stems[rng.Intn(len(stems))]}
		for k := rng.Intn(4); k > 0; k-- {
			t.Value += string(rune('0' + rng.Intn(3)))
		}
		if t.Kind == rdf.LiteralTerm || rng.Intn(8) == 0 { // tags on an IRI: hashed all the same
			tag := tags[rng.Intn(len(tags))]
			t.Lang, t.Datatype = tag[0], tag[1]
		}
		if !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	return out
}

// TestTermBloomMatchesAdd holds the filter kernel to its definition, Add term
// by term, bit for bit — over every term, and over every term but the
// numeric literals: on sorted dictionaries of 1 to 5 terms and of hundreds,
// and — the kernel reads order only for speed — on shuffled ones.
func TestTermBloomMatchesAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	skipped := 0
	for round := 0; round < 3000; round++ {
		n := 1 + rng.Intn(5)
		if round%10 == 0 {
			n = 1 + rng.Intn(700)
		}
		terms := randDictionary(rng, n)
		if round%4 != 3 {
			sort.Slice(terms, func(i, j int) bool { return rdf.TermLess(terms[i], terms[j]) })
		}
		for _, skip := range [][]uint64{nil, numericBits(terms)} {
			want := newBloom(len(terms))
			for i, tm := range terms {
				if skip == nil || skip[i/64]&(1<<(i%64)) == 0 {
					want.Add(tm)
				} else {
					skipped++
				}
			}
			got := newBloom(len(terms))
			got.addTerms(terms, skip)
			if !bytes.Equal(got.Bits, want.Bits) {
				t.Fatalf("round %d, %d terms, numeric literals skipped %v: the kernel's filter differs from Add's\n%v", round, len(terms), skip != nil, terms)
			}
		}
	}
	if skipped == 0 {
		t.Fatal("no dictionary held a numeric literal")
	}
}

// numericBits marks the numeric literals among terms, a bit per term.
func numericBits(terms []rdf.Term) []uint64 {
	bits := make([]uint64, (len(terms)+63)/64)
	new(SegStats).markNumeric(terms, bits, nil)
	return bits
}

// BenchmarkTermBloom builds the filter of one h5bench-shaped delta dictionary
// (about 1 550 terms: minted activity IRIs and their two integer literals).
func BenchmarkTermBloom(b *testing.B) {
	var terms []rdf.Term
	for i := 0; i < 512; i++ {
		terms = append(terms,
			rdf.IRI(fmt.Sprintf("https://github.com/hpc-io/prov-io/ns#api/H5Dwrite-p3-b%d", i+1)),
			rdf.Integer(int64(100000+7919*i%900000)),
			rdf.Integer((time.Duration(i) * time.Millisecond).Nanoseconds()))
	}
	for i := 0; i < 20; i++ {
		terms = append(terms, rdf.IRI(fmt.Sprintf("https://github.com/hpc-io/prov-io/ns#vocab%d", i)))
	}
	sort.Slice(terms, func(i, j int) bool { return rdf.TermLess(terms[i], terms[j]) })
	terms = slices.Compact(terms)
	b.Run("kernel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			newBloom(len(terms)).addTerms(terms, nil)
		}
	})
	// What a generation 2 frame hashes: the IRIs, the integers left out.
	numeric := numericBits(terms)
	b.Run("non-numeric", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			newBloom(len(terms)).addTerms(terms, numeric)
		}
	})
	b.Run("add", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			f := newBloom(len(terms))
			for _, t := range terms {
				f.Add(t)
			}
		}
	})
}
