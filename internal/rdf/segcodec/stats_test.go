package segcodec

import (
	"bytes"
	"errors"
	"fmt"
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
// for randomized graphs, every term actually present in a column must pass
// CanMatch when probed in that position — a stats block may only ever say
// "definitely absent" about terms that are absent.
func TestStatsNeverFalseNegative(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 3+rng.Intn(80))
		st, _ := statsOfGraph(t, g)
		for _, tr := range g.Triples() {
			s, p, o := tr.S, tr.P, tr.O
			if !st.CanMatch(&s, nil, nil) {
				t.Fatalf("seed %d: subject %v pruned despite being present", seed, s)
			}
			if !st.CanMatch(nil, &p, nil) {
				t.Fatalf("seed %d: predicate %v pruned despite being present", seed, p)
			}
			if !st.CanMatch(nil, nil, &o) {
				t.Fatalf("seed %d: object %v pruned despite being present", seed, o)
			}
			if !st.CanMatch(&s, &p, &o) {
				t.Fatalf("seed %d: full triple pruned despite being present", seed)
			}
			if !st.CanContainNode(s) || !st.CanContainNode(o) {
				t.Fatalf("seed %d: node probe pruned a present S/O term", seed)
			}
		}
		if !st.CanMatch(nil, nil, nil) && g.Len() > 0 {
			t.Fatalf("seed %d: wildcard pattern pruned a non-empty segment", seed)
		}
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
	if st.CanContainNode(absentNode) {
		t.Error("absent node not pruned by the node probe")
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
	legacyLen := len(StripStats(good))
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
	forged := appendFrame(append([]byte{}, StripStats(good)...), otherStats)
	err := Binary.Decode(bytes.NewReader(forged), rdf.NewGraph())
	if err == nil {
		t.Fatal("decode accepted a spliced stats frame from another segment")
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("error %v does not wrap ErrCorrupt", err)
	}
}

// TestStatsLegacySegmentsAlwaysMatch: files without a stats frame (pre-stats
// .pbs, text formats) must answer "could match" so pruning degrades to
// decoding, never to dropping.
func TestStatsLegacySegmentsAlwaysMatch(t *testing.T) {
	legacy := StripStats(validSegment(t))
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

// randDictionary draws n distinct terms with everything termBloom's kernel
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
// by term, bit for bit: on sorted dictionaries of 1 to 5 terms and of
// hundreds, and — the kernel reads order only for speed — on shuffled ones.
func TestTermBloomMatchesAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	if got := termBloom(nil); !bytes.Equal(got.Bits, newBloom(0).Bits) || got.K != bloomHashes {
		t.Fatalf("empty dictionary: K=%d, %d filter bytes", got.K, len(got.Bits))
	}
	for round := 0; round < 3000; round++ {
		n := 1 + rng.Intn(5)
		if round%10 == 0 {
			n = 1 + rng.Intn(700)
		}
		terms := randDictionary(rng, n)
		if round%4 != 3 {
			sort.Slice(terms, func(i, j int) bool { return rdf.TermLess(terms[i], terms[j]) })
		}
		want := newBloom(len(terms))
		for _, tm := range terms {
			want.Add(tm)
		}
		got := termBloom(terms)
		if got.K != want.K || !bytes.Equal(got.Bits, want.Bits) {
			t.Fatalf("round %d, %d terms: the kernel's filter differs from Add's\n%v", round, len(terms), terms)
		}
	}
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
			termBloom(terms)
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
