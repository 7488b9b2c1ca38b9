package segcodec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/hpc-io/prov-io/internal/rdf"
)

// handBuiltSegment serializes a dictionary and rows that need not be
// canonical. writeSegment front-codes and delta-codes whatever order it is
// given (a subject or predicate that descends wraps to a delta no decoder
// accepts) and derives the stats frame from the same arrays, so the result
// has valid CRCs and a self-consistent stats frame — only the order is wrong.
func handBuiltSegment(t testing.TB, terms []rdf.Term, tris [][3]uint32) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := writeSegment(&buf, terms, tris); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// handFramedSegment frames a raw dictionary block and a raw triple block
// with the stats frame (terms, tris) derive — terms and tris being what the
// blocks mean to spell — so every CRC holds and the stats frame is
// self-consistent: only the blocks can be wrong.
func handFramedSegment(dict, cols []byte, terms []rdf.Term, tris [][3]uint32) []byte {
	st := ComputeStats(terms, tris)
	return handFramedStats(dict, cols, st.encode())
}

// handFramedStats frames a raw dictionary block, triple block and stats frame
// payload, every CRC valid.
func handFramedStats(dict, cols, sta []byte) []byte {
	out := append(append([]byte{}, pbsMagic...), pbsVersion)
	out = appendFrame(out, dict)
	out = appendFrame(out, cols)
	return appendFrame(out, sta)
}

// runsBlock is a triple block field by field, every list already
// delta-coded and written as given: shapes holds each shape's flat
// (predIndexDelta, count) pairs, runs each (subjectDelta, shapeIndex).
type runsBlock struct {
	n      uint64
	preds  []uint64
	shapes [][]uint64
	runs   [][2]uint64
	o      []int64
}

func (b runsBlock) bytes() []byte {
	out := binary.AppendUvarint(nil, b.n)
	out = binary.AppendUvarint(out, uint64(len(b.preds)))
	for _, d := range b.preds {
		out = binary.AppendUvarint(out, d)
	}
	out = binary.AppendUvarint(out, uint64(len(b.shapes)))
	for _, pairs := range b.shapes {
		out = binary.AppendUvarint(out, uint64(len(pairs)/2))
		for _, v := range pairs {
			out = binary.AppendUvarint(out, v)
		}
	}
	out = binary.AppendUvarint(out, uint64(len(b.runs)))
	for _, r := range b.runs {
		out = binary.AppendUvarint(out, r[0])
		out = binary.AppendUvarint(out, r[1])
	}
	for _, d := range b.o {
		out = binary.AppendVarint(out, d)
	}
	return out
}

// blockCase is one hand-built segment that breaks a rule of one block (want
// names the decoder's complaint), or none (want "").
type blockCase struct {
	name, want string
	data       []byte
}

// runsCases are the tamper shapes of the triple block over the
// dictionary <urn:a> <urn:b> <urn:p> <urn:q> _:x "1" "2" and eight rows:
//
//	a p "1", a p "2", a q <urn:b>   shape 0: (p, 2) (q, 1)
//	b p "1", b q <urn:a>            shape 1: (p, 1) (q, 1)
//	x p "1", x p "2", x q <urn:b>   shape 0
//
// spelled canonically once and then with one rule broken at a time.
func runsCases() []blockCase {
	terms := []rdf.Term{rdf.IRI("urn:a"), rdf.IRI("urn:b"), rdf.IRI("urn:p"), rdf.IRI("urn:q"),
		rdf.Blank("x"), rdf.Literal("1"), rdf.Literal("2")}
	tris := [][3]uint32{{0, 2, 5}, {0, 2, 6}, {0, 3, 1}, {1, 2, 5}, {1, 3, 0}, {4, 2, 5}, {4, 2, 6}, {4, 3, 1}}
	canon := func() runsBlock {
		return runsBlock{
			n:      8,
			preds:  []uint64{2, 1},
			shapes: [][]uint64{{0, 2, 1, 1}, {0, 1, 1, 1}},
			runs:   [][2]uint64{{0, 0}, {1, 1}, {3, 0}},
			o:      []int64{5, 1, 1, -1, -1, 0, 1, 1},
		}
	}
	dict := encodeDict(terms)
	framed := func(name, want string, cols []byte) blockCase {
		return blockCase{name, want, handFramedSegment(dict, cols, terms, tris)}
	}
	build := func(name, want string, edit func(b *runsBlock)) blockCase {
		b := canon()
		edit(&b)
		return framed(name, want, b.bytes())
	}
	// A block that ends at the shape count (or the run count), which lies.
	// tripleCount drops to a small lie, so that such a lie passes the bound
	// by the rows and only the payload bound refuses it.
	lying := func(name, want string, runs bool, count uint64) blockCase {
		b := canon()
		b.n = min(b.n, count)
		b.runs, b.o = nil, nil
		if !runs {
			b.shapes = nil
		}
		cols := b.bytes()
		cols = cols[:len(cols)-1] // nRuns = 0
		if !runs {
			cols = cols[:len(cols)-1] // nShapes = 0
		}
		return framed(name, want, binary.AppendUvarint(cols, count))
	}
	return []blockCase{
		build("canonical", "", func(*runsBlock) {}),
		build("predicate table repeats an entry", "predicate table is not strictly ascending", func(b *runsBlock) { b.preds[1] = 0 }),
		build("predicate is a blank node", "leaves the 4 IRIs", func(b *runsBlock) { b.preds[1] = 2 }),
		build("predicate no shape names", "predicate 0: no shape names it", func(b *runsBlock) {
			b.preds = []uint64{0, 2, 1}
			b.shapes = [][]uint64{{1, 2, 1, 1}, {1, 1, 1, 1}}
		}),
		build("duplicate shape", "shape 2 repeats an earlier shape", func(b *runsBlock) {
			b.shapes = append(b.shapes, b.shapes[0])
			b.runs[2][1] = 2
		}),
		build("shape used before a lower-numbered one", "run 0: shape 1 used before shape 0", func(b *runsBlock) {
			b.shapes[0], b.shapes[1] = b.shapes[1], b.shapes[0]
			b.runs = [][2]uint64{{0, 1}, {1, 0}, {3, 1}}
		}),
		build("shape no run uses", "shape 2: no run uses it", func(b *runsBlock) { b.shapes = append(b.shapes, []uint64{1, 1}) }),
		build("pairs not ascending", "pairs are not strictly ascending", func(b *runsBlock) { b.shapes[0] = []uint64{0, 2, 0, 1} }),
		build("pair with count zero", "count 0", func(b *runsBlock) { b.shapes[1] = []uint64{0, 0, 1, 1} }),
		build("empty shape", "0 pairs", func(b *runsBlock) { b.shapes[1] = nil }),
		build("pair index past the table", "predicate index out of range", func(b *runsBlock) { b.shapes[1] = []uint64{0, 1, 2, 1} }),
		build("subject repeats", "subjects are not strictly ascending", func(b *runsBlock) { b.runs[1][0] = 0 }),
		build("subject is a literal", "leaves the 5 IRIs and blank nodes", func(b *runsBlock) { b.runs[2][0] = 4 }),
		build("shape index past the table", "shape 2 out of range", func(b *runsBlock) { b.runs[2][1] = 2 }),
		build("runs hold fewer rows than counted", "runs hold 8 triples, count says 9", func(b *runsBlock) { b.n = 9 }),
		build("runs hold more rows than counted", "runs hold more than 7 triples", func(b *runsBlock) { b.n = 7 }),
		build("object past the dictionary", "O column at 0", func(b *runsBlock) { b.o[0] = 7 }),
		build("object below zero", "O column at 3", func(b *runsBlock) { b.o[3] = -7 }),
		build("object repeats in its (s, p) group", "triple 1 is not above its predecessor", func(b *runsBlock) { b.o[1] = 0 }),
		build("object descends in its (s, p) group", "triple 6 is not above its predecessor", func(b *runsBlock) { b.o[6] = -1 }),
		build("O column cut short", "O column at 7", func(b *runsBlock) { b.o = b.o[:7] }),
		build("trailing bytes", "1 trailing bytes", func(b *runsBlock) { b.o = append(b.o, 0) }),
		// Counts that lie about the payload: each is refused before anything
		// is sized by it.
		build("tripleCount past the payload", "triple count 4194304 exceeds payload", func(b *runsBlock) { b.n = 1 << 22 }),
		build("nPreds past the rows", "predicates for 8 triples", func(b *runsBlock) { b.preds = make([]uint64, 9) }),
		lying("nShapes past the rows", "1099511627776 shapes for 8 triples exceed payload", false, 1<<40),
		lying("nShapes past the payload", "4 shapes for 4 triples exceed payload", false, 4),
		lying("nRuns past the rows", "1099511627776 runs for 8 triples exceed payload", true, 1<<40),
		lying("nRuns past the payload", "8 runs for 8 triples exceed payload", true, 8),
	}
}

// checkBlockCases decodes hand-built segments the first of which is
// canonical and every other of which breaks one rule of one block. Each
// broken rule is an ErrCorrupt from that block naming the rule, behind valid
// CRCs and a self-consistent stats frame, with nothing left in the caller's
// graph, no panic, and no allocation sized by a count the payload does not
// back. The canonical spelling decodes and is what Binary.Encode writes.
func checkBlockCases(t *testing.T, block string, cases []blockCase) {
	t.Helper()
	for i, tc := range cases {
		into := rdf.NewGraph()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := Binary.Decode(bytes.NewReader(tc.data), into)
		runtime.ReadMemStats(&after)
		if allocated := after.TotalAlloc - before.TotalAlloc; allocated > 1<<20 {
			t.Errorf("%s: decoding %d bytes allocated %d", tc.name, len(tc.data), allocated)
		}
		if i == 0 {
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			var enc bytes.Buffer
			if err := Binary.Encode(&enc, into, nil); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(enc.Bytes(), tc.data) {
				t.Fatalf("%s: the hand-built block is not what the encoder writes", tc.name)
			}
			continue
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Decode returned %v, want ErrCorrupt", tc.name, err)
			continue
		}
		if !strings.Contains(err.Error(), block) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: rejected with %q, want a %s complaint about %q", tc.name, err, block, tc.want)
		}
		if into.Len() != 0 || into.TermCount() != 0 {
			t.Errorf("%s: rejected segment left %d triples, %d terms behind", tc.name, into.Len(), into.TermCount())
		}
	}
}

// TestDecodeRejectsHostileRunsBlock: the triple block is canonical
// by rejection.
func TestDecodeRejectsHostileRunsBlock(t *testing.T) {
	checkBlockCases(t, "triple block", runsCases())
}

// manyTagsGraph holds n literals of one value, each under a language tag of
// its own: the dictionary whose tag table is as long as its literal run.
func manyTagsGraph(n int) *rdf.Graph {
	g := rdf.NewGraph()
	s, p := rdf.IRI("urn:s"), rdf.IRI("urn:p")
	batch := make([]rdf.Triple, n)
	for i := range batch {
		// Descending, so neither the literals nor their tags arrive sorted.
		batch[i] = rdf.Triple{S: s, P: p, O: rdf.LangLiteral("v", fmt.Sprintf("x-%06d", n-i))}
	}
	g.AddBatch(batch)
	return g
}

// TestManyTagsStayCheap: a hostile dictionary with 10⁵ language tags encodes
// and decodes in n log n — a table kept sorted by insertion, or searched
// linearly per literal, takes minutes here, not the fraction of a second this
// does — and round-trips like any other.
func TestManyTagsStayCheap(t *testing.T) {
	const n = 100_000
	g := manyTagsGraph(n)
	start := time.Now()
	var enc bytes.Buffer
	if err := Binary.Encode(&enc, g, nil); err != nil {
		t.Fatal(err)
	}
	c, err := DecodeColumns(enc.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > 20*time.Second {
		t.Errorf("encode + decode of %d tags took %v", n, took)
	}
	if len(c.Terms) != n+2 || len(c.Tris) != n {
		t.Fatalf("decoded %d terms, %d triples; want %d, %d", len(c.Terms), len(c.Tris), n+2, n)
	}
	var re bytes.Buffer
	if err := writeSegment(&re, c.Terms, c.Tris); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(re.Bytes(), enc.Bytes()) {
		t.Fatal("re-encoding the decoded columns does not reproduce the bytes")
	}
}

// zMP is the dictionary of the regression: <urn:z> before <urn:m>.
var zMP = []rdf.Term{rdf.IRI("urn:z"), rdf.IRI("urn:m"), rdf.IRI("urn:p")}

// TestDecodeRejectsNonAscendingDictionary: zone maps are read off dictionary
// positions, so a segment whose dictionary is out of order carries an
// inverted zone that prunes a subject the file holds. Such a segment — and
// one that lists a term twice — must not decode.
func TestDecodeRejectsNonAscendingDictionary(t *testing.T) {
	tris := [][3]uint32{{0, 2, 1}, {1, 2, 0}}
	// What accepting it would cost: the derived zone map excludes <urn:m>,
	// a subject of the second triple.
	st := ComputeStats(zMP, tris)
	m := rdf.IRI("urn:m")
	if st.CanMatch(&m, nil, nil) {
		t.Fatal("premise: the out-of-order dictionary should derive a zone that excludes urn:m")
	}
	for name, terms := range map[string][]rdf.Term{
		"unsorted":  zMP,
		"duplicate": {rdf.IRI("urn:m"), rdf.IRI("urn:m"), rdf.IRI("urn:p")},
	} {
		into := rdf.NewGraph()
		err := Binary.Decode(bytes.NewReader(handBuiltSegment(t, terms, tris)), into)
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s dictionary: Decode returned %v, want ErrCorrupt", name, err)
		}
		if into.Len() != 0 || into.TermCount() != 0 {
			t.Errorf("%s dictionary: rejected segment left %d triples, %d terms behind", name, into.Len(), into.TermCount())
		}
	}
}

// TestDecodeRejectsBeforeFirstInsert: a segment whose only invalid triple
// (literal subject) sorts behind more valid ones than any staging buffer
// holds must be rejected with the caller's graph untouched.
func TestDecodeRejectsBeforeFirstInsert(t *testing.T) {
	const valid = 3000
	terms := []rdf.Term{rdf.IRI("urn:p")}
	for i := 0; i < valid; i++ {
		terms = append(terms, rdf.IRI(fmt.Sprintf("urn:s%05d", i)))
	}
	terms = append(terms, rdf.Literal("lit"))
	lit := uint32(len(terms) - 1)
	var tris [][3]uint32
	for i := uint32(1); i <= valid; i++ {
		tris = append(tris, [3]uint32{i, 0, lit})
	}
	tris = append(tris, [3]uint32{lit, 0, lit}) // the largest subject ID: sorts last
	var buf bytes.Buffer
	if err := writeSegment(&buf, terms, tris); err != nil {
		t.Fatal(err)
	}
	into := rdf.NewGraph()
	err := Binary.Decode(bytes.NewReader(buf.Bytes()), into)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Decode returned %v, want ErrCorrupt", err)
	}
	if into.Len() != 0 || into.TermCount() != 0 {
		t.Fatalf("rejected segment left %d triples and %d interned terms in the caller's graph", into.Len(), into.TermCount())
	}
}

// coreGolden reads one of internal/core's golden segment fixtures: the
// current golden_merged.pbs, or an older generation golden_merged_vN.pbs,
// which this build refuses.
func coreGolden(t testing.TB, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "core", "testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// referenceMaterialize is the decoder's insert step as it was before the
// columnar split: every triple rehydrated to terms and inserted through
// AddBatch in 1024-triple chunks. The ID-order pin compares against it.
func referenceMaterialize(c *Columns, into *rdf.Graph) {
	const chunk = 1024
	batch := make([]rdf.Triple, 0, chunk)
	for _, t := range c.Tris {
		batch = append(batch, rdf.Triple{S: c.Terms[t[0]], P: c.Terms[t[1]], O: c.Terms[t[2]]})
		if len(batch) == chunk {
			into.AddBatch(batch)
			batch = batch[:0]
		}
	}
	into.AddBatch(batch)
}

// TestMaterializeKeepsIDOrder: decoding a segment must hand out the same
// TermID for every term and log the triples in the same order as per-triple
// inserts did, or result order without ORDER BY drifts.
func TestMaterializeKeepsIDOrder(t *testing.T) {
	segments := map[string][]byte{"golden segment": coreGolden(t, "golden_merged.pbs")}
	for seed := int64(1); seed <= 3; seed++ {
		var buf bytes.Buffer
		if err := Binary.Encode(&buf, randomGraph(rand.New(rand.NewSource(seed)), 2500), nil); err != nil {
			t.Fatal(err)
		}
		segments[fmt.Sprintf("random seed %d", seed)] = buf.Bytes()
	}
	for name, data := range segments {
		c, err := DecodeColumns(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// Into an empty graph, and on top of a graph that already interned
		// some of the segment's terms in another order.
		for _, preload := range []int{0, 7} {
			got, want := rdf.NewGraph(), rdf.NewGraph()
			for i := 0; i < preload && i < len(c.Tris); i++ {
				x := c.Tris[len(c.Tris)-1-i]
				tr := rdf.Triple{S: c.Terms[x[0]], P: c.Terms[x[1]], O: c.Terms[x[2]]}
				got.Add(tr)
				want.Add(tr)
			}
			if err := Binary.Decode(bytes.NewReader(data), got); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			referenceMaterialize(c, want)
			if got.TermCount() != want.TermCount() {
				t.Fatalf("%s: interned %d terms, reference %d", name, got.TermCount(), want.TermCount())
			}
			for _, term := range c.Terms {
				g, gok := got.TermID(term)
				w, wok := want.TermID(term)
				if g != w || gok != wok {
					t.Fatalf("%s: %v has ID %d (%v), reference %d (%v)", name, term, g, gok, w, wok)
				}
			}
			gr, _ := got.RefsSince(0)
			wr, _ := want.RefsSince(0)
			if !slices.Equal(gr, wr) {
				t.Fatalf("%s: insertion log differs from the reference", name)
			}
		}
	}
}

// TestGraphEncodeMatchesTermSpace: Encode and ComputeGraphStats must write
// the bytes of the term-space composition they replaced (dictionary built by
// hashing the snapshot's terms, kept as oracleEncodeTerms).
func TestGraphEncodeMatchesTermSpace(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 300)
		var got, want bytes.Buffer
		if err := Binary.Encode(&got, g, nil); err != nil {
			t.Fatal(err)
		}
		if err := oracleEncodeTerms(&want, g.Triples()); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("seed %d: Encode from the log (%d bytes) differs from the term-space encoding (%d bytes)", seed, got.Len(), want.Len())
		}
		terms, tris := oracleTermTriples(g.Triples())
		ref := ComputeStats(terms, oracleSortDedup(tris))
		st := ComputeGraphStats(g)
		if !bytes.Equal(st.encode(), ref.encode()) {
			t.Fatalf("seed %d: ComputeGraphStats differs from the term-space stats", seed)
		}
	}
}

// TestUnionStatsMatchesUnionGraph: the hash union of the members must report
// exactly the stats of a graph holding every member. Member counts run over
// 1, 2, 3, 2^k and 2^k+1; the shapes are members sharing terms and repeating
// each other's triples, identical members, pairwise-disjoint dictionaries, a
// member every term of which another member also holds, empty members first,
// last and alone, members whose column boundaries are terms too long for a
// zone map (their own zone maps are omitted; shorter terms beyond them in
// another member decide the union's), and members each under the predicate
// cap whose union may exceed it. Any member may be graph-backed
// (graphColumns, its rows in log order). One worker and four give the same
// bytes, and so does a table in which every term but the numeric literals,
// which are keyed by value, hashes alike — where only comparing terms tells
// them apart.
func TestUnionStatsMatchesUnionGraph(t *testing.T) {
	counts := []int{1, 2, 3, 4, 5, 8, 9, 16, 17, 32, 33}
	shapes := []string{"shared", "identical", "disjoint", "subset", "empty ends", "long boundaries", "many predicates"}
	disjointGraph := func(rng *rand.Rand, m int) *rdf.Graph {
		g := rdf.NewGraph()
		for i := 0; i < 1+rng.Intn(12); i++ {
			g.Add(rdf.Triple{
				S: rdf.IRI(fmt.Sprintf("urn:m%d:s%d", m, rng.Intn(6))),
				P: rdf.IRI(fmt.Sprintf("urn:m%d:p%d", m, rng.Intn(3))),
				O: rdf.Literal(fmt.Sprintf("m%d v%d", m, rng.Intn(6))),
			})
		}
		return g
	}
	// Rows past randomGraph's terms in every column, above and below: a long
	// boundary omits the member's zone map, a short one beyond it restores
	// the union's.
	long := strings.Repeat("x", maxZoneValueLen)
	edges := [][3]rdf.Term{
		{rdf.Blank("z" + long), rdf.IRI("http://www.w3.org/ns/prov#p9" + long), rdf.Literal("\xff" + long)},
		{rdf.Blank("zz"), rdf.IRI("http://www.w3.org/ns/prov#q"), rdf.Literal("\xff\xff")},
		{rdf.IRI("http://a/" + long), rdf.IRI("http://a" + long), rdf.IRI("http://a/" + long)},
		{rdf.IRI("http://"), rdf.IRI("http:"), rdf.IRI("http:")},
	}
	longBoundaryGraph := func(rng *rand.Rand) *rdf.Graph {
		g := randomGraph(rng, rng.Intn(30))
		for _, e := range edges {
			if rng.Intn(3) == 0 {
				g.Add(rdf.Triple{S: e[0], P: e[1], O: e[2]})
			}
		}
		return g
	}
	// Up to 40 of 60–69 predicates: every member under the cap of 64, the
	// union of many members at the whole pool, on either side of the cap.
	manyPredicateGraph := func(rng *rand.Rand, pool int) *rdf.Graph {
		g := rdf.NewGraph()
		for i := 0; i < 1+rng.Intn(40); i++ {
			g.Add(rdf.Triple{
				S: rdf.IRI(fmt.Sprintf("urn:s%d", rng.Intn(4))),
				P: rdf.IRI(fmt.Sprintf("urn:p%02d", rng.Intn(pool))),
				O: rdf.Integer(int64(rng.Intn(4))),
			})
		}
		return g
	}
	sameHash := func(dst []uint64, terms []rdf.Term) []uint64 {
		for range terms {
			dst = append(dst, 0x9E3779B97F4A7C15)
		}
		return dst
	}
	withoutBloom := func(st SegStats) []byte {
		st.Bloom = bloomFilter{}
		return st.encode()
	}
	var reopened, overCap, underCap int // zone maps the union restored; predicate lists it omitted / kept
	for seed := int64(0); seed < int64(3*len(counts)*len(shapes)); seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := counts[int(seed)%len(counts)]
		shape := shapes[int(seed)/len(counts)%len(shapes)]
		pool := 60 + int(seed)%10
		graphs := make([]*rdf.Graph, n)
		for m := range graphs {
			switch {
			case shape == "identical" && m > 0:
				graphs[m] = graphs[0]
			case shape == "disjoint":
				graphs[m] = disjointGraph(rng, m)
			case shape == "subset" && m == n-1 && n > 1:
				// Some of member 0's triples: no term of its own.
				graphs[m] = rdf.NewGraph()
				for i, x := range graphs[0].Triples() {
					if i%3 == 0 {
						graphs[m].Add(x)
					}
				}
			case shape == "empty ends" && (m == 0 || m == n-1):
				graphs[m] = rdf.NewGraph()
			case shape == "long boundaries":
				graphs[m] = longBoundaryGraph(rng)
			case shape == "many predicates":
				graphs[m] = manyPredicateGraph(rng, pool)
			case rng.Intn(6) == 0:
				graphs[m] = rdf.NewGraph()
			default:
				graphs[m] = randomGraph(rng, rng.Intn(80)) // small ranges: terms and triples recur across members
			}
		}
		union := rdf.NewGraph()
		members := make([]*Columns, n)
		own := make([]SegStats, n)
		refs := 0
		for m, g := range graphs {
			union.Merge(g)
			own[m] = ComputeGraphStats(g)
			if rng.Intn(3) == 0 {
				members[m] = graphColumns(g)
			} else {
				var buf bytes.Buffer
				if err := Binary.Encode(&buf, g, nil); err != nil {
					t.Fatal(err)
				}
				c, err := DecodeColumns(buf.Bytes())
				if err != nil {
					t.Fatal(err)
				}
				members[m] = c
			}
			refs += len(members[m].Terms)
		}
		want := ComputeGraphStats(union)
		for _, workers := range []int{1, 4} {
			got := UnionStats(members, workers)
			if !bytes.Equal(got.encode(), want.encode()) {
				t.Fatalf("seed %d: union of %d %s members at %d worker(s): %d triples / %d terms, union graph %d / %d",
					seed, n, shape, workers, got.Triples, got.Terms, want.Triples, want.Terms)
			}
			if refs > 600 { // every insert walks the one probe chain
				continue
			}
			if got := unionStats(members, workers, sameHash); !bytes.Equal(withoutBloom(got), withoutBloom(want)) {
				t.Fatalf("seed %d: union of %d %s members at %d worker(s), every term hashing alike: %d triples / %d terms, union graph %d / %d",
					seed, n, shape, workers, got.Triples, got.Terms, want.Triples, want.Terms)
			}
		}
		for c := 0; c < 3; c++ {
			for m := range own {
				if own[m].Triples > 0 && !own[m].ZoneOK[c] && want.ZoneOK[c] {
					reopened++
				}
			}
		}
		if shape == "many predicates" {
			if want.Preds == nil {
				overCap++
			} else {
				underCap++
			}
			for m := range own {
				if own[m].Preds == nil {
					t.Fatalf("seed %d: member %d has more than %d predicates", seed, m, maxPredList)
				}
			}
		}
	}
	if reopened == 0 || overCap == 0 || underCap == 0 {
		t.Fatalf("shapes not exercised: %d zone maps restored by the union, %d predicate lists over the cap, %d under", reopened, overCap, underCap)
	}
	empty := UnionStats(nil, 4)
	if want := ComputeGraphStats(rdf.NewGraph()); !bytes.Equal(empty.encode(), want.encode()) {
		t.Fatal("union of no members differs from the empty graph's stats")
	}
}

// h5benchMember is member m of the harness's h5bench-resident pack: 24 delta
// segments, two from each of twelve ranks, of 512 tracked writes each — about
// 1.5 k terms and 2.6 k triples a member, three new terms a record. Members
// share the vocabulary, the user and the datasets, so every member repeats
// the datasets' type triples.
func h5benchMember(m int) *rdf.Graph {
	const ns = "https://github.com/hpc-io/prov-io/ns#"
	vocab := func(name string) rdf.Term { return rdf.IRI(ns + name) }
	typ := rdf.IRI(rdf.RDFType)
	rank, seg := m/2, m%2
	g := rdf.NewGraph()
	prog := rdf.IRI(fmt.Sprintf("%sprogram/h5bench-r%d", ns, rank))
	g.Add(rdf.Triple{S: prog, P: typ, O: vocab("Program")})
	g.Add(rdf.Triple{S: prog, P: vocab("actedOnBehalfOf"), O: rdf.IRI(ns + "user/alice")})
	for i := 512 * seg; i < 512*(seg+1); i++ {
		act := rdf.IRI(fmt.Sprintf("%sapi/H5Dwrite-p%d-b%d", ns, rank, i+1))
		obj := rdf.IRI(fmt.Sprintf("%sdataset/f.h5/d%d", ns, i%8))
		g.AddBatch([]rdf.Triple{
			{S: act, P: typ, O: vocab("Write")},
			{S: act, P: vocab("wasAssociatedWith"), O: prog},
			{S: obj, P: typ, O: vocab("Dataset")},
			{S: obj, P: vocab("wasWrittenBy"), O: act},
			{S: act, P: vocab("startedAtTime"), O: rdf.Integer(int64(1_000_000*rank + 1000*i))},
			{S: act, P: vocab("elapsed"), O: rdf.Integer(int64(100_000 + 7919*(1024*rank+i)%900_000))},
		})
	}
	return g
}

// h5benchSegment is the encoded h5benchMember(m).
func h5benchSegment(b *testing.B, m int) []byte {
	var buf bytes.Buffer
	if err := Binary.Encode(&buf, h5benchMember(m), nil); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

// reportBlockSizes reports the triple block's size per triple, the
// dictionary block's per term, and the stats frame's per triple.
func reportBlockSizes(b *testing.B, data []byte) {
	c, err := DecodeColumns(data)
	if err != nil {
		b.Fatal(err)
	}
	_, rest, _ := pbsBody(data)
	dict, rest, _ := readFrame(rest)
	cols, rest, _ := readFrame(rest)
	sta, _, _ := readFrame(rest)
	b.ReportMetric(float64(len(cols))/float64(len(c.Tris)), "B/triple")
	b.ReportMetric(float64(len(dict))/float64(len(c.Terms)), "B/term")
	b.ReportMetric(float64(len(sta))/float64(len(c.Tris)), "stats-B/triple")
}

// BenchmarkEncodeColumns writes one harness-shaped delta segment from its
// insertion log, the way a tracker's flush does.
func BenchmarkEncodeColumns(b *testing.B) {
	g := h5benchMember(3)
	refs, _ := g.RefsSince(0)
	enc := Binary.(RefsEncoder)
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := enc.EncodeRefs(&buf, refs, g); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportBlockSizes(b, buf.Bytes())
}

// BenchmarkDecodeColumns validates one harness-shaped delta segment into its
// columns, the way the audit and the pack builder read every file.
func BenchmarkDecodeColumns(b *testing.B) {
	data := h5benchSegment(b, 3)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeColumns(data); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportBlockSizes(b, data)
}

// BenchmarkUnionStats folds the pack-level stats of the harness's
// h5bench-resident pack (h5benchMember).
func BenchmarkUnionStats(b *testing.B) {
	members := make([]*Columns, 24)
	terms := 0
	for m := range members {
		c, err := DecodeColumns(h5benchSegment(b, m))
		if err != nil {
			b.Fatal(err)
		}
		members[m] = c
		terms += len(c.Terms)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		UnionStats(members, runtime.GOMAXPROCS(0))
	}
	b.ReportMetric(float64(terms)/float64(len(members)), "terms/member")
}
