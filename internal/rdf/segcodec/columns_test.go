package segcodec

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"github.com/hpc-io/prov-io/internal/rdf"
)

// handBuiltSegment serializes a dictionary and rows that need not be
// canonical. writeSegment front-codes and delta-codes whatever order it is
// given and derives the stats frame from the same arrays, so the result has
// valid CRCs and a self-consistent stats frame — only the order is wrong.
func handBuiltSegment(t testing.TB, terms []rdf.Term, tris [][3]uint32) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := writeSegment(&buf, terms, tris); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
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
	golden, err := os.ReadFile(filepath.Join("..", "..", "core", "testdata", "golden_merged.pbs"))
	if err != nil {
		t.Fatal(err)
	}
	segments := map[string][]byte{"golden_merged.pbs": golden}
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

// churnedGraph is randomGraph after removals and re-adds, so its log holds
// dead entries and entries that repeat a surviving triple.
func churnedGraph(rng *rand.Rand, n int) *rdf.Graph {
	g := randomGraph(rng, n)
	ts := g.Triples()
	for _, t := range ts {
		switch rng.Intn(4) {
		case 0:
			g.Remove(t)
		case 1:
			g.Remove(t)
			g.Add(t)
		}
	}
	return g
}

// TestGraphEncodeMatchesTermSpace: Encode, EncodeTriples and
// ComputeGraphStats must write the bytes of the term-space composition they
// replaced (dictionary built by hashing the snapshot's terms, kept as
// oracleEncodeTriples), also on graphs whose log repeats triples.
func TestGraphEncodeMatchesTermSpace(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 300)
		if seed%2 == 0 {
			g = churnedGraph(rng, 300)
		}
		var got, bare, want bytes.Buffer
		if err := Binary.Encode(&got, g, nil); err != nil {
			t.Fatal(err)
		}
		if err := Binary.(TriplesEncoder).EncodeTriples(&bare, g.Triples()); err != nil {
			t.Fatal(err)
		}
		if err := oracleEncodeTriples(&want, g.Triples()); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("seed %d: Encode from the log (%d bytes) differs from the term-space encoding (%d bytes)", seed, got.Len(), want.Len())
		}
		if !bytes.Equal(bare.Bytes(), want.Bytes()) {
			t.Fatalf("seed %d: EncodeTriples (%d bytes) differs from the term-space encoding (%d bytes)", seed, bare.Len(), want.Len())
		}
		terms, tris := oracleTermTriples(g.Triples())
		ref := ComputeStats(terms, oracleSortDedup(tris))
		st := ComputeGraphStats(g)
		if !bytes.Equal(st.encode(), ref.encode()) {
			t.Fatalf("seed %d: ComputeGraphStats differs from the term-space stats", seed)
		}
	}
}

// TestUnionStatsMatchesUnionGraph: merging references to the members'
// dictionaries must report exactly the stats of a graph holding every member.
// Member counts run over 1, 2, 3, 2^k and 2^k+1, so every merge round carries
// an odd run at least once; the shapes are members sharing terms and
// repeating each other's triples, identical members, pairwise-disjoint
// dictionaries, a member every term of which another member also holds, and
// empty members first, last and alone; any member may be graph-backed (text).
// One worker and four give the same bytes.
func TestUnionStatsMatchesUnionGraph(t *testing.T) {
	counts := []int{1, 2, 3, 4, 5, 8, 9, 16, 17, 32, 33}
	shapes := []string{"shared", "identical", "disjoint", "subset", "empty ends"}
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
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := counts[int(seed)%len(counts)]
		shape := shapes[int(seed)/len(counts)%len(shapes)]
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
			case rng.Intn(6) == 0:
				graphs[m] = rdf.NewGraph()
			default:
				graphs[m] = randomGraph(rng, rng.Intn(80)) // small ranges: terms and triples recur across members
			}
		}
		union := rdf.NewGraph()
		members := make([]*Columns, n)
		for m, g := range graphs {
			union.Merge(g)
			if rng.Intn(3) == 0 {
				members[m] = GraphColumns(g)
				continue
			}
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
		want := ComputeGraphStats(union)
		for _, workers := range []int{1, 4} {
			got := UnionStats(members, workers)
			if !bytes.Equal(got.encode(), want.encode()) {
				t.Fatalf("seed %d: union of %d %s members at %d worker(s): %d triples / %d terms, union graph %d / %d",
					seed, n, shape, workers, got.Triples, got.Terms, want.Triples, want.Terms)
			}
		}
	}
	empty := UnionStats(nil, 4)
	if want := ComputeGraphStats(rdf.NewGraph()); !bytes.Equal(empty.encode(), want.encode()) {
		t.Fatal("union of no members differs from the empty graph's stats")
	}
}
