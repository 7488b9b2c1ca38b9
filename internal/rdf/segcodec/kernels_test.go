package segcodec

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"github.com/hpc-io/prov-io/internal/model"
	"github.com/hpc-io/prov-io/internal/rdf"
)

// The encoder's three kernels against the compositions they replaced
// (oracle_test.go). A test's cases run back to back on one goroutine, so the
// pool hands them the same scratch the way it does flush after flush, and
// state a build leaves behind shows up as a wrong answer in a later case.

// TestRowSortMatchesOracle: the counting sort equals sort.Slice + dedupe on
// random rows — duplicates, empty and single-row inputs, and dictionary sizes
// on both sides of a byte and a 16-bit boundary.
func TestRowSortMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, nTerms := range []int{1, 2, 255, 256, 65537} {
		cases := 2500
		if nTerms > 256 {
			cases = 200 // each clears three 65 538-entry histograms
		}
		for c := 0; c < cases; c++ {
			n := rng.Intn(48)
			if c%3 == 0 {
				n = rng.Intn(3) // empty, single-row and two-row inputs, often
			} else if c%97 == 0 {
				n = 1000 + rng.Intn(2000)
			}
			// IDs from a narrow window repeat rows; a few from anywhere,
			// and the largest ID, reach the histogram's ends.
			span := 1 + rng.Intn(min(nTerms, 5))
			base := rng.Intn(nTerms - span + 1)
			id := func() uint32 {
				switch rng.Intn(12) {
				case 0:
					return uint32(rng.Intn(nTerms))
				case 1:
					return uint32(nTerms - 1)
				}
				return uint32(base + rng.Intn(span))
			}
			rows := make([][3]uint32, n)
			for i := range rows {
				rows[i] = [3]uint32{id(), id(), id()}
			}
			want := oracleSortDedup(slices.Clone(rows))
			got := sortDedupTriples(rows, nTerms)
			if !slices.Equal(got, want) {
				t.Fatalf("nTerms %d, case %d: %d rows sorted to %v, want %v", nTerms, c, n, got, want)
			}
		}
	}
}

// hostileTerms draws n terms that stress the dictionary order: bytes at and
// above 0x80, values that are prefixes of other values, empty values, equal
// values that differ only in Lang or Datatype, a long shared prefix, and the
// three kinds mixed. Terms may repeat.
func hostileTerms(rng *rand.Rand, n int) []rdf.Term {
	alphabet := []byte{0x00, 'a', 'b', 0x7f, 0x80, 0xc3, 0xff}
	langs := []string{"", "en", "en-US", "\xff"}
	dts := []string{"", rdf.XSDInteger, "http://www.w3.org/2001/XMLSchema#string", "urn:dt"}
	terms := make([]rdf.Term, n)
	for i := range terms {
		v := make([]byte, rng.Intn(5))
		for j := range v {
			v[j] = alphabet[rng.Intn(len(alphabet))]
		}
		value := string(v)
		if rng.Intn(3) == 0 {
			value = "http://provio.example/node/api/H5Dwrite-p0-b" + value
		}
		switch rng.Intn(3) {
		case 0:
			terms[i] = rdf.Term{Kind: rdf.IRITerm, Value: value}
		case 1:
			terms[i] = rdf.Term{Kind: rdf.BlankTerm, Value: value}
		default:
			terms[i] = rdf.Term{Kind: rdf.LiteralTerm, Value: value,
				Lang: langs[rng.Intn(len(langs))], Datatype: dts[rng.Intn(len(dts))]}
		}
	}
	return terms
}

// TestDictOrderMatchesTermLess: the radix quicksort orders any term list the
// way sort.Slice by rdf.TermLess does.
func TestDictOrderMatchesTermLess(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for c := 0; c < 10000; c++ {
		n := rng.Intn(60)
		if c%100 == 0 {
			n = 500 + rng.Intn(1500)
		}
		terms := hostileTerms(rng, n)
		perm := make([]uint32, n)
		for i := range perm {
			perm[i] = uint32(i)
		}
		rng.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		sortTermPerm(terms, perm, 0)
		got := make([]rdf.Term, n)
		for i, at := range perm {
			got[i] = terms[at]
		}
		want := slices.Clone(terms)
		sort.Slice(want, func(i, j int) bool { return rdf.TermLess(want[i], want[j]) })
		if !slices.Equal(got, want) {
			t.Fatalf("case %d: %d terms ordered\n%q\nwant\n%q", c, n, got, want)
		}
		permuteTerms(terms, perm)
		if !slices.Equal(terms, want) {
			t.Fatalf("case %d: permuting %d terms in place left\n%q\nwant\n%q", c, n, terms, want)
		}
	}
}

// TestDictOrderLongSharedPrefix: values that agree for a megabyte must not
// cost a stack frame per shared byte.
func TestDictOrderLongSharedPrefix(t *testing.T) {
	prefix := string(bytes.Repeat([]byte{'x'}, 1<<20))
	var terms []rdf.Term
	for i := 0; i < 40; i++ {
		terms = append(terms, rdf.IRI(prefix+fmt.Sprint(i%20)), rdf.LangLiteral(prefix, fmt.Sprint(i)))
	}
	perm := make([]uint32, len(terms))
	for i := range perm {
		perm[i] = uint32(i)
	}
	sortTermPerm(terms, perm, 0)
	for i := 1; i < len(perm); i++ {
		if rdf.TermLess(terms[perm[i]], terms[perm[i-1]]) {
			t.Fatalf("position %d is below its predecessor", i)
		}
	}
}

// trackerGraph builds a graph the way a tracker does — agent, data-object,
// I/O-activity and extensible records through the model's builders, IDs
// handed out in tracking order.
func trackerGraph(rng *rand.Rand, records int) *rdf.Graph {
	g := rdf.NewGraph()
	in := &model.GraphInterner{Graph: g}
	var refs []rdf.TripleID
	var buf []byte
	add := func(rec model.Record) rdf.Term {
		var node rdf.ID
		refs, buf, node = rec.AppendRefs(in, refs[:0], buf)
		g.AddRefs(refs)
		return g.TermOf(node)
	}
	pid := rng.Intn(4)
	userNode := add(model.AgentRecord{Class: model.User, ID: "alice", Name: "alice", Rank: -1})
	progNode := add(model.AgentRecord{Class: model.Program, ID: fmt.Sprintf("sim-%d", pid), Name: "sim", OnBehalfOf: userNode.Value, Rank: -1})
	var objs []rdf.Term
	apis := []struct {
		class model.Class
		name  string
	}{{model.Write, "H5Dwrite"}, {model.Read, "H5Dread"}, {model.Create, "H5Dcreate2"}, {model.Open, "ünï\x80code open"}}
	for i := 0; i < records; i++ {
		switch k := rng.Intn(10); {
		case k == 0 || len(objs) == 0:
			objs = append(objs, add(model.DataObjectRecord{Class: model.Dataset,
				ID: fmt.Sprintf("/f.h5/r%d/d%d", pid, rng.Intn(12)), AttributedTo: progNode.Value}))
		case k == 1:
			add(model.ExtensibleRecord{Class: model.Configuration, Owner: progNode.Value, Key: fmt.Sprintf("lr%d", rng.Intn(3)),
				Value: rdf.TypedLiteral(fmt.Sprint(rng.Intn(5)), rdf.XSDInteger), Version: rng.Intn(4) - 1})
		default:
			api := apis[rng.Intn(len(apis))]
			add(model.IOActivityRecord{Class: api.class, API: api.name, PID: pid, Seq: i, Object: objs[rng.Intn(len(objs))],
				Agent: progNode, Elapsed: time.Duration(rng.Intn(50)) * time.Microsecond,
				Started: time.Duration(i) * time.Millisecond, TrackDuration: rng.Intn(4) != 0})
		}
	}
	return g
}

// TestEncodeRefsMatchesParentEncoder: on tracker-built graphs — the whole
// log and random windows of it, the shape of a periodic flush's
// delta, whose graph IDs are sparse in the dense table — EncodeRefs writes
// the bytes the parent's map-and-sort.Slice encoder writes.
func TestEncodeRefsMatchesParentEncoder(t *testing.T) {
	enc := Binary.(RefsEncoder)
	check := func(what string, refs []rdf.TripleID, g *rdf.Graph) {
		t.Helper()
		var got, want bytes.Buffer
		if err := enc.EncodeRefs(&got, refs, g); err != nil {
			t.Fatal(err)
		}
		if err := oracleEncodeRefs(&want, refs, g); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("%s: EncodeRefs wrote %d bytes, the parent's encoder %d, and they differ", what, got.Len(), want.Len())
		}
	}
	rng := rand.New(rand.NewSource(23))
	for gi := 0; gi < 250; gi++ {
		g := trackerGraph(rng, 20+rng.Intn(200))
		refs, _ := g.RefsSince(0)
		check(fmt.Sprintf("graph %d, whole log", gi), refs, g)
		for w := 0; w < 40; w++ {
			lo := rng.Intn(len(refs))
			hi := lo + rng.Intn(min(len(refs)-lo, 64)+1)
			check(fmt.Sprintf("graph %d, log[%d:%d]", gi, lo, hi), refs[lo:hi], g)
		}
	}
	check("no refs", nil, rdf.NewGraph())
}

// TestEncodeRefsConcurrent: flushes of different trackers run at once, each
// on a scratch of its own from the shared pool.
func TestEncodeRefsConcurrent(t *testing.T) {
	enc := Binary.(RefsEncoder)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		g := trackerGraph(rand.New(rand.NewSource(int64(30+w))), 40+60*w)
		refs, _ := g.RefsSince(0)
		var want bytes.Buffer
		if err := oracleEncodeRefs(&want, refs, g); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				var got bytes.Buffer
				if err := enc.EncodeRefs(&got, refs, g); err != nil || !bytes.Equal(got.Bytes(), want.Bytes()) {
					t.Errorf("concurrent encode %d: err %v, bytes equal %v", i, err, bytes.Equal(got.Bytes(), want.Bytes()))
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestFreshScratchAllocs: a flush that finds no used scratch in the pool —
// the first after a collection, or the first on a P — allocates about one
// object per scratch slice more than a flush that finds one, not one per
// doubling of each. Which flushes of an ingest find none is up to the
// scheduler and the collector, so this difference is what they can add to
// the ingest's allocation count from one run to the next. A flush that finds
// one allocates the file EncodeRefs writes and nothing else.
func TestFreshScratchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	g := h5benchMember(3)
	refs, _ := g.RefsSince(0)
	enc := Binary.(RefsEncoder)
	var buf bytes.Buffer
	encode := func() {
		buf.Reset()
		if err := enc.EncodeRefs(&buf, refs, g); err != nil {
			t.Fatal(err)
		}
	}
	newPool := func() { encPool = sync.Pool{New: func() any { return new(encScratch) }} }
	defer newPool()
	warm := testing.AllocsPerRun(20, encode)
	fresh := testing.AllocsPerRun(20, func() { newPool(); encode() })
	t.Logf("EncodeRefs of a %d-triple delta: %.0f allocations with a used scratch, %.0f with a fresh one", len(refs), warm, fresh)
	if warm > 1 {
		t.Errorf("EncodeRefs with a used scratch makes %.0f allocations, want only its file's", warm)
	}
	if fresh-warm > 18 {
		t.Errorf("a fresh scratch costs %.0f more allocations than a used one, want at most 18", fresh-warm)
	}
}

// TestScratchKeepsNoTerms: a scratch goes back to the pool holding no term
// of the graph it encoded — its dictionary, the predicate list after it and
// the tag table are cleared — so the pool pins no graph's value pages.
func TestScratchKeepsNoTerms(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	g := h5benchMember(3)
	refs, _ := g.LogSince(0)
	for _, build := range []func(){
		func() { AppendSegment(nil, refs, g) },
		func() { ComputeGraphStats(g) },
	} {
		build()
		sc := encPool.Get().(*encScratch)
		if cap(sc.terms) < 100 {
			t.Fatalf("premise: the pool returned a scratch with room for %d terms, not the one the build used", cap(sc.terms))
		}
		for i, term := range sc.terms[:cap(sc.terms)] {
			if term != (rdf.Term{}) {
				t.Fatalf("scratch term %d still holds %v", i, term)
			}
		}
		for i, tag := range sc.tags[:cap(sc.tags)] {
			if tag != (tagPair{}) {
				t.Fatalf("scratch tag %d still holds %v", i, tag)
			}
		}
		encPool.Put(sc)
	}
}

// TestStatsPredListMatchesSet: the predicate list read off the bitmap is the
// sorted distinct-predicate set, and is omitted exactly when the set exceeds
// maxPredList.
func TestStatsPredListMatchesSet(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	var terms []rdf.Term
	for i := 0; i < 300; i++ {
		terms = append(terms, rdf.IRI(fmt.Sprintf("urn:t%04d", i)))
	}
	for _, distinct := range []int{1, 2, maxPredList - 1, maxPredList, maxPredList + 1, 250} {
		preds := rng.Perm(len(terms))[:distinct]
		var tris [][3]uint32
		for i := 0; i < 4*distinct; i++ {
			tris = append(tris, [3]uint32{uint32(rng.Intn(len(terms))), uint32(preds[i%distinct]), uint32(rng.Intn(len(terms)))})
		}
		st := ComputeStats(terms, sortDedupTriples(tris, len(terms)))
		if distinct > maxPredList {
			if st.Preds != nil {
				t.Fatalf("%d predicates: list of %d kept, want it omitted", distinct, len(st.Preds))
			}
			continue
		}
		sort.Ints(preds)
		want := make([]rdf.Term, distinct)
		for i, p := range preds {
			want[i] = terms[p]
		}
		if !slices.Equal(st.Preds, want) {
			t.Fatalf("%d predicates: list %v, want %v", distinct, st.Preds, want)
		}
	}
}

// TestDecodeRejectsUnsortedRows: rows out of (s, p, o) order, or repeated,
// behind valid CRCs and the stats frame their own contents derive. Accepted,
// the repeated row is counted by Stats.Triples and every reader that merges
// rows on "sorted and distinct" is wrong on the file.
func TestDecodeRejectsUnsortedRows(t *testing.T) {
	terms := []rdf.Term{rdf.IRI("urn:a"), rdf.IRI("urn:b"), rdf.IRI("urn:p"), rdf.IRI("urn:q")}
	for name, tris := range map[string][][3]uint32{
		"P descends in an S run":  {{0, 3, 0}, {0, 2, 1}},
		"O descends in a P run":   {{0, 2, 1}, {0, 2, 0}, {1, 2, 0}},
		"repeated row":            {{0, 2, 1}, {1, 2, 0}, {1, 2, 0}},
		"repeated row, the first": {{0, 2, 1}, {0, 2, 1}},
	} {
		data := handBuiltSegment(t, terms, tris)
		if st, err := StatsOf(data); err != nil || st.Triples != uint64(len(tris)) {
			t.Fatalf("%s: premise: the hand-built stats frame should count all %d rows", name, len(tris))
		}
		into := rdf.NewGraph()
		if err := Binary.Decode(bytes.NewReader(data), into); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Decode returned %v, want ErrCorrupt", name, err)
		}
		if into.Len() != 0 || into.TermCount() != 0 {
			t.Errorf("%s: rejected segment left %d triples, %d terms behind", name, into.Len(), into.TermCount())
		}
	}
	// Strictly ascending rows that differ only in O, only in P, only in S.
	ok := handBuiltSegment(t, terms, [][3]uint32{{0, 2, 0}, {0, 2, 1}, {0, 3, 0}, {1, 2, 0}})
	if _, err := DecodeColumns(ok); err != nil {
		t.Fatalf("ascending rows rejected: %v", err)
	}
}

// The kernels as the tests call them: over a scratch of their own or the
// pool's, returning owned results.

// sortDedupTriples is encScratch.sortDedup on a pooled scratch.
func sortDedupTriples(tris [][3]uint32, nTerms int) [][3]uint32 {
	sc := encPool.Get().(*encScratch)
	tris = sc.sortDedup(tris, nTerms)
	encPool.Put(sc)
	return tris
}

// graphColumns returns a graph's contents in segment shape, read off its
// insertion log through the dictionary builder Encode uses: the rows are
// distinct, in log order.
func graphColumns(g *rdf.Graph) *Columns {
	refs, _ := g.LogSince(0)
	sc := encPool.Get().(*encScratch)
	terms, tris := sc.refTriples(refs, g)
	c := &Columns{Terms: slices.Clone(terms), Tris: slices.Clone(tris)}
	sc.release()
	return c
}

// encodeDict renders the dictionary block of a dictionary in the canonical
// order.
func encodeDict(terms []rdf.Term) []byte { return new(encScratch).appendDict(nil, terms) }

// writeSegment writes the unsealed segment of a canonical dictionary and its
// rows, exactly as given.
func writeSegment(w io.Writer, terms []rdf.Term, tris [][3]uint32) error {
	_, err := w.Write(new(encScratch).appendSegment(nil, terms, tris, nil))
	return err
}
