package rdf

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
)

// sortedOf rebuilds g as a sorted graph: its terms in TermLess order, its
// refs renumbered and sorted by (S, P, O).
func sortedOf(g *Graph) *Graph {
	terms := make([]Term, g.TermCount())
	for id := range terms {
		terms[id] = g.TermOf(ID(id))
	}
	order := make([]ID, len(terms))
	for i := range order {
		order[i] = ID(i)
	}
	sort.Slice(order, func(a, b int) bool { return TermLess(terms[order[a]], terms[order[b]]) })
	rank := make([]ID, len(terms))
	sorted := make([]Term, len(terms))
	for r, id := range order {
		rank[id], sorted[r] = ID(r), terms[id]
	}
	refs, _ := g.RefsSince(0)
	for i, x := range refs {
		refs[i] = TripleID{rank[x.S], rank[x.P], rank[x.O]}
	}
	slices.SortFunc(refs, func(a, b TripleID) int {
		switch {
		case a.S != b.S:
			return int(a.S) - int(b.S)
		case a.P != b.P:
			return int(a.P) - int(b.P)
		}
		return int(a.O) - int(b.O)
	})
	return NewSortedGraph(sorted, refs)
}

// sortedRandGraph is snapRandGraph with literals, language tags and
// datatypes among the objects, and its sorted twin.
func sortedRandGraph(rng *rand.Rand, n int) (built, sorted *Graph) {
	built = snapRandGraph(rng, n)
	for i := 0; i < n/8; i++ {
		s := IRI(fmt.Sprintf("http://e/s%d", rng.Intn(12)))
		o := []Term{Literal("v"), LangLiteral("v", "en"), TypedLiteral("v", "http://e/t"), Integer(int64(rng.Intn(5)))}[rng.Intn(4)]
		built.Add(Triple{S: s, P: IRI("http://e/lit"), O: o})
	}
	return built, sortedOf(built)
}

// TestSortedGraphStaysWritable: a sorted graph starts with no slot table
// and no membership table, answers TermID, TermOf and Has from its sorted
// terms and its bisection cache, and after construction Intern, InternBytes,
// Add, AddBatch, AddRefs and Merge behave as on the graph inserts built: a
// term it holds keeps its ID, a logged triple is not added again, new terms
// and triples land, also from four writers racing Snapshot.
func TestSortedGraphStaysWritable(t *testing.T) {
	built, _ := sortedRandGraph(rand.New(rand.NewSource(29)), 600)
	logged := built.SortedTriples()
	extra := NewGraph()
	extra.AddBatch([]Triple{tr("s0", "p0", "o0"), tr("new-s", "p1", "o2"), tr("s3", "new-p", "new-o")})
	absent := []Term{IRI("http://e/zz"), IRI("a"), LangLiteral("v", "de"), TypedLiteral("v", "http://e/u"), Blank("s0")}

	for _, path := range []struct {
		name string
		add  func(g *Graph) int
	}{
		{"Add", func(g *Graph) int {
			n := 0
			for _, x := range logged {
				if g.Add(x) {
					n++
				}
			}
			return n
		}},
		{"AddBatch", func(g *Graph) int { return g.AddBatch(logged) }},
		{"AddRefs", func(g *Graph) int { refs, _ := g.RefsSince(0); return g.AddRefs(refs) }},
		{"Merge", func(g *Graph) int { return g.Merge(built) }},
		{"Intern", func(g *Graph) int {
			for id := ID(0); int(id) < g.TermCount(); id++ {
				if got := g.Intern(g.TermOf(id)); got != id {
					t.Fatalf("Intern of term %d returned %d", id, got)
				}
			}
			return 0
		}},
	} {
		g := sortedOf(built)
		if len(*g.dict.slots.Load()) != 0 || g.table != nil {
			t.Fatalf("%s: a sorted graph starts with %d slots and a %d-slot table", path.name, len(*g.dict.slots.Load()), len(g.table))
		}
		// Twice: the second pass answers from the bisection cache where two
		// terms do not contend for its words.
		n := g.TermCount()
		for pass := 0; pass < 2; pass++ {
			for id := ID(0); int(id) < n; id++ {
				if got, ok := g.TermID(g.TermOf(id)); !ok || got != id {
					t.Fatalf("%s: before any write TermID(TermOf(%d)) = %d, %v", path.name, id, got, ok)
				}
				if id > 0 && !TermLess(g.TermOf(id-1), g.TermOf(id)) {
					t.Fatalf("%s: term %d does not sort after term %d", path.name, id, id-1)
				}
			}
		}
		for _, a := range absent {
			if id, ok := g.TermID(a); ok || id != 0 {
				t.Fatalf("%s: absent TermID(%v) = %d, %v", path.name, a, id, ok)
			}
		}
		if got := g.SortedTriples(); !slices.Equal(got, logged) {
			t.Fatalf("%s: the sorted graph holds other triples than the built one", path.name)
		}

		if added := path.add(g); added != 0 || g.Len() != built.Len() || g.TermCount() != n {
			t.Fatalf("%s re-added %d logged triples: Len %d, %d terms; built %d, %d", path.name, added, g.Len(), g.TermCount(), built.Len(), n)
		}
		for id := ID(0); int(id) < n; id++ {
			if got, ok := g.TermID(g.TermOf(id)); !ok || got != id {
				t.Fatalf("%s: after the write TermID(TermOf(%d)) = %d, %v", path.name, id, got, ok)
			}
		}
		for _, x := range logged {
			if !g.Has(x) {
				t.Fatalf("%s: Has(%v) = false for a logged triple", path.name, x)
			}
		}
		if g.Has(tr("p0", "p0", "p0")) {
			t.Fatalf("%s: Has is true for a triple never added", path.name)
		}

		// New terms and triples land after the sorted ones, through every
		// interning path, and the graph stays the union.
		buf := []byte("http://e/bytes")
		idB := g.InternBytes(IRITerm, buf, "", "")
		if idB != ID(n) || g.InternBytes(IRITerm, buf, "", "") != idB || g.Intern(IRI("http://e/bytes")) != idB {
			t.Fatalf("%s: InternBytes of a new term gave %d, want %d and stable", path.name, idB, n)
		}
		if added := g.Merge(extra); added != 2 {
			t.Fatalf("%s: Merge of two new triples and one logged added %d", path.name, added)
		}
		want := cloneGraph(built)
		want.Merge(extra)
		if got := g.SortedTriples(); !slices.Equal(got, want.SortedTriples()) {
			t.Fatalf("%s: after new writes the graph is not the union", path.name)
		}
		if len(*g.dict.slots.Load()) == 0 {
			t.Fatalf("%s: interning new terms left the slot table unbuilt", path.name)
		}
		checkTable(t, g)
	}

	// Merge the other way: a sorted graph's triples into a built graph.
	into := cloneGraph(extra)
	into.Merge(sortedOf(built))
	want := cloneGraph(built)
	want.Merge(extra)
	if !slices.Equal(into.SortedTriples(), want.SortedTriples()) {
		t.Fatal("merging a sorted graph into a built one lost triples")
	}

	// Writers add overlapping batches to a sorted graph, whose first write
	// builds its membership table, while Snapshot runs beside them (under
	// -race): every triple lands once, and the graph holds what a serial run
	// of the same batches holds.
	const writers, batches = 4, 150
	batch := func(w, i int) []Triple {
		out := make([]Triple, 0, 6)
		for k := 0; k < 6; k++ {
			out = append(out, tr(fmt.Sprintf("s%d", (w+i+k)%40), fmt.Sprintf("p%d", k%3), fmt.Sprintf("o%d", (i*k)%50)))
		}
		return out
	}
	serial := cloneGraph(built)
	for w := 0; w < writers; w++ {
		for i := 0; i < batches; i++ {
			serial.AddBatch(batch(w, i))
		}
	}
	conc := sortedOf(built)
	var added [writers]int
	var wg, side sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < batches; i++ {
				added[w] += conc.AddBatch(batch(w, i))
			}
		}(w)
	}
	side.Add(1)
	go func() {
		defer side.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if s := conc.Snapshot(); s.Len() > conc.Len() {
					t.Errorf("snapshot pins %d triples, beyond the log", s.Len())
				}
			}
		}
	}()
	wg.Wait()
	close(stop)
	side.Wait()
	total := built.Len()
	for _, n := range added {
		total += n
	}
	if total != serial.Len() || conc.Len() != serial.Len() || !slices.Equal(conc.SortedTriples(), serial.SortedTriples()) {
		t.Fatalf("concurrent writers reached %d triples (Len %d), a serial run %d", total, conc.Len(), serial.Len())
	}
	checkTable(t, conc)

	// A reader racing the first Intern never misses a term of the sorted
	// prefix: it either bisects the prefix or probes a table built whole.
	base := NewGraph()
	for i := 0; i < 3000; i++ {
		base.Add(Triple{S: IRI(fmt.Sprintf("http://e/r%d", i)), P: IRI("http://e/p"), O: LangLiteral(fmt.Sprintf("l%d", i%50), "en")})
	}
	rounds := 8
	if testing.Short() {
		rounds = 2
	}
	for round := 0; round < rounds; round++ {
		g := sortedOf(base)
		n := g.TermCount()
		terms := make([]Term, n)
		for id := range terms {
			terms[id] = g.TermOf(ID(id))
		}
		var wg sync.WaitGroup
		for r := 0; r < 2; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				for pass := 0; pass < 2; pass++ {
					for i := range terms {
						id := ID((i*7 + r) % n)
						if got, ok := g.TermID(terms[id]); !ok || got != id {
							t.Errorf("round %d: TermID(%v) = %d, %v racing the first Intern, want %d", round, terms[id], got, ok, id)
							return
						}
					}
				}
			}(r)
		}
		for i := 0; i < 64; i++ {
			g.Intern(IRI(fmt.Sprintf("http://e/new%d", i)))
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
	}
}

// TestSortedGraphLookupCacheIsProved: a sorted dictionary believes a cached
// lower bound only once its entries prove it, so a word planted under a
// term's hash with any position — as a 32-bit hash collision would leave
// it — never turns a present term absent, an absent one present, or an ID
// into another.
func TestSortedGraphLookupCacheIsProved(t *testing.T) {
	_, g := sortedRandGraph(rand.New(rand.NewSource(37)), 300)
	d := &g.dict
	n := g.TermCount()
	probes := []Term{IRI("http://e/zz"), IRI("a"), LangLiteral("v", "de"), Blank("s0"), {}}
	for id := 0; id < n; id++ {
		probes = append(probes, g.TermOf(ID(id)))
	}
	for _, term := range probes {
		want, wantOK := ID(0), false
		for id := 0; id < n; id++ {
			if g.TermOf(ID(id)) == term {
				want, wantOK = ID(id), true
			}
		}
		h := d.hash(term)
		for pos := 0; pos <= n; pos++ {
			w := uint64(h)<<32 | uint64(pos) + 1
			d.hits[h%sortedHits].Store(w)
			d.hits[(h>>16)%sortedHits].Store(w)
			if got, ok := g.TermID(term); got != want || ok != wantOK {
				t.Fatalf("TermID(%v) with position %d planted = %d, %v; want %d, %v", term, pos, got, ok, want, wantOK)
			}
		}
		// The lookup above replaced a wrong plant with the true bound: the
		// next one answers from it.
		if got, ok := g.TermID(term); got != want || ok != wantOK {
			t.Fatalf("TermID(%v) from the cache = %d, %v; want %d, %v", term, got, ok, want, wantOK)
		}
	}
}

// TestSortedGraphIndexScans: over a sorted graph's log, which ascends in
// S, the snapshot index keeps no spo array, and every pattern shape
// enumerates the log filter's rows in log order through ForEachMatchIDs, a
// random partition of ScanRange and CountMatchIDs; PredStats, IndexStats
// and Subjects agree with the graph inserts built.
func TestSortedGraphIndexScans(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for iter := 0; iter < 12; iter++ {
		built, g := sortedRandGraph(rng, 20+rng.Intn(400))
		snap := g.Snapshot()
		if ix := snap.index(); ix.spo != nil {
			t.Fatalf("iter %d: the index of a log ascending in S keeps a %d-entry spo", iter, len(ix.spo))
		}
		if built.Snapshot().index().spo == nil {
			t.Fatalf("iter %d: the built graph's log ascends in S; the test needs one that does not", iter)
		}
		for _, pat := range snapPatterns(g) {
			s, p, o := pat[0], pat[1], pat[2]
			var want []TripleID
			for _, r := range snap.refs {
				if (s == NoID || r.S == s) && (p == NoID || r.P == p) && (o == NoID || r.O == o) {
					want = append(want, r)
				}
			}
			full := idsOf(func(fn func(s, p, o ID) bool) { snap.ForEachMatchIDs(s, p, o, fn) })
			if !slices.Equal(full, want) {
				t.Fatalf("iter %d pattern (%v %v %v): %d rows, log filter %d", iter, s, p, o, len(full), len(want))
			}
			if c := snap.CountMatchIDs(s, p, o); c != len(want) {
				t.Fatalf("iter %d pattern (%v %v %v): CountMatchIDs %d, log filter %d", iter, s, p, o, c, len(want))
			}
			n := snap.ScanLen(s, p, o)
			cuts := []int{0, n}
			for k := rng.Intn(6); k > 0; k-- {
				cuts = append(cuts, rng.Intn(n+1))
			}
			slices.Sort(cuts)
			var cat []TripleID
			for i := 1; i < len(cuts); i++ {
				snap.ScanRange(s, p, o, cuts[i-1], cuts[i], func(si, pi, oi ID) bool {
					cat = append(cat, TripleID{si, pi, oi})
					return true
				})
			}
			if !slices.Equal(cat, want) {
				t.Fatalf("iter %d pattern (%v %v %v): ScanRange over cuts %v gave %d rows, log filter %d", iter, s, p, o, cuts, len(cat), len(want))
			}
		}
		for id := ID(0); int(id) < g.TermCount(); id++ {
			bid, _ := built.TermID(g.TermOf(id))
			a, b, c := g.PredStats(id)
			x, y, z := built.PredStats(bid)
			if a != x || b != y || c != z {
				t.Fatalf("iter %d: PredStats(%v) = %d %d %d, built %d %d %d", iter, g.TermOf(id), a, b, c, x, y, z)
			}
		}
		a, b, c := g.IndexStats()
		x, y, z := built.IndexStats()
		if a != x || b != y || c != z {
			t.Fatalf("iter %d: IndexStats %d %d %d, built %d %d %d", iter, a, b, c, x, y, z)
		}
		if !slices.Equal(g.Subjects(), built.Subjects()) {
			t.Fatalf("iter %d: Subjects differ from the built graph's", iter)
		}
	}
}

// BenchmarkSortedTermID times TermID of a query's constants — vocabulary
// IRIs under one namespace, two thirds of them in the graph — on a
// 25 600-term graph built by inserts and on its sorted twin, whose
// dictionary has no slot table.
func BenchmarkSortedTermID(b *testing.B) {
	built := NewGraph()
	const ns = "https://github.com/hpc-io/prov-io/ns#"
	for i := 0; i < 12800; i++ {
		built.Add(Triple{S: IRI(fmt.Sprintf("%snode/%d", ns, i)), P: IRI(fmt.Sprintf("%srel%d", ns, i%24)), O: Integer(int64(i))})
	}
	consts := make([]Term, 36) // rel24 and up are absent
	for i := range consts {
		consts[i] = IRI(fmt.Sprintf("%srel%d", ns, i))
	}
	for _, c := range []struct {
		name string
		g    *Graph
	}{{"built", built}, {"sorted", sortedOf(built)}} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for k, t := range consts {
					if _, ok := c.g.TermID(t); ok != (k < 24) {
						b.Fatalf("TermID(%v) found %v", t, ok)
					}
				}
			}
		})
	}
}
