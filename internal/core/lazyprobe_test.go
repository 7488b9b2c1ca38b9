package core

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"

	"github.com/hpc-io/prov-io/internal/model"
	"github.com/hpc-io/prov-io/internal/rdf"
	"github.com/hpc-io/prov-io/internal/sparql"
)

// decodedFootprint is the store's whole decoded size as the cache charges
// it: an unbounded view's resident bytes once every unit is materialized —
// the yardstick the bounded budgets divide.
func decodedFootprint(t testing.TB, store *Store) int64 {
	t.Helper()
	v, err := store.OpenLazy(CacheConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := v.MaterializeGraph(1); err != nil {
		t.Fatal(err)
	}
	total := v.Stats().ResidentBytes
	if total <= 0 {
		t.Fatal("empty decoded footprint")
	}
	return total
}

// unitTriples returns the triples of every admitted unit of src, loose
// segments and pack members apart, in the source's ID space.
func unitTriples(t *testing.T, src *LazySource) (loose, member [][3]rdf.ID) {
	t.Helper()
	for k, lu := range src.units {
		du, err := src.view.loadUnit(lu)
		if err != nil {
			t.Fatal(err)
		}
		r := src.remap(k, du)
		du.snap.ForEachMatchIDs(rdf.NoID, rdf.NoID, rdf.NoID, func(a, b, c rdf.ID) bool {
			tr := [3]rdf.ID{src.toGlobal(r, du, a), src.toGlobal(r, du, b), src.toGlobal(r, du, c)}
			if lu.member == "" {
				loose = append(loose, tr)
			} else {
				member = append(member, tr)
			}
			return true
		})
	}
	return loose, member
}

// collectProbe and collectScan render what ForEachMatchIDs and a whole-domain
// ScanRange emit for a pattern, in order.
func collectProbe(src *LazySource, pat [3]rdf.ID) []string {
	var out []string
	src.ForEachMatchIDs(pat[0], pat[1], pat[2], func(a, b, c rdf.ID) bool {
		out = append(out, fmt.Sprintf("%d %d %d", a, b, c))
		return true
	})
	return out
}

func collectScan(src *LazySource, pat [3]rdf.ID) []string {
	var out []string
	src.ScanRange(pat[0], pat[1], pat[2], 0, src.ScanLen(pat[0], pat[1], pat[2]), func(a, b, c rdf.ID) bool {
		out = append(out, fmt.Sprintf("%d %d %d", a, b, c))
		return true
	})
	return out
}

// TestLazyForEachMatchEqualsScanRange pins the streaming probe to the
// morsel domain: for every pattern shape, with constants held by a loose
// segment, by a pack member only, and by no unit at all, ForEachMatchIDs
// emits exactly the triples ScanRange(0, ScanLen) emits, in the same order,
// at every cache budget. The constants are drawn from, and every probe runs
// through, one source: IDs belong to the source that handed them out. A
// probe that stops must stop the walk, and a failed view emits nothing.
func TestLazyForEachMatchEqualsScanRange(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		store := buildScatteredStore(t, rng)
		total := decodedFootprint(t, store)
		for _, budget := range []int64{1, total / 2, 0} {
			tag := fmt.Sprintf("seed %d budget %d", seed, budget)
			v, err := store.OpenLazy(CacheConfig{MaxBytes: budget})
			if err != nil {
				t.Fatal(err)
			}
			src := v.Source(nil)
			loose, member := unitTriples(t, src)
			inLoose := make(map[[3]rdf.ID]bool, len(loose))
			for _, tr := range loose {
				inLoose[tr] = true
			}
			var memberOnly [][3]rdf.ID
			for _, tr := range member {
				if !inLoose[tr] {
					memberOnly = append(memberOnly, tr)
				}
			}
			if len(loose) == 0 || len(memberOnly) == 0 {
				t.Fatalf("%s: layout lost a side: %d loose triples, %d held by pack members only", tag, len(loose), len(memberOnly))
			}
			absent := [3]rdf.ID{
				src.dict.Intern(rdf.IRI("urn:absent-s")),
				src.dict.Intern(rdf.IRI("urn:absent-p")),
				src.dict.Intern(rdf.IRI("urn:absent-o")),
			}
			places := map[string][][3]rdf.ID{
				"loose":       {loose[0], loose[rng.Intn(len(loose))]},
				"member-only": {memberOnly[0], memberOnly[rng.Intn(len(memberOnly))]},
				"absent":      {absent},
			}
			for place, consts := range places {
				for _, c := range consts {
					for shape := 0; shape < 8; shape++ {
						pat := [3]rdf.ID{rdf.NoID, rdf.NoID, rdf.NoID}
						for i := range pat {
							if shape&(1<<i) != 0 {
								pat[i] = c[i]
							}
						}
						got := collectProbe(src, pat)
						want := collectScan(src, pat)
						if fmt.Sprint(got) != fmt.Sprint(want) {
							t.Fatalf("%s %s pattern %v: ForEachMatchIDs emitted %v, ScanRange %v", tag, place, pat, got, want)
						}
						if place != "absent" && shape != 0 && len(got) == 0 {
							t.Fatalf("%s %s pattern %v: the triple it was drawn from is missing", tag, place, pat)
						}
					}
				}
			}

			all := collectProbe(src, [3]rdf.ID{rdf.NoID, rdf.NoID, rdf.NoID})
			for _, stop := range []int{1, len(all) / 2} {
				n := 0
				src.ForEachMatchIDs(rdf.NoID, rdf.NoID, rdf.NoID, func(a, b, c rdf.ID) bool {
					n++
					return n < stop
				})
				if n != stop {
					t.Fatalf("%s: fn stopped at %d but the walk emitted %d", tag, stop, n)
				}
			}
			if err := v.Err(); err != nil {
				t.Fatalf("%s: %v", tag, err)
			}
		}

		v, err := store.OpenLazy(CacheConfig{})
		if err != nil {
			t.Fatal(err)
		}
		v.fail(errors.New("injected"))
		if got := collectProbe(v.Source(nil), [3]rdf.ID{rdf.NoID, rdf.NoID, rdf.NoID}); len(got) != 0 {
			t.Fatalf("seed %d: a failed view emitted %d triples", seed, len(got))
		}
	}
}

// TestLazyProbesRetainNothing: a probe keeps nothing after it returns. Tens
// of thousands of distinct bound probes through one source, whose
// dictionary and remap slots a full walk has already filled, must leave the
// heap where the first few left it: the cache holds at most its budget, the
// dictionary already holds every probed ID, and nothing else may remember a
// pattern. Only ScanLen records a pattern.
func TestLazyProbesRetainNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("heap readings are not the program's own under the race detector")
	}
	const probes = 20000
	rng := rand.New(rand.NewSource(5))
	store := buildScatteredStore(t, rng)
	v, err := store.OpenLazy(CacheConfig{MaxBytes: decodedFootprint(t, store) / 8})
	if err != nil {
		t.Fatal(err)
	}
	src := v.Source(nil)
	src.ForEachMatchIDs(rdf.NoID, rdf.NoID, rdf.NoID, func(rdf.ID, rdf.ID, rdf.ID) bool { return true }) // interns every term
	terms := rdf.ID(src.dict.Count())
	pats := make([][3]rdf.ID, 0, probes)
	for i := rdf.ID(0); len(pats) < probes; i++ {
		a, b := i%terms, (i/terms)%terms
		switch (i / (terms * terms)) % 3 {
		case 0:
			pats = append(pats, [3]rdf.ID{a, rdf.NoID, b})
		case 1:
			pats = append(pats, [3]rdf.ID{a, b, rdf.NoID})
		default:
			pats = append(pats, [3]rdf.ID{rdf.NoID, a, b})
		}
	}
	probe := func(pats [][3]rdf.ID) {
		for _, p := range pats {
			src.ForEachMatchIDs(p[0], p[1], p[2], func(rdf.ID, rdf.ID, rdf.ID) bool { return true })
		}
	}
	probe(pats[:100]) // the cache fills to its budget
	before := liveHeap()
	probe(pats)
	after := liveHeap()
	runtime.KeepAlive(v)
	if count := src.dict.Count(); rdf.ID(count) != terms {
		t.Fatalf("probes on interned IDs grew the dictionary from %d to %d terms", terms, count)
	}
	grew := int64(after) - int64(before)
	t.Logf("%d probes over %d admitted units: heap %d -> %d bytes (%+d)", probes, len(v.layout.units), before, after, grew)
	if grew >= 256<<10 {
		t.Fatalf("%d probes retained %d bytes (budget 256 KiB)", probes, grew)
	}
	if err := v.Err(); err != nil {
		t.Fatal(err)
	}

	asked := [][3]rdf.ID{{rdf.NoID, rdf.NoID, rdf.NoID}, pats[7], pats[len(pats)-1]}
	for _, p := range asked {
		src.ScanLen(p[0], p[1], p[2])
		src.ScanRange(p[0], p[1], p[2], 0, 1, func(rdf.ID, rdf.ID, rdf.ID) bool { return true })
	}
	for _, p := range pats[:50] {
		src.ForEachMatchIDs(p[0], p[1], p[2], func(rdf.ID, rdf.ID, rdf.ID) bool { return true })
	}
	var got []string
	for p := range src.domains {
		got = append(got, fmt.Sprint(p))
	}
	var want []string
	for _, p := range asked {
		want = append(want, fmt.Sprint(p))
	}
	sort.Strings(got)
	sort.Strings(want)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("source recorded domains %v, want exactly the ScanLen patterns %v", got, want)
	}
}

// TestLazyAbsentTermsAreNotInterned: a query constant no admitted unit can
// hold resolves as absent, as it does on a snapshot, and never enters the
// source's dictionary. A term the dictionary already holds keeps its ID.
func TestLazyAbsentTermsAreNotInterned(t *testing.T) {
	const queries = 10000
	rng := rand.New(rand.NewSource(3))
	store := buildScatteredStore(t, rng)
	v, err := store.OpenLazy(CacheConfig{MaxBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	src := v.Source(nil)
	held := rdf.IRI("urn:n0")
	id, ok := src.TermID(held)
	if !ok {
		t.Fatal("a term a unit holds did not resolve")
	}
	if again, ok := src.TermID(held); !ok || again != id {
		t.Fatalf("TermID(%v) = %d, %v; was %d", held, again, ok, id)
	}
	if _, ok := src.TermID(rdf.IRI("urn:never")); ok {
		t.Fatal("a term no unit holds resolved")
	}
	interned := src.dict.Intern(rdf.IRI("urn:interned-but-absent"))
	if got, ok := src.TermID(rdf.IRI("urn:interned-but-absent")); !ok || got != interned {
		t.Fatalf("a term the dictionary holds resolved to %d, %v; want %d", got, ok, interned)
	}

	rel := model.AllRelations()[0].IRI().Value
	shapes := []string{
		`SELECT ?p ?o WHERE { <urn:absent%d> ?p ?o }`,
		`SELECT ?s ?o WHERE { ?s <urn:absent%d> ?o }`,
		`SELECT ?s WHERE { ?s ?p ?o . ?o ?q <urn:absent%d> }`,
		`SELECT ?s ?o WHERE { ?s <` + rel + `>/<urn:absent%d>* ?o }`,
		`SELECT ?s WHERE { ?s ?p ?o FILTER(?o != <urn:absent%d>) }`,
	}
	src.ForEachMatchIDs(rdf.NoID, rdf.NoID, rdf.NoID, func(rdf.ID, rdf.ID, rdf.ID) bool { return true }) // interns every unit's terms
	before := src.dict.Count()
	for i := 0; i < queries; i++ {
		q, err := sparql.Parse(fmt.Sprintf(shapes[i%len(shapes)], i), model.Namespaces())
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := sparql.EvalParallelOnInfo(src, q, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := src.Err(); err != nil {
		t.Fatal(err)
	}
	if after := src.dict.Count(); after != before {
		t.Fatalf("%d queries naming absent IRIs grew the source's dictionary from %d to %d terms", queries, before, after)
	}
}

// BenchmarkLazyProbe times one bound probe of the lineage walk's two shapes,
// (n ? ?) and (? ? n), over every node of a store eight times the cache
// budget, through one source as a walk uses it; after the first pass over
// the nodes every probe repeats a pattern. misses/op counts the units a
// probe had to decode again: every unit whose stats admit the pattern, as
// nothing is remembered between probes.
func BenchmarkLazyProbe(b *testing.B) {
	store := buildScatteredStore(b, rand.New(rand.NewSource(1)))
	v, err := store.OpenLazy(CacheConfig{MaxBytes: decodedFootprint(b, store) / 8})
	if err != nil {
		b.Fatal(err)
	}
	src := v.Source(nil)
	var pats [][3]rdf.ID
	for i := 0; i < 40; i++ {
		if n, ok := src.TermID(rdf.IRI(fmt.Sprintf("urn:n%d", i))); ok {
			pats = append(pats, [3]rdf.ID{n, rdf.NoID, rdf.NoID}, [3]rdf.ID{rdf.NoID, rdf.NoID, n})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pats[i%len(pats)]
		src.ForEachMatchIDs(p[0], p[1], p[2], func(rdf.ID, rdf.ID, rdf.ID) bool { return true })
	}
	b.StopTimer()
	if err := v.Err(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(v.Stats().Misses)/float64(b.N), "misses/op")
}

// buildWideStore writes a store of many distinct terms in a fixed layout: 12
// delta segments folded into a level-1 pack and 8 loose ones after it, 20
// units in all. Each unit mints 300 subjects, each with a literal of its own
// and a derivation edge to an earlier subject, so every unit adds about 600
// terms and a lineage walk crosses units.
func buildWideStore(t testing.TB) *Store {
	t.Helper()
	store := newBinaryVFSStore(t)
	derived := model.AllRelations()[0].IRI()
	write := func(first, n int) {
		for seg := first; seg < first+n; seg++ {
			triples := make([]rdf.Triple, 0, 900)
			for i := 0; i < 300; i++ {
				node := wideNode(seg, i)
				triples = append(triples,
					rdf.Triple{S: node, P: rdf.IRI("urn:label"), O: rdf.Literal(fmt.Sprintf("label %d of unit %d", i, seg))},
					rdf.Triple{S: node, P: rdf.IRI("urn:size"), O: rdf.Integer(int64(seg*1000 + i))})
				if seg > 0 {
					triples = append(triples, rdf.Triple{S: node, P: derived, O: wideNode(seg-1, (i*7)%300)})
				}
			}
			if err := writeDelta(store, seg%4, seg/4, triples); err != nil {
				t.Fatal(err)
			}
		}
	}
	write(0, 12)
	if _, err := store.PackSegments(1); err != nil {
		t.Fatalf("PackSegments: %v", err)
	}
	write(12, 8)
	return store
}

func wideNode(seg, i int) rdf.Term { return rdf.IRI(fmt.Sprintf("urn:wide/u%d/n%d", seg, i)) }

// TestLazyViewKeepsOnlyItsCache: a view holds its layout and its budgeted
// cache, and nothing a query leaves behind. Over a store of more than 10⁴
// distinct terms in 20 units, opened at an eighth of its decoded footprint,
// a MaterializeGraph and 200 queries through fresh sources — an all-unit
// aggregate, a bound select and a 2-hop lineage reduction — may grow the
// live heap past its open-time reading by at most the budget and 128 KiB.
// A view that kept a dictionary of every term it decoded grows by the
// store's dictionary.
func TestLazyViewKeepsOnlyItsCache(t *testing.T) {
	if raceEnabled {
		t.Skip("heap readings are not the program's own under the race detector")
	}
	store := buildWideStore(t)
	budget := decodedFootprint(t, store) / 8
	agg, err := sparql.Parse(`SELECT ?p (COUNT(?s) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?p`, model.Namespaces())
	if err != nil {
		t.Fatal(err)
	}
	selects := make([]*sparql.Query, 0, 20)
	for u := 0; u < 20; u++ {
		q, err := sparql.Parse(fmt.Sprintf(`SELECT ?p ?o WHERE { <%s> ?p ?o }`, wideNode(u, 17*u%300).Value), model.Namespaces())
		if err != nil {
			t.Fatal(err)
		}
		selects = append(selects, q)
	}
	v, err := store.OpenLazy(CacheConfig{MaxBytes: budget})
	if err != nil {
		t.Fatal(err)
	}
	opened := liveHeap()
	g, _, err := v.MaterializeGraph(2)
	if err != nil {
		t.Fatal(err)
	}
	terms := g.TermCount() // g dies here: the view must not keep what it built
	for i := 0; i < 200; i++ {
		var err error
		switch i % 3 {
		case 0:
			_, _, err = sparql.EvalParallelOnInfo(v.Source(nil), agg, 2)
		case 1:
			_, _, err = sparql.EvalParallelOnInfo(v.Source(nil), selects[i%len(selects)], 2)
		default:
			_, _, err = v.ReduceLineagePruned([]rdf.Term{wideNode(19-i%8, i%300)}, 2, 1)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := v.Err(); err != nil {
		t.Fatal(err)
	}
	after := liveHeap()
	runtime.KeepAlive(v)
	if terms < 10000 || len(v.layout.units) < 16 {
		t.Fatalf("store holds %d terms in %d units; the test needs 10⁴ in 16", terms, len(v.layout.units))
	}
	grew := int64(after) - int64(opened)
	t.Logf("%d terms in %d units, budget %d: heap %d -> %d bytes (%+d), %d bytes resident",
		terms, len(v.layout.units), budget, opened, after, grew, v.Stats().ResidentBytes)
	if grew > budget+128<<10 {
		t.Fatalf("the view grew the heap by %d bytes, past its budget %d + 128 KiB", grew, budget)
	}
}

// TestLazySourceIDsSurviveEviction: at a budget that keeps no unit resident,
// every emit decodes its unit again, and a source's IDs do not move: two
// whole walks through one source emit the same ID triples, and the second
// interns nothing.
func TestLazySourceIDsSurviveEviction(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		store := buildScatteredStore(t, rand.New(rand.NewSource(seed)))
		v, err := store.OpenLazy(CacheConfig{MaxBytes: 1})
		if err != nil {
			t.Fatal(err)
		}
		src := v.Source(nil)
		all := [3]rdf.ID{rdf.NoID, rdf.NoID, rdf.NoID}
		first := collectProbe(src, all)
		terms := src.dict.Count()
		second := collectProbe(src, all)
		if fmt.Sprint(first) != fmt.Sprint(second) {
			t.Fatalf("seed %d: the second walk emitted %v, the first %v", seed, second, first)
		}
		if grew := src.dict.Count() - terms; grew != 0 {
			t.Fatalf("seed %d: the second walk interned %d terms", seed, grew)
		}
		if st := v.Stats(); st.ResidentUnits != 0 || st.Misses < 2*uint64(src.Admitted()) {
			t.Fatalf("seed %d: %d units resident, %d misses over %d units: the walks were not decoded twice", seed, st.ResidentUnits, st.Misses, src.Admitted())
		}
		if err := v.Err(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestLazySourceInternsWhatItEmits: a source interns the terms its query
// names or emits, not every term of the units it touches, so a bound select
// on a warm view costs its answers and not the units' dictionaries. The
// select names one node of a 600-term unit and answers three rows, each with
// a predicate and an object of its own: the source holds those six terms and
// the node.
func TestLazySourceInternsWhatItEmits(t *testing.T) {
	store := buildWideStore(t)
	v, err := store.OpenLazy(CacheConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := v.MaterializeGraph(1); err != nil {
		t.Fatal(err)
	}
	q, err := sparql.Parse(fmt.Sprintf(`SELECT ?p ?o WHERE { <%s> ?p ?o }`, wideNode(5, 17).Value), model.Namespaces())
	if err != nil {
		t.Fatal(err)
	}
	src := v.Source(nil)
	res, _, err := sparql.EvalParallelOnInfo(src, q, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("the select answered %d rows, want 3", len(res.Rows))
	}
	if n := src.dict.Count(); n != 1+2*len(res.Rows) {
		t.Fatalf("the source interned %d terms for a select that names 1 and emits %d", n, 2*len(res.Rows))
	}
}

// BenchmarkLazyAggregate times one all-unit aggregate through a fresh
// source, as the query engine runs each query, over a store eight times the
// cache budget; misses/op counts the units it decoded.
func BenchmarkLazyAggregate(b *testing.B) {
	store := buildWideStore(b)
	v, err := store.OpenLazy(CacheConfig{MaxBytes: decodedFootprint(b, store) / 8})
	if err != nil {
		b.Fatal(err)
	}
	q, err := sparql.Parse(`SELECT ?p (COUNT(?s) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?p`, model.Namespaces())
	if err != nil {
		b.Fatal(err)
	}
	misses := v.Stats().Misses
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sparql.EvalParallelOnInfo(v.Source(nil), q, 1); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := v.Err(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(v.Stats().Misses-misses)/float64(b.N), "misses/op")
}

// BenchmarkLazyWarmQueries times the library's pattern of one fresh source
// per query on a long-lived view whose cache holds the whole store: a bound
// select and a 2-hop lineage reduction, each naming a node of a different
// unit per op. Every unit is resident before the timer starts, so misses/op
// reads 0 and what is timed is the query and its ID bridging alone.
func BenchmarkLazyWarmQueries(b *testing.B) {
	store := buildWideStore(b)
	v, err := store.OpenLazy(CacheConfig{})
	if err != nil {
		b.Fatal(err)
	}
	if _, _, err := v.MaterializeGraph(1); err != nil {
		b.Fatal(err)
	}
	selects := make([]*sparql.Query, 0, 20)
	for u := 0; u < 20; u++ {
		q, err := sparql.Parse(fmt.Sprintf(`SELECT ?p ?o WHERE { <%s> ?p ?o }`, wideNode(u, 17*u%300).Value), model.Namespaces())
		if err != nil {
			b.Fatal(err)
		}
		selects = append(selects, q)
	}
	run := func(b *testing.B, query func(i int) error) {
		misses := v.Stats().Misses
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := query(i); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if err := v.Err(); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(v.Stats().Misses-misses)/float64(b.N), "misses/op")
	}
	b.Run("select", func(b *testing.B) {
		run(b, func(i int) error {
			_, _, err := sparql.EvalParallelOnInfo(v.Source(nil), selects[i%len(selects)], 1)
			return err
		})
	})
	b.Run("lineage", func(b *testing.B) {
		run(b, func(i int) error {
			_, _, err := v.ReduceLineagePruned([]rdf.Term{wideNode(19-i%8, i%300)}, 2, 1)
			return err
		})
	})
}

// TestLazyUnitIsSorted: a cached unit is a sorted graph built straight from
// its decoded columns — its IDs follow term order and its log (S, P, O)
// order, and it holds no dictionary slot table, membership table or spo,
// even once a probe has built its index — and a LazySource over such units
// answers every pattern shape exactly as the eager merged graph does, at
// every cache budget, for constants the store holds and for one it does not.
func TestLazyUnitIsSorted(t *testing.T) {
	render := func(ts []rdf.Triple) []string {
		out := make([]string, len(ts))
		for i, tr := range ts {
			out[i] = tr.String()
		}
		sort.Strings(out)
		return out
	}
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		store := buildScatteredStore(t, rng)
		full, _, err := store.MergePruned(nil, 2)
		if err != nil {
			t.Fatal(err)
		}
		eager := full.Snapshot()
		ts := full.Triples()
		total := decodedFootprint(t, store)
		for _, budget := range []int64{0, 1, total / 2} {
			tag := fmt.Sprintf("seed %d budget %d", seed, budget)
			v, err := store.OpenLazy(CacheConfig{MaxBytes: budget})
			if err != nil {
				t.Fatal(err)
			}
			src := v.Source(nil)
			for k, u := range src.units {
				du, err := v.loadUnit(u)
				if err != nil {
					t.Fatal(err)
				}
				snap := du.snap
				snap.ForEachMatchIDs(0, rdf.NoID, rdf.NoID, func(rdf.ID, rdf.ID, rdf.ID) bool { return true })
				if slots, table, spo := snap.Tables(); slots != 0 || table != 0 || spo != 0 {
					t.Fatalf("%s unit %d: %d slots, a %d-slot membership table, a %d-entry spo", tag, k, slots, table, spo)
				}
				for id := 1; id < snap.TermCount(); id++ {
					if a, b := snap.TermOf(rdf.ID(id-1)), snap.TermOf(rdf.ID(id)); !rdf.TermLess(a, b) {
						t.Fatalf("%s unit %d: term %d %v does not sort before term %d %v", tag, k, id-1, a, id, b)
					}
				}
				prev := [3]rdf.ID{rdf.NoID}
				snap.ForEachMatchIDs(rdf.NoID, rdf.NoID, rdf.NoID, func(s, p, o rdf.ID) bool {
					cur := [3]rdf.ID{s, p, o}
					if prev[0] != rdf.NoID && slices.Compare(prev[:], cur[:]) >= 0 {
						t.Fatalf("%s unit %d: log holds %v after %v", tag, k, cur, prev)
					}
					prev = cur
					return true
				})
			}

			absent := rdf.IRI("urn:absent")
			for draw := 0; draw < 8; draw++ {
				tr := ts[rng.Intn(len(ts))]
				c := [3]rdf.Term{tr.S, tr.P, tr.O}
				if draw == 0 {
					c = [3]rdf.Term{absent, absent, absent}
				}
				for shape := 0; shape < 8; shape++ {
					var pat [3]*rdf.Term
					ids := [3]rdf.ID{rdf.NoID, rdf.NoID, rdf.NoID}
					held := true
					for i := range pat {
						if shape&(1<<i) != 0 {
							pat[i] = &c[i]
							var ok bool
							ids[i], ok = src.TermID(c[i])
							held = held && ok
						}
					}
					var want, got []rdf.Triple
					eager.ForEachMatch(pat[0], pat[1], pat[2], func(x rdf.Triple) bool {
						want = append(want, x)
						return true
					})
					if held {
						src.ForEachMatchIDs(ids[0], ids[1], ids[2], func(s, p, o rdf.ID) bool {
							got = append(got, rdf.Triple{S: src.TermOf(s), P: src.TermOf(p), O: src.TermOf(o)})
							return true
						})
					}
					if g, w := render(got), render(want); !slices.Equal(g, w) {
						t.Fatalf("%s pattern %v (shape %d): lazy %v, eager %v", tag, c, shape, g, w)
					}
				}
			}
			if err := v.Err(); err != nil {
				t.Fatalf("%s: %v", tag, err)
			}
		}
	}
}
