package core

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
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
// segments and pack members apart, in global ID space.
func unitTriples(t *testing.T, src *LazySource) (loose, member [][3]rdf.ID) {
	t.Helper()
	for _, lu := range src.units {
		du, err := src.view.loadUnit(lu)
		if err != nil {
			t.Fatal(err)
		}
		du.snap.ForEachMatchIDs(rdf.NoID, rdf.NoID, rdf.NoID, func(a, b, c rdf.ID) bool {
			tr := [3]rdf.ID{du.toGlobal[a], du.toGlobal[b], du.toGlobal[c]}
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
// at every cache budget. A probe that stops must stop the walk, and a failed
// view emits nothing.
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
			loose, member := unitTriples(t, v.Source(nil))
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
				v.dict.Intern(rdf.IRI("urn:absent-s")),
				v.dict.Intern(rdf.IRI("urn:absent-p")),
				v.dict.Intern(rdf.IRI("urn:absent-o")),
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
						got := collectProbe(v.Source(nil), pat)
						want := collectScan(v.Source(nil), pat)
						if fmt.Sprint(got) != fmt.Sprint(want) {
							t.Fatalf("%s %s pattern %v: ForEachMatchIDs emitted %v, ScanRange %v", tag, place, pat, got, want)
						}
						if place != "absent" && shape != 0 && len(got) == 0 {
							t.Fatalf("%s %s pattern %v: the triple it was drawn from is missing", tag, place, pat)
						}
					}
				}
			}

			all := collectProbe(v.Source(nil), [3]rdf.ID{rdf.NoID, rdf.NoID, rdf.NoID})
			for _, stop := range []int{1, len(all) / 2} {
				n := 0
				v.Source(nil).ForEachMatchIDs(rdf.NoID, rdf.NoID, rdf.NoID, func(a, b, c rdf.ID) bool {
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
// of thousands of distinct bound probes, each through a fresh source over
// one view, must leave the heap where the first few left it: the cache
// holds at most its budget, the shared dictionary already holds every
// probed ID, and nothing else may remember a pattern. Only ScanLen records
// a pattern, on its own source.
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
	if _, _, err := v.MaterializeGraph(1); err != nil { // interns every term
		t.Fatal(err)
	}
	terms := rdf.ID(v.dict.Count())
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
			v.Source(nil).ForEachMatchIDs(p[0], p[1], p[2], func(rdf.ID, rdf.ID, rdf.ID) bool { return true })
		}
	}
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	probe(pats[:100]) // the cache fills to its budget
	before := heap()
	probe(pats)
	after := heap()
	runtime.KeepAlive(v)
	if count := v.dict.Count(); rdf.ID(count) != terms {
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

	src := v.Source(nil)
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
// view's dictionary, which lives as long as the view. A term the dictionary
// already holds keeps its ID.
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
	interned := v.dict.Intern(rdf.IRI("urn:interned-but-absent"))
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
	if _, _, err := v.MaterializeGraph(1); err != nil { // interns every unit's terms
		t.Fatal(err)
	}
	before := v.dict.Count()
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
	if after := v.dict.Count(); after != before {
		t.Fatalf("%d queries naming absent IRIs grew the view's dictionary from %d to %d terms", queries, before, after)
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
