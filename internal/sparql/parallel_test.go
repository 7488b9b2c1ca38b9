package sparql

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"github.com/hpc-io/prov-io/internal/rdf"
)

var parityWorkers = []int{1, 2, 4, 8}

// identicalResults checks bit-identical results: same vars, same rows in the
// same order, term for term. Stricter than the multiset oracle — the
// parallel executor promises the serial run's exact output, not a
// reordering of it.
func identicalResults(a, b *Result) bool {
	if len(a.Vars) != len(b.Vars) || len(a.Rows) != len(b.Rows) {
		return false
	}
	for i, v := range a.Vars {
		if b.Vars[i] != v {
			return false
		}
	}
	for i, ra := range a.Rows {
		rb := b.Rows[i]
		if len(ra) != len(rb) {
			return false
		}
		for k, ta := range ra {
			tb, ok := rb[k]
			if !ok || !ta.Equal(tb) {
				return false
			}
		}
	}
	return true
}

// bigParityGraph builds a graph large enough that leading scans clear the
// minParallelScan threshold, with enough value skew to exercise joins,
// DISTINCT collapses, and numeric sorts.
func bigParityGraph(rng *rand.Rand, n int) *rdf.Graph {
	g := rdf.NewGraph()
	for i := 0; i < n; i++ {
		s := rdf.IRI(fmt.Sprintf("%ss%d", parityNS, rng.Intn(n/4+1)))
		g.Add(rdf.Triple{S: s, P: rdf.IRI(parityNS + "p0"), O: rdf.IRI(fmt.Sprintf("%so%d", parityNS, rng.Intn(7)))})
		g.Add(rdf.Triple{S: s, P: rdf.IRI(parityNS + "p1"), O: rdf.Integer(int64(rng.Intn(50)))})
		if rng.Intn(3) == 0 {
			g.Add(rdf.Triple{S: s, P: rdf.IRI(parityNS + "p2"), O: rdf.IRI(fmt.Sprintf("%ss%d", parityNS, rng.Intn(n/4+1)))})
		}
	}
	return g
}

// TestParallelParityRandomBGP: over randomized graphs and BGPs, EvalParallel
// at every worker count returns the serial run's exact rows and
// EvalLegacyNaive's multiset.
func TestParallelParityRandomBGP(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 40; iter++ {
		g := bigParityGraph(rng, 150+rng.Intn(300))
		patterns := randomBGP(rng)
		distinct := ""
		if rng.Intn(3) == 0 {
			distinct = "DISTINCT "
		}
		query := "SELECT " + distinct + "* WHERE { " + strings.Join(patterns, " ") + " }"
		q, err := Parse(query, nil)
		if err != nil {
			t.Fatalf("iter %d: parse %q: %v", iter, query, err)
		}
		serial, err := EvalParallel(g, q, 1)
		if err != nil {
			t.Fatalf("iter %d: serial eval %q: %v", iter, query, err)
		}
		naive, err := EvalLegacyNaive(g, q)
		if err != nil {
			t.Fatalf("iter %d: naive eval %q: %v", iter, query, err)
		}
		if !multisetsEqual(rowMultiset(serial), rowMultiset(naive)) {
			t.Fatalf("iter %d: serial vs naive diverge for %q", iter, query)
		}
		for _, w := range parityWorkers {
			par, err := EvalParallel(g, q, w)
			if err != nil {
				t.Fatalf("iter %d: parallel(%d) eval %q: %v", iter, w, query, err)
			}
			if !identicalResults(serial, par) {
				t.Fatalf("iter %d workers=%d: parallel result differs from serial\nquery: %s\nserial %d rows, parallel %d rows",
					iter, w, query, len(serial.Rows), len(par.Rows))
			}
		}
	}
}

// TestParallelParityStructured covers the specially-compiled forms: FILTER,
// OPTIONAL, UNION and property paths (both task-decomposed, no serial
// fallback), ORDER BY/LIMIT/OFFSET, DISTINCT, and GROUP BY/aggregates.
func TestParallelParityStructured(t *testing.T) {
	g := lineageGraph()
	// Pad the graph so leading scans, paths, and UNION alternatives cross
	// the parallel threshold.
	derived := rdf.IRI("http://www.w3.org/ns/prov#wasDerivedFrom")
	attr := rdf.IRI("http://www.w3.org/ns/prov#wasAttributedTo")
	for i := 0; i < 300; i++ {
		s := rdf.IRI(fmt.Sprintf("http://example.org/pad%d", i))
		g.Add(rdf.Triple{S: s, P: rdf.IRI("http://example.org/size"), O: rdf.Integer(int64(i % 97))})
		g.Add(rdf.Triple{S: s, P: derived, O: rdf.IRI(fmt.Sprintf("http://example.org/pad%d", i/2))})
		g.Add(rdf.Triple{S: s, P: attr, O: rdf.IRI(fmt.Sprintf("http://example.org/prog%d", i%2))})
	}
	queries := []string{
		`SELECT ?e ?s WHERE { ?e ex:size ?s . FILTER(?s > 100) }`,
		`SELECT ?e ?s WHERE { ?e ex:size ?s . FILTER(?s > 40 && ?s < 90) }`,
		`SELECT ?e ?p WHERE { ?e ex:size ?s . OPTIONAL { ?e prov:wasAttributedTo ?p } }`,
		`SELECT ?x WHERE { { ?x prov:wasAttributedTo ex:prog0 } UNION { ?x prov:wasAttributedTo ex:prog1 } }`,
		`SELECT ?x ?s WHERE { { ?x prov:wasAttributedTo ex:prog0 } UNION { ?x prov:wasDerivedFrom+ ?s } }`,
		`SELECT ?src WHERE { ex:decimate.h5 prov:wasDerivedFrom+ ?src . }`,
		`SELECT ?s ?anc WHERE { ?s prov:wasDerivedFrom+ ?anc . }`,
		`SELECT ?s ?anc WHERE { ?s prov:wasDerivedFrom/prov:wasDerivedFrom ?anc . }`,
		`SELECT ?e ?s WHERE { ?e ex:size ?s . } ORDER BY DESC(?s) LIMIT 2`,
		`SELECT ?e ?s WHERE { ?e ex:size ?s . } ORDER BY ?s OFFSET 5 LIMIT 10`,
		`SELECT DISTINCT ?p WHERE { ?e ?p ?o . }`,
		`SELECT DISTINCT ?s WHERE { ?e ex:size ?s . }`,
		`SELECT (COUNT(?e) AS ?n) WHERE { ?e ex:size ?s . }`,
		`SELECT ?p (COUNT(?e) AS ?n) WHERE { ?e ?p ?o . } GROUP BY ?p ORDER BY ?p`,
		`SELECT (SUM(?s) AS ?total) (AVG(?s) AS ?mean) (MIN(?s) AS ?lo) (MAX(?s) AS ?hi) WHERE { ?e ex:size ?s . }`,
		`SELECT ?prog (COUNT(*) AS ?n) WHERE { { ?x prov:wasAttributedTo ?prog } UNION { ?x prov:wasDerivedFrom ?prog } } GROUP BY ?prog`,
		`SELECT ?anc (COUNT(?s) AS ?n) WHERE { ?s prov:wasDerivedFrom+ ?anc . } GROUP BY ?anc`,
		`SELECT ?s ?p ?o WHERE { ?s ?p ?o . }`,
	}
	for _, query := range queries {
		q, err := Parse(query, testNS())
		if err != nil {
			t.Fatalf("parse %q: %v", query, err)
		}
		serial, err := EvalParallel(g, q, 1)
		if err != nil {
			t.Fatalf("serial eval %q: %v", query, err)
		}
		for _, w := range parityWorkers {
			par, err := EvalParallel(g, q, w)
			if err != nil {
				t.Fatalf("parallel(%d) eval %q: %v", w, query, err)
			}
			if !identicalResults(serial, par) {
				t.Errorf("workers=%d: parallel differs from serial for %q\nserial:   %v\nparallel: %v",
					w, query, rowMultiset(serial), rowMultiset(par))
			}
		}
	}
}

// TestParallelSortLargeResult pushes the result set past minParallelSort so
// the chunked stable sort + pairwise merge path actually runs, and checks
// bit-identical output (the stable order is unique, so any instability or
// merge tie-break bug shows up as a diff).
func TestParallelSortLargeResult(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	g := rdf.NewGraph()
	for i := 0; i < 6000; i++ {
		g.Add(rdf.Triple{
			S: rdf.IRI(fmt.Sprintf("%sitem%d", parityNS, i)),
			P: rdf.IRI(parityNS + "val"),
			// Few distinct values: lots of sort ties to break by input order.
			O: rdf.Integer(int64(rng.Intn(5))),
		})
	}
	query := "SELECT ?s ?v WHERE { ?s <" + parityNS + "val> ?v . } ORDER BY ?v"
	q, err := Parse(query, nil)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	serial, err := EvalParallel(g, q, 1)
	if err != nil {
		t.Fatalf("serial: %v", err)
	}
	if len(serial.Rows) != 6000 {
		t.Fatalf("serial returned %d rows, want 6000", len(serial.Rows))
	}
	for _, w := range parityWorkers {
		par, err := EvalParallel(g, q, w)
		if err != nil {
			t.Fatalf("parallel(%d): %v", w, err)
		}
		if !identicalResults(serial, par) {
			t.Fatalf("workers=%d: large sorted result differs from serial", w)
		}
	}
}

// TestParallelFilterError: a FILTER error inside a morsel worker surfaces
// from EvalParallel just as it does from a serial run.
func TestParallelFilterError(t *testing.T) {
	g := rdf.NewGraph()
	for i := 0; i < 400; i++ {
		g.Add(rdf.Triple{
			S: rdf.IRI(fmt.Sprintf("%sx%d", parityNS, i)),
			P: rdf.IRI(parityNS + "p"),
			O: rdf.Literal("v"),
		})
	}
	query := `SELECT ?s WHERE { ?s <` + parityNS + `p> ?o . FILTER(REGEX(?o, "[")) }`
	q, err := Parse(query, nil)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if _, err := EvalParallel(g, q, 1); err == nil {
		t.Fatal("serial eval accepted bad regex")
	}
	for _, w := range parityWorkers {
		if _, err := EvalParallel(g, q, w); err == nil {
			t.Fatalf("workers=%d: parallel eval swallowed the FILTER error", w)
		}
	}
}
