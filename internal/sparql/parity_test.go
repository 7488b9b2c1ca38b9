package sparql

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"github.com/hpc-io/prov-io/internal/rdf"
)

// Parity property: for randomized graphs and every permutation of the basic
// graph pattern, the planner-ordered ID-space engine (EvalParallel) returns
// exactly the row multiset of the naive left-to-right term-space evaluator
// (EvalLegacyNaive). This pins the refactor to the legacy semantics — join
// order and ID-space execution may change performance, never results.

const parityNS = "http://parity.example/"

// rowMultiset flattens a result into a canonical multiset of row keys.
func rowMultiset(res *Result) map[string]int {
	vars := append([]string(nil), res.Vars...)
	sort.Strings(vars)
	m := map[string]int{}
	for _, r := range res.Rows {
		parts := make([]string, 0, len(vars))
		for _, v := range vars {
			if t, ok := r[v]; ok {
				parts = append(parts, fmt.Sprintf("%s=%q", v, t.String()))
			} else {
				parts = append(parts, v+"=∅")
			}
		}
		m[strings.Join(parts, " ")]++
	}
	return m
}

func multisetsEqual(a, b map[string]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, n := range a {
		if b[k] != n {
			return false
		}
	}
	return true
}

// randomParityGraph builds a small graph over fixed subject/predicate/object
// pools so random patterns have a real chance of matching.
func randomParityGraph(rng *rand.Rand) *rdf.Graph {
	g := rdf.NewGraph()
	n := 1 + rng.Intn(40)
	for i := 0; i < n; i++ {
		g.Add(rdf.Triple{
			S: rdf.IRI(fmt.Sprintf("%ss%d", parityNS, rng.Intn(5))),
			P: rdf.IRI(fmt.Sprintf("%sp%d", parityNS, rng.Intn(3))),
			O: rdf.IRI(fmt.Sprintf("%so%d", parityNS, rng.Intn(5))),
		})
	}
	return g
}

// randomBGP returns 1–3 random triple patterns in SPARQL text form. Each
// pattern mixes variables and constants; a variable never repeats within one
// pattern (the legacy evaluator silently overwrites such bindings — the ID
// engine enforces equality — so self-joins within a pattern are out of the
// parity contract).
func randomBGP(rng *rand.Rand) []string {
	vars := []string{"?a", "?b", "?c"}
	npat := 1 + rng.Intn(3)
	patterns := make([]string, npat)
	for i := range patterns {
		used := map[string]bool{}
		pick := func(pool string, poolSize int) string {
			if rng.Intn(2) == 0 {
				for tries := 0; tries < 4; tries++ {
					v := vars[rng.Intn(len(vars))]
					if !used[v] {
						used[v] = true
						return v
					}
				}
			}
			return fmt.Sprintf("<%s%s%d>", parityNS, pool, rng.Intn(poolSize))
		}
		s := pick("s", 5)
		p := pick("p", 3)
		o := pick("o", 5)
		patterns[i] = s + " " + p + " " + o + " ."
	}
	return patterns
}

func permutations(items []string) [][]string {
	if len(items) <= 1 {
		return [][]string{append([]string(nil), items...)}
	}
	var out [][]string
	for i := range items {
		rest := make([]string, 0, len(items)-1)
		rest = append(rest, items[:i]...)
		rest = append(rest, items[i+1:]...)
		for _, p := range permutations(rest) {
			out = append(out, append([]string{items[i]}, p...))
		}
	}
	return out
}

func TestPlannerParityWithNaiveOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 150; iter++ {
		g := randomParityGraph(rng)
		patterns := randomBGP(rng)
		distinct := ""
		if rng.Intn(3) == 0 {
			distinct = "DISTINCT "
		}

		var want map[string]int
		var wantQuery string
		for pi, perm := range permutations(patterns) {
			query := "SELECT " + distinct + "* WHERE { " + strings.Join(perm, " ") + " }"
			q, err := Parse(query, nil)
			if err != nil {
				t.Fatalf("iter %d: parse %q: %v", iter, query, err)
			}
			naive, err := EvalLegacyNaive(g, q)
			if err != nil {
				t.Fatalf("iter %d: naive eval %q: %v", iter, query, err)
			}
			planned, err := EvalParallel(g, q, 1)
			if err != nil {
				t.Fatalf("iter %d: planned eval %q: %v", iter, query, err)
			}
			nm, pm := rowMultiset(naive), rowMultiset(planned)
			if !multisetsEqual(nm, pm) {
				t.Fatalf("iter %d: planner result diverges from naive order\nquery: %s\nnaive:   %v\nplanned: %v",
					iter, query, nm, pm)
			}
			// Every permutation of the same BGP must produce the same rows.
			if pi == 0 {
				want, wantQuery = pm, query
			} else if !multisetsEqual(want, pm) {
				t.Fatalf("iter %d: permutation changes results\nfirst: %s -> %v\nthis:  %s -> %v",
					iter, wantQuery, want, query, pm)
			}
		}
	}
}

// Parity must also hold for the structured forms the planner compiles
// specially: FILTER, OPTIONAL, UNION, property paths, ORDER BY/LIMIT.
func TestPlannerParityStructured(t *testing.T) {
	g := lineageGraph()
	queries := []string{
		`SELECT ?e ?s WHERE { ?e ex:size ?s . FILTER(?s > 100) }`,
		`SELECT ?e ?p WHERE { ?e ex:size ?s . OPTIONAL { ?e prov:wasAttributedTo ?p } }`,
		`SELECT ?x WHERE { { ?x prov:wasAttributedTo ex:decimate } UNION { ?x prov:wasAttributedTo ex:tdms2h5 } }`,
		`SELECT ?src WHERE { ex:decimate.h5 prov:wasDerivedFrom+ ?src . }`,
		`SELECT ?e ?s WHERE { ?e ex:size ?s . } ORDER BY DESC(?s) LIMIT 2`,
		`SELECT DISTINCT ?p WHERE { ?e ?p ?o . }`,
		`SELECT (COUNT(?e) AS ?n) WHERE { ?e ex:size ?s . }`,
		`SELECT ?p (COUNT(?e) AS ?n) WHERE { ?e ?p ?o . } GROUP BY ?p`,
		`SELECT (SUM(?s) AS ?total) (AVG(?s) AS ?mean) WHERE { ?e ex:size ?s . }`,
		`SELECT (MIN(?s) AS ?lo) (MAX(?s) AS ?hi) (COUNT(DISTINCT ?e) AS ?n) WHERE { ?e ex:size ?s . }`,
		`SELECT ?anc (COUNT(?s) AS ?n) WHERE { ?s prov:wasDerivedFrom+ ?anc . } GROUP BY ?anc`,
	}
	for _, query := range queries {
		q, err := Parse(query, testNS())
		if err != nil {
			t.Fatalf("parse %q: %v", query, err)
		}
		naive, err := EvalLegacyNaive(g, q)
		if err != nil {
			t.Fatalf("naive eval %q: %v", query, err)
		}
		planned, err := EvalParallel(g, q, 1)
		if err != nil {
			t.Fatalf("planned eval %q: %v", query, err)
		}
		if !multisetsEqual(rowMultiset(naive), rowMultiset(planned)) {
			t.Errorf("parity failure for %q\nnaive:   %v\nplanned: %v",
				query, rowMultiset(naive), rowMultiset(planned))
		}
	}
}
