package sparql

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/hpc-io/prov-io/internal/rdf"
)

var update = flag.Bool("update", false, "rewrite golden files under testdata/")

func TestGroupByCount(t *testing.T) {
	g := lineageGraph()
	res := mustExec(t, g, `SELECT ?p (COUNT(?e) AS ?n) WHERE { ?e ?p ?o . } GROUP BY ?p`)
	if len(res.Vars) != 2 || res.Vars[0] != "p" || res.Vars[1] != "n" {
		t.Fatalf("vars = %v", res.Vars)
	}
	counts := map[rdf.Term]rdf.Term{}
	for _, r := range res.Rows {
		counts[r["p"]] = r["n"]
	}
	if counts[rdf.IRI(exNS+"size")] != rdf.Integer(3) {
		t.Errorf("size count = %v, want 3", counts[rdf.IRI(exNS+"size")])
	}
	if counts[rdf.IRI("http://www.w3.org/ns/prov#wasDerivedFrom")] != rdf.Integer(2) {
		t.Errorf("derived count = %v", counts[rdf.IRI("http://www.w3.org/ns/prov#wasDerivedFrom")])
	}
}

func TestSumIsTypedInteger(t *testing.T) {
	g := lineageGraph()
	res := mustExec(t, g, `SELECT (SUM(?s) AS ?total) WHERE { ?e ex:size ?s . }`)
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(res.Rows))
	}
	got := res.Rows[0]["total"]
	if got != rdf.Integer(1300) {
		t.Errorf("total = %#v, want 1300^^xsd:integer", got)
	}
	if got.Datatype != rdf.XSDInteger {
		t.Errorf("datatype = %q, want xsd:integer", got.Datatype)
	}
}

func TestAvgIsTypedDecimal(t *testing.T) {
	g := lineageGraph()
	res := mustExec(t, g, `SELECT (AVG(?s) AS ?mean) WHERE { ?e ex:size ?s . }`)
	got := res.Rows[0]["mean"]
	if got.Datatype != rdf.XSDDecimal {
		t.Fatalf("datatype = %q, want xsd:decimal", got.Datatype)
	}
	// (100+500+700)/3 — the lexical form must carry no exponent.
	if got.Value != "433.33333333333337" && got.Value != "433.3333333333333" {
		t.Errorf("mean = %q", got.Value)
	}
	if strings.ContainsAny(got.Value, "eE") {
		t.Errorf("xsd:decimal lexical form uses an exponent: %q", got.Value)
	}
}

func TestSumMixedNumericIsDecimal(t *testing.T) {
	g := rdf.NewGraph()
	g.Add(rdf.Triple{S: exIRI("a"), P: exIRI("v"), O: rdf.Integer(2)})
	g.Add(rdf.Triple{S: exIRI("b"), P: exIRI("v"), O: rdf.Double(0.5)})
	res := mustExec(t, g, `SELECT (SUM(?x) AS ?s) WHERE { ?e ex:v ?x . }`)
	got := res.Rows[0]["s"]
	if got.Datatype != rdf.XSDDecimal || got.Value != "2.5" {
		t.Errorf("sum = %#v, want 2.5^^xsd:decimal", got)
	}
}

func TestMinMax(t *testing.T) {
	g := lineageGraph()
	res := mustExec(t, g, `SELECT (MIN(?s) AS ?lo) (MAX(?s) AS ?hi) WHERE { ?e ex:size ?s . }`)
	if res.Rows[0]["lo"] != rdf.Integer(100) || res.Rows[0]["hi"] != rdf.Integer(700) {
		t.Errorf("row = %v", res.Rows[0])
	}
}

func TestAggregatesOverEmptySequence(t *testing.T) {
	g := lineageGraph()
	res := mustExec(t, g, `SELECT (COUNT(?x) AS ?n) (SUM(?x) AS ?s) (MIN(?x) AS ?lo) WHERE { ?e ex:nope ?x . }`)
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d, want 1 (aggregate over empty input yields one row)", len(res.Rows))
	}
	r := res.Rows[0]
	if r["n"] != rdf.Integer(0) || r["s"] != rdf.Integer(0) {
		t.Errorf("count/sum = %v/%v, want 0/0", r["n"], r["s"])
	}
	if _, bound := r["lo"]; bound {
		t.Errorf("MIN over empty sequence should be unbound, got %v", r["lo"])
	}
}

func TestGroupByEmptyInputYieldsNoGroups(t *testing.T) {
	g := lineageGraph()
	res := mustExec(t, g, `SELECT ?p (COUNT(?e) AS ?n) WHERE { ?e ex:nope ?o . ?e ?p ?o . } GROUP BY ?p`)
	if len(res.Rows) != 0 {
		t.Fatalf("rows = %d, want 0 (GROUP BY over empty input has no groups)", len(res.Rows))
	}
}

func TestCountDistinctInAggregate(t *testing.T) {
	g := lineageGraph()
	res := mustExec(t, g, `SELECT (COUNT(DISTINCT ?p) AS ?n) WHERE { ?e ?p ?o . }`)
	if res.Rows[0]["n"] != rdf.Integer(3) {
		t.Errorf("distinct predicates = %v, want 3", res.Rows[0]["n"])
	}
}

func TestGroupByMultipleKeys(t *testing.T) {
	g := rdf.NewGraph()
	for i := 0; i < 12; i++ {
		s := exIRI(fmt.Sprintf("job%d", i))
		g.Add(rdf.Triple{S: s, P: exIRI("rank"), O: rdf.Integer(int64(i % 2))})
		g.Add(rdf.Triple{S: s, P: exIRI("op"), O: rdf.Literal([]string{"read", "write"}[i%2])})
		g.Add(rdf.Triple{S: s, P: exIRI("bytes"), O: rdf.Integer(int64(10 * (i + 1)))})
	}
	res := mustExec(t, g, `SELECT ?rank ?op (SUM(?b) AS ?total) (COUNT(*) AS ?n) WHERE {
		?j ex:rank ?rank . ?j ex:op ?op . ?j ex:bytes ?b .
	} GROUP BY ?rank ?op ORDER BY ?rank`)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2 groups: %v", len(res.Rows), res.Rows)
	}
	for _, r := range res.Rows {
		if r["n"] != rdf.Integer(6) {
			t.Errorf("group size = %v, want 6", r["n"])
		}
	}
}

// aggregateParseErrors are aggregate queries Parse must reject (also
// FuzzParseQuery seeds).
var aggregateParseErrors = []string{
	`SELECT (SUM(*) AS ?n) WHERE { ?s ?p ?o . }`,
	`SELECT (COUNT(DISTINCT *) AS ?n) WHERE { ?s ?p ?o . }`,
	`SELECT * WHERE { ?s ?p ?o . } GROUP BY ?p`,
	`SELECT ?s (COUNT(?o) AS ?n) WHERE { ?s ?p ?o . } GROUP BY ?p`,
	`SELECT ?p WHERE { ?s ?p ?o . } GROUP BY`,
	`SELECT (BOUND(?o) AS ?n) WHERE { ?s ?p ?o . }`,
}

func TestAggregateParseErrors(t *testing.T) {
	for _, query := range aggregateParseErrors {
		if _, err := Parse(query, nil); err == nil {
			t.Errorf("Parse(%q) accepted an invalid aggregate query", query)
		}
	}
}

// TestAggregateResultsJSONGolden pins the W3C results-JSON rendering of
// aggregate outputs — typed xsd:integer / xsd:decimal literals — to a golden
// fixture. Regenerate with -update.
func TestAggregateResultsJSONGolden(t *testing.T) {
	g := lineageGraph()
	res := mustExec(t, g, `SELECT (COUNT(*) AS ?n) (SUM(?s) AS ?total) (AVG(?s) AS ?mean) WHERE { ?e ex:size ?s . }`)
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	golden := filepath.Join("testdata", "aggregate_results.json")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatalf("update golden: %v", err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("results JSON drifted from golden\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
	// Round-trip: parsing the golden recovers the typed literals.
	back, err := parseResultsJSON(bytes.NewReader(want))
	if err != nil {
		t.Fatalf("parseResultsJSON: %v", err)
	}
	if back.Rows[0]["total"] != rdf.Integer(1300) {
		t.Errorf("round-trip total = %#v", back.Rows[0]["total"])
	}
	if back.Rows[0]["mean"].Datatype != rdf.XSDDecimal {
		t.Errorf("round-trip mean datatype = %q", back.Rows[0]["mean"].Datatype)
	}
}

// TestAggregateParityRandom is the aggregate arm of the engine-parity
// property: over randomized graphs, random GROUP BY/aggregate queries return
// byte-identical results from the serial executor, the legacy term-space
// oracle, and the parallel executor at every worker count.
func TestAggregateParityRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	funcs := []string{"COUNT", "SUM", "MIN", "MAX", "AVG"}
	for iter := 0; iter < 60; iter++ {
		g := bigParityGraph(rng, 150+rng.Intn(300))
		fn := funcs[rng.Intn(len(funcs))]
		distinct := ""
		if fn == "COUNT" && rng.Intn(3) == 0 {
			distinct = "DISTINCT "
		}
		agg := fmt.Sprintf("(%s(%s?b) AS ?agg)", fn, distinct)
		var query string
		if rng.Intn(4) == 0 {
			// Ungrouped: one row over the whole input.
			query = fmt.Sprintf("SELECT %s WHERE { ?a <%sp1> ?b . }", agg, parityNS)
		} else {
			query = fmt.Sprintf("SELECT ?c %s WHERE { ?a <%sp1> ?b . ?a <%sp0> ?c . } GROUP BY ?c", agg, parityNS, parityNS)
		}
		q, err := Parse(query, nil)
		if err != nil {
			t.Fatalf("iter %d: parse %q: %v", iter, query, err)
		}
		serial, err := EvalParallel(g, q, 1)
		if err != nil {
			t.Fatalf("iter %d: serial %q: %v", iter, query, err)
		}
		legacy, err := EvalLegacyNaive(g, q)
		if err != nil {
			t.Fatalf("iter %d: legacy %q: %v", iter, query, err)
		}
		if !identicalResults(serial, legacy) {
			t.Fatalf("iter %d: serial vs legacy diverge for %q\nserial: %v\nlegacy: %v",
				iter, query, rowMultiset(serial), rowMultiset(legacy))
		}
		for _, w := range parityWorkers {
			par, err := EvalParallel(g, q, w)
			if err != nil {
				t.Fatalf("iter %d: parallel(%d) %q: %v", iter, w, query, err)
			}
			if !identicalResults(serial, par) {
				t.Fatalf("iter %d workers=%d: parallel aggregate differs for %q", iter, w, query)
			}
		}
	}
}
