package sparql

import (
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"github.com/hpc-io/prov-io/internal/rdf"
)

const exNS = "http://example.org/"

func exIRI(s string) rdf.Term { return rdf.IRI(exNS + s) }

func testNS() *rdf.Namespaces {
	ns := rdf.NewNamespaces()
	ns.Bind("ex", exNS)
	ns.Bind("prov", "http://www.w3.org/ns/prov#")
	return ns
}

// lineageGraph builds the DASSA-style chain the paper's §6.5 walks through:
// WestSac.tdms -> (tdms2h5) -> WestSac.h5 -> (decimate) -> decimate.h5
func lineageGraph() *rdf.Graph {
	g := rdf.NewGraph()
	wasAttr := rdf.IRI("http://www.w3.org/ns/prov#wasAttributedTo")
	derived := rdf.IRI("http://www.w3.org/ns/prov#wasDerivedFrom")
	g.Add(rdf.Triple{S: exIRI("decimate.h5"), P: wasAttr, O: exIRI("decimate")})
	g.Add(rdf.Triple{S: exIRI("WestSac.h5"), P: wasAttr, O: exIRI("tdms2h5")})
	g.Add(rdf.Triple{S: exIRI("decimate.h5"), P: derived, O: exIRI("WestSac.h5")})
	g.Add(rdf.Triple{S: exIRI("WestSac.h5"), P: derived, O: exIRI("WestSac.tdms")})
	g.Add(rdf.Triple{S: exIRI("decimate.h5"), P: rdf.IRI(exNS + "size"), O: rdf.Integer(100)})
	g.Add(rdf.Triple{S: exIRI("WestSac.h5"), P: rdf.IRI(exNS + "size"), O: rdf.Integer(500)})
	g.Add(rdf.Triple{S: exIRI("WestSac.tdms"), P: rdf.IRI(exNS + "size"), O: rdf.Integer(700)})
	return g
}

func mustExec(t *testing.T, g *rdf.Graph, q string) *Result {
	t.Helper()
	res, _, err := ExecParallelInfo(g, q, testNS(), 1)
	if err != nil {
		t.Fatalf("Exec(%q) error: %v", q, err)
	}
	return res
}

func TestSelectSingleVar(t *testing.T) {
	g := lineageGraph()
	res := mustExec(t, g, `SELECT ?program WHERE { ex:decimate.h5 prov:wasAttributedTo ?program . }`)
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d, want 1: %v", len(res.Rows), res.Rows)
	}
	if got := res.Rows[0]["program"]; got != exIRI("decimate") {
		t.Errorf("program = %v, want ex:decimate", got)
	}
}

func TestSelectStar(t *testing.T) {
	g := lineageGraph()
	res := mustExec(t, g, `SELECT * WHERE { ?e prov:wasAttributedTo ?p . }`)
	if len(res.Vars) != 2 {
		t.Fatalf("vars = %v", res.Vars)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(res.Rows))
	}
}

func TestPredicateObjectList(t *testing.T) {
	g := lineageGraph()
	res := mustExec(t, g, `SELECT ?p ?s WHERE {
		ex:decimate.h5 prov:wasAttributedTo ?p ;
		               ex:size ?s .
	}`)
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(res.Rows))
	}
	if res.Rows[0]["s"] != rdf.Integer(100) {
		t.Errorf("size = %v", res.Rows[0]["s"])
	}
}

func TestJoinAcrossPatterns(t *testing.T) {
	g := lineageGraph()
	// Which file was produced by the program that produced decimate.h5's input?
	res := mustExec(t, g, `SELECT ?input ?prog WHERE {
		ex:decimate.h5 prov:wasDerivedFrom ?input .
		?input prov:wasAttributedTo ?prog .
	}`)
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(res.Rows))
	}
	if res.Rows[0]["input"] != exIRI("WestSac.h5") || res.Rows[0]["prog"] != exIRI("tdms2h5") {
		t.Errorf("row = %v", res.Rows[0])
	}
}

func TestTransitivePath(t *testing.T) {
	g := lineageGraph()
	res := mustExec(t, g, `SELECT ?anc WHERE { ex:decimate.h5 prov:wasDerivedFrom+ ?anc . }`)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2 (h5 and tdms): %v", len(res.Rows), res.Rows)
	}
	got := map[rdf.Term]bool{}
	for _, r := range res.Rows {
		got[r["anc"]] = true
	}
	if !got[exIRI("WestSac.h5")] || !got[exIRI("WestSac.tdms")] {
		t.Errorf("ancestors = %v", got)
	}
}

func TestZeroOrMorePathIncludesSelf(t *testing.T) {
	g := lineageGraph()
	res := mustExec(t, g, `SELECT ?anc WHERE { ex:decimate.h5 prov:wasDerivedFrom* ?anc . }`)
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 (self + 2 ancestors): %v", len(res.Rows), res.Rows)
	}
}

func TestZeroOrOnePath(t *testing.T) {
	g := lineageGraph()
	res := mustExec(t, g, `SELECT ?x WHERE { ex:decimate.h5 prov:wasDerivedFrom? ?x . }`)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2 (self + direct parent): %v", len(res.Rows), res.Rows)
	}
}

func TestInversePath(t *testing.T) {
	g := lineageGraph()
	// Forward lineage: descendants of WestSac.tdms.
	res := mustExec(t, g, `SELECT ?desc WHERE { ex:WestSac.tdms ^prov:wasDerivedFrom+ ?desc . }`)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2: %v", len(res.Rows), res.Rows)
	}
}

func TestSequencePath(t *testing.T) {
	g := lineageGraph()
	res := mustExec(t, g, `SELECT ?p WHERE { ex:decimate.h5 prov:wasDerivedFrom/prov:wasAttributedTo ?p . }`)
	if len(res.Rows) != 1 || res.Rows[0]["p"] != exIRI("tdms2h5") {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestTransitivePathCycleTerminates(t *testing.T) {
	g := rdf.NewGraph()
	p := rdf.IRI(exNS + "p")
	g.Add(rdf.Triple{S: exIRI("a"), P: p, O: exIRI("b")})
	g.Add(rdf.Triple{S: exIRI("b"), P: p, O: exIRI("a")})
	res := mustExec(t, g, `SELECT ?x WHERE { ex:a ex:p+ ?x . }`)
	if len(res.Rows) != 2 {
		t.Fatalf("cycle closure rows = %d, want 2: %v", len(res.Rows), res.Rows)
	}
}

func TestFilterNumericComparison(t *testing.T) {
	g := lineageGraph()
	res := mustExec(t, g, `SELECT ?f WHERE { ?f ex:size ?s . FILTER(?s > 100) }`)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2: %v", len(res.Rows), res.Rows)
	}
}

func TestFilterEquality(t *testing.T) {
	g := lineageGraph()
	res := mustExec(t, g, `SELECT ?f WHERE { ?f ex:size ?s . FILTER(?f = ex:decimate.h5) }`)
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(res.Rows))
	}
}

func TestFilterRegex(t *testing.T) {
	g := lineageGraph()
	res := mustExec(t, g, `SELECT ?f WHERE { ?f ex:size ?s . FILTER(REGEX(STR(?f), "\\.h5$")) }`)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2: %v", len(res.Rows), res.Rows)
	}
}

func TestFilterRegexCaseInsensitive(t *testing.T) {
	g := lineageGraph()
	res := mustExec(t, g, `SELECT ?f WHERE { ?f ex:size ?s . FILTER(REGEX(STR(?f), "WESTSAC", "i")) }`)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2: %v", len(res.Rows), res.Rows)
	}
}

func TestFilterLogical(t *testing.T) {
	g := lineageGraph()
	res := mustExec(t, g, `SELECT ?f WHERE { ?f ex:size ?s . FILTER(?s >= 500 && ?s < 700) }`)
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d, want 1: %v", len(res.Rows), res.Rows)
	}
	res = mustExec(t, g, `SELECT ?f WHERE { ?f ex:size ?s . FILTER(?s = 100 || ?s = 700) }`)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2: %v", len(res.Rows), res.Rows)
	}
	res = mustExec(t, g, `SELECT ?f WHERE { ?f ex:size ?s . FILTER(!(?s = 100)) }`)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2: %v", len(res.Rows), res.Rows)
	}
}

func TestOptional(t *testing.T) {
	g := lineageGraph()
	res := mustExec(t, g, `SELECT ?f ?prog WHERE {
		?f ex:size ?s .
		OPTIONAL { ?f prov:wasAttributedTo ?prog . }
	}`)
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(res.Rows))
	}
	bound := 0
	for _, r := range res.Rows {
		if _, ok := r["prog"]; ok {
			bound++
		}
	}
	if bound != 2 {
		t.Errorf("bound prog rows = %d, want 2", bound)
	}
}

func TestOptionalWithBoundFilter(t *testing.T) {
	g := lineageGraph()
	res := mustExec(t, g, `SELECT ?f WHERE {
		?f ex:size ?s .
		OPTIONAL { ?f prov:wasAttributedTo ?prog . }
		FILTER(!BOUND(?prog))
	}`)
	if len(res.Rows) != 1 || res.Rows[0]["f"] != exIRI("WestSac.tdms") {
		t.Fatalf("rows = %v, want only WestSac.tdms", res.Rows)
	}
}

func TestUnion(t *testing.T) {
	g := lineageGraph()
	res := mustExec(t, g, `SELECT ?x WHERE {
		{ ex:decimate.h5 prov:wasAttributedTo ?x . }
		UNION
		{ ex:WestSac.h5 prov:wasAttributedTo ?x . }
	}`)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2: %v", len(res.Rows), res.Rows)
	}
}

func TestCountStar(t *testing.T) {
	g := lineageGraph()
	res := mustExec(t, g, `SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o . }`)
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.Rows[0]["n"] != rdf.Integer(7) {
		t.Errorf("count = %v, want 7", res.Rows[0]["n"])
	}
}

func TestCountVarDistinct(t *testing.T) {
	g := lineageGraph()
	res := mustExec(t, g, `SELECT DISTINCT (COUNT(?p) AS ?n) WHERE { ?s ?p ?o . }`)
	if res.Rows[0]["n"] != rdf.Integer(3) {
		t.Errorf("distinct predicate count = %v, want 3", res.Rows[0]["n"])
	}
}

func TestDistinct(t *testing.T) {
	g := lineageGraph()
	res := mustExec(t, g, `SELECT DISTINCT ?p WHERE { ?s ?p ?o . }`)
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3: %v", len(res.Rows), res.Rows)
	}
}

func TestOrderByLimitOffset(t *testing.T) {
	g := lineageGraph()
	res := mustExec(t, g, `SELECT ?f ?s WHERE { ?f ex:size ?s . } ORDER BY DESC(?s) LIMIT 2`)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(res.Rows))
	}
	if res.Rows[0]["s"] != rdf.Integer(700) || res.Rows[1]["s"] != rdf.Integer(500) {
		t.Errorf("order wrong: %v", res.Rows)
	}
	res = mustExec(t, g, `SELECT ?f ?s WHERE { ?f ex:size ?s . } ORDER BY ?s OFFSET 1 LIMIT 1`)
	if len(res.Rows) != 1 || res.Rows[0]["s"] != rdf.Integer(500) {
		t.Errorf("offset+limit wrong: %v", res.Rows)
	}
	res = mustExec(t, g, `SELECT ?f WHERE { ?f ex:size ?s . } OFFSET 10`)
	if len(res.Rows) != 0 {
		t.Errorf("offset beyond end returned rows: %v", res.Rows)
	}
}

func TestTypeShorthandA(t *testing.T) {
	g := rdf.NewGraph()
	g.Add(rdf.Triple{S: exIRI("x"), P: rdf.IRI(rdf.RDFType), O: exIRI("File")})
	res := mustExec(t, g, `SELECT ?x WHERE { ?x a ex:File . }`)
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(res.Rows))
	}
}

func TestInQueryPrefixOverridesBase(t *testing.T) {
	g := rdf.NewGraph()
	g.Add(rdf.Triple{S: rdf.IRI("http://other/x"), P: rdf.IRI(rdf.RDFType), O: rdf.IRI("http://other/C")})
	res := mustExec(t, g, `PREFIX ex: <http://other/>
SELECT ?x WHERE { ?x a ex:C . }`)
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(res.Rows))
	}
}

func TestVariablePredicate(t *testing.T) {
	g := lineageGraph()
	res := mustExec(t, g, `SELECT ?p ?o WHERE { ex:decimate.h5 ?p ?o . }`)
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3: %v", len(res.Rows), res.Rows)
	}
}

func TestLiteralObjectPattern(t *testing.T) {
	g := lineageGraph()
	res := mustExec(t, g, `SELECT ?f WHERE { ?f ex:size 100 . }`)
	if len(res.Rows) != 1 || res.Rows[0]["f"] != exIRI("decimate.h5") {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestEmptyResult(t *testing.T) {
	g := lineageGraph()
	res := mustExec(t, g, `SELECT ?x WHERE { ?x ex:nonexistent ?y . }`)
	if len(res.Rows) != 0 {
		t.Fatalf("rows = %v, want none", res.Rows)
	}
}

func TestStatementCount(t *testing.T) {
	q, err := Parse(`SELECT ?x WHERE {
		?x ex:a ?y ; ex:b ?z .
		OPTIONAL { ?x ex:c ?w . }
		{ ?x ex:d ?v . } UNION { ?x ex:e ?v . }
		FILTER(?y > 1)
	}`, testNS())
	if err != nil {
		t.Fatal(err)
	}
	if got := q.StatementCount(); got != 5 {
		t.Errorf("StatementCount = %d, want 5", got)
	}
}

// parseErrorCases are queries Parse must reject (also FuzzParseQuery seeds).
var parseErrorCases = []struct{ name, q string }{
	{"no-select", `WHERE { ?x ?y ?z . }`},
	{"unbound-prefix", `SELECT ?x WHERE { ?x zz:p ?y . }`},
	{"unterminated-group", `SELECT ?x WHERE { ?x ex:p ?y .`},
	{"bad-count", `SELECT (COUNT(?x) ?n) WHERE { ?x ex:p ?y . }`},
	{"bad-limit", `SELECT ?x WHERE { ?x ex:p ?y . } LIMIT abc`},
	{"trailing-garbage", `SELECT ?x WHERE { ?x ex:p ?y . } } }`},
	{"literal-predicate", `SELECT ?x WHERE { ?x "p" ?y . }`},
	{"empty-projection", `SELECT WHERE { ?x ex:p ?y . }`},
	{"unterminated-string", `SELECT ?x WHERE { ?x ex:p "abc . }`},
}

func TestParseErrors(t *testing.T) {
	for _, c := range parseErrorCases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := Parse(c.q, testNS()); err == nil {
				t.Errorf("expected error for %q", c.q)
			}
		})
	}
}

func TestBadRegexPatternErrors(t *testing.T) {
	g := lineageGraph()
	_, _, err := ExecParallelInfo(g, `SELECT ?f WHERE { ?f ex:size ?s . FILTER(REGEX(STR(?f), "[")) }`, testNS(), 1)
	if err == nil {
		t.Error("expected error for invalid regex")
	}
}

func TestDeterministicOrderWithoutOrderBy(t *testing.T) {
	g := rdf.NewGraph()
	for i := 0; i < 20; i++ {
		g.Add(rdf.Triple{S: exIRI(fmt.Sprintf("f%02d", i)), P: rdf.IRI(exNS + "p"), O: rdf.Integer(int64(i))})
	}
	q := `SELECT ?f WHERE { ?f ex:p ?v . }`
	first := mustExec(t, g, q)
	for trial := 0; trial < 5; trial++ {
		again := mustExec(t, g, q)
		for i := range first.Rows {
			if first.Rows[i]["f"] != again.Rows[i]["f"] {
				t.Fatalf("row order not deterministic at %d", i)
			}
		}
	}
}

// lexTokens pulls every token of src from the lexer in term position.
func lexTokens(src string) ([]token, error) {
	l := newLexer(src)
	for toks := []token(nil); ; {
		tok, err := l.next(false)
		if err != nil {
			return nil, err
		}
		if toks = append(toks, tok); tok.kind == tokEOF {
			return toks, nil
		}
	}
}

func TestLexerTokens(t *testing.T) {
	toks, err := lexTokens(`SELECT ?x WHERE { ?x <http://e/p> "s\n" ; a ex:C . FILTER(?x != 3.5) } # c`)
	if err != nil {
		t.Fatal(err)
	}
	var kinds []tokenKind
	for _, tok := range toks {
		kinds = append(kinds, tok.kind)
	}
	want := []tokenKind{tokKeyword, tokVar, tokKeyword, tokLBrace, tokVar, tokIRI, tokString, tokSemi, tokA, tokPName, tokDot,
		tokKeyword, tokLParen, tokVar, tokNeq, tokNumber, tokRParen, tokRBrace, tokEOF}
	if !reflect.DeepEqual(kinds, want) {
		t.Errorf("token kinds %v, want %v", kinds, want)
	}
}

// TestOneTermGrammar: the inputs on which the Turtle parser and the SPARQL
// lexer once read a term differently, from each other, from the grammars or
// from what the writers print. Each doc is a Turtle document of one triple;
// each query asks for its subject by the object's text.
func TestOneTermGrammar(t *testing.T) {
	cases := []struct {
		name, doc, query string
		refused          string // "turtle" or "sparql" when that side must refuse
	}{
		{"printed-iri-escape", `<http://e/s> <http://e/p> <http://e/a\u0020b> .`,
			`SELECT ?s WHERE { ?s <http://e/p> <http://e/a\u0020b> }`, ""},
		{"sparql-string-uchar", `<http://e/s> <http://e/p> "café" .`,
			`SELECT ?s WHERE { ?s <http://e/p> "caf\u00E9" }`, ""},
		{"sparql-exponent-without-digit", `<http://e/s> <http://e/p> 1 .`,
			`SELECT ?s WHERE { ?s <http://e/p> 1e+ }`, "sparql"},
		{"turtle-single-quote", `<http://e/s> <http://e/p> 'single' .`,
			`SELECT ?s WHERE { ?s <http://e/p> "single" }`, ""},
		{"turtle-exponent-without-digit", `<http://e/s> <http://e/p> 1e .`, "", "turtle"},
		// '<' after an expression is an operator, however it is spaced.
		{"unspaced-lt-or", `<http://e/s> <http://e/p> 700 .`,
			`SELECT ?s WHERE { ?s <http://e/p> ?o FILTER(?o<600||?o>650) }`, ""},
		{"unspaced-le-or", `<http://e/s> <http://e/p> 700 .`,
			`SELECT ?s WHERE { ?s <http://e/p> ?o FILTER(?o<=600||?o>650) }`, ""},
		{"unspaced-lt-and", `<http://e/s> <http://e/p> 1 .`,
			`SELECT ?s WHERE { ?s <http://e/p> ?o FILTER(?o<3&&?o>0) }`, ""},
		// Names are read as runes, from the PN_CHARS class table.
		{"non-ascii-local", "@prefix ex: <http://e/> .\n<http://e/s> <http://e/p> ex:café .",
			`PREFIX ex: <http://e/> SELECT ?s WHERE { ?s <http://e/p> ex:café }`, ""},
		{"non-ascii-prefix", "@prefix é: <http://e/> .\n<http://e/s> <http://e/p> é:o·x .",
			`PREFIX é: <http://e/> SELECT ?s WHERE { ?s <http://e/p> <http://e/o·x> }`, ""},
		{"non-ascii-var", `<http://e/s> <http://e/p> <http://e/o> .`,
			`SELECT ?café WHERE { ?café <http://e/p> ?o FILTER(BOUND(?café)) }`, ""},
		{"colon-in-local", "@prefix ex: <http://e/> .\n<http://e/s> <http://e/p> ex:a:b .",
			`PREFIX ex: <http://e/> SELECT ?s WHERE { ?s <http://e/p> ex:a:b }`, ""},
		{"non-ascii-blank", `<http://e/s> <http://e/p> _:bé .`, "", ""},
		{"dot-in-blank", `<http://e/s> <http://e/p> _:b.c .`, "", ""},
		{"blank-starts-with-hyphen", `<http://e/s> <http://e/p> _:-b .`, "", "turtle"},
		{"slash-in-local", "@prefix ex: <http://e/> .\n<http://e/s> <http://e/p> ex:a/b .", "", "turtle"},
		{"hash-in-local", "@prefix ex: <http://e/> .\n<http://e/s> <http://e/p> ex:a#b .", "", "turtle"},
		{"local-starts-with-hyphen", "@prefix ex: <http://e/> .\n<http://e/s> <http://e/p> ex:-a .", "", "turtle"},
		// Keywords are whole words: truex:y is a prefixed name, not true.
		{"true-starts-a-prefix", "@prefix x: <http://x/> .\n@prefix truex: <http://t/> .\n<http://e/s> <http://e/p> truex:y .",
			`SELECT ?s WHERE { ?s <http://e/p> <http://t/y> }`, ""},
		{"false-starts-a-prefix", "@prefix y: <http://y/> .\n@prefix falsey: <http://f/> .\n<http://e/s> <http://e/p> falsey:z .",
			`SELECT ?s WHERE { ?s <http://e/p> <http://f/z> }`, ""},
		// A prefix declaration names one PN_PREFIX.
		{"prefix-of-two-words", "@prefix a b: <http://e/> .\n<http://e/s> <http://e/p> <http://e/o> .", "", "turtle"},
		{"prefix-with-slash", "@prefix é/x: <http://e/> .\n<http://e/s> <http://e/p> <http://e/o> .", "", "turtle"},
		// An IRIREF holds no raw byte the writers escape: space, <, ", {, }, |, ^, `.
		{"raw-space-in-iri", `<http://e/s> <http://e/p> <http://e/a\u0020b> .`,
			`SELECT ?s WHERE { ?s <http://e/p> <http://e/a b> }`, "sparql"},
		{"turtle-raw-space-in-iri", `<http://e/s> <http://e/p> <http://e/a b> .`, "", "turtle"},
		{"lt-in-prefix-iri", `<http://e/s> <http://e/p> <http://e/o> .`,
			`PREFIX :< a <http://e/> SELECT ?s WHERE { ?s <http://e/p> :o }`, "sparql"},
		{"turtle-lt-in-prefix-iri", "@prefix : < a <http://e/> .\n<http://e/s> <http://e/p> :o .", "", "turtle"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			g, _, err := rdf.ParseTurtle(strings.NewReader(c.doc))
			if (err != nil) != (c.refused == "turtle") {
				t.Fatalf("ParseTurtle(%q): %v", c.doc, err)
			}
			if c.query == "" {
				return
			}
			res, _, err := ExecParallelInfo(g, c.query, nil, 1)
			if c.refused == "sparql" {
				if err == nil {
					t.Fatalf("%q was not refused", c.query)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Rows) != 1 {
				t.Fatalf("%q returned %d rows, want 1", c.query, len(res.Rows))
			}
		})
	}
}

func TestLexerErrorsIncludeLine(t *testing.T) {
	_, err := lexTokens("SELECT ?x\nWHERE { ?x & ?y }")
	if err == nil {
		t.Fatal("expected lexer error")
	}
	if !strings.Contains(err.Error(), "line 2") {
		t.Errorf("error lacks line info: %v", err)
	}
}

func TestBGPReorderingSameResults(t *testing.T) {
	// The same BGP written selective-first and selective-last must return
	// identical solutions (join order is a pure optimization).
	g := lineageGraph()
	q1 := `SELECT ?prog ?s WHERE {
		ex:decimate.h5 prov:wasAttributedTo ?prog .
		?f ex:size ?s .
		?f prov:wasAttributedTo ?prog .
	}`
	q2 := `SELECT ?prog ?s WHERE {
		?f ex:size ?s .
		?f prov:wasAttributedTo ?prog .
		ex:decimate.h5 prov:wasAttributedTo ?prog .
	}`
	r1 := mustExec(t, g, q1)
	r2 := mustExec(t, g, q2)
	if len(r1.Rows) != len(r2.Rows) {
		t.Fatalf("row counts differ: %d vs %d", len(r1.Rows), len(r2.Rows))
	}
	for i := range r1.Rows {
		for _, v := range r1.Vars {
			if r1.Rows[i][v] != r2.Rows[i][v] {
				t.Fatalf("row %d differs: %v vs %v", i, r1.Rows[i], r2.Rows[i])
			}
		}
	}
}

func TestBGPUnboundFirstStillCorrect(t *testing.T) {
	// Large graph where naive left-to-right order would enumerate every
	// node before constraining; the reordered join must both finish fast
	// and return the single correct answer.
	g := rdf.NewGraph()
	typeP := rdf.IRI(rdf.RDFType)
	cls := exIRI("File")
	for i := 0; i < 5000; i++ {
		n := exIRI(fmt.Sprintf("f%04d", i))
		g.Add(rdf.Triple{S: n, P: typeP, O: cls})
		g.Add(rdf.Triple{S: n, P: rdf.IRI(exNS + "size"), O: rdf.Integer(int64(i))})
	}
	g.Add(rdf.Triple{S: exIRI("f1234"), P: rdf.IRI(exNS + "special"), O: rdf.Boolean(true)})
	res := mustExec(t, g, `SELECT ?f ?s WHERE {
		?f a ex:File .
		?f ex:size ?s .
		?f ex:special true .
	}`)
	if len(res.Rows) != 1 || res.Rows[0]["s"] != rdf.Integer(1234) {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestFilterBetweenPatternsStillApplies(t *testing.T) {
	// A FILTER splits two BGP runs; reordering must not move patterns
	// across it.
	g := lineageGraph()
	res := mustExec(t, g, `SELECT ?f ?prog WHERE {
		?f ex:size ?s .
		FILTER(?s > 100)
		?f prov:wasAttributedTo ?prog .
	}`)
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Rows[0]["f"] != exIRI("WestSac.h5") {
		t.Errorf("row = %v", res.Rows[0])
	}
}

func TestResultsJSONRoundTrip(t *testing.T) {
	g := lineageGraph()
	res := mustExec(t, g, `SELECT ?f ?s WHERE { ?f ex:size ?s . } ORDER BY ?s`)
	var sb strings.Builder
	if err := res.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	doc := sb.String()
	for _, want := range []string{`"vars"`, `"bindings"`, `"type": "uri"`, `"type": "literal"`,
		"http://www.w3.org/2001/XMLSchema#integer"} {
		if !strings.Contains(doc, want) {
			t.Errorf("JSON missing %q:\n%s", want, doc)
		}
	}
	back, err := parseResultsJSON(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Rows) != len(res.Rows) || len(back.Vars) != 2 {
		t.Fatalf("round trip lost rows: %d vs %d", len(back.Rows), len(res.Rows))
	}
	for i := range res.Rows {
		for _, v := range res.Vars {
			if back.Rows[i][v] != res.Rows[i][v] {
				t.Errorf("row %d var %s: %v != %v", i, v, back.Rows[i][v], res.Rows[i][v])
			}
		}
	}
}

func TestResultsJSONUnboundOmitted(t *testing.T) {
	g := lineageGraph()
	res := mustExec(t, g, `SELECT ?f ?prog WHERE {
		?f ex:size ?s .
		OPTIONAL { ?f prov:wasAttributedTo ?prog . }
	}`)
	var sb strings.Builder
	if err := res.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	back, err := parseResultsJSON(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	unbound := 0
	for _, row := range back.Rows {
		if _, ok := row["prog"]; !ok {
			unbound++
		}
	}
	if unbound != 1 {
		t.Errorf("unbound prog rows = %d, want 1", unbound)
	}
}

func TestParseResultsJSONRejectsGarbage(t *testing.T) {
	if _, err := parseResultsJSON(strings.NewReader("not json")); err == nil {
		t.Error("garbage accepted")
	}
}

// Property: a single-pattern SELECT returns exactly the triples Graph.Find
// returns for the same pattern (the evaluator agrees with the index oracle).
func TestSinglePatternMatchesFindOracle(t *testing.T) {
	f := func(raw []uint8, mode uint8) bool {
		g := rdf.NewGraph()
		for _, v := range raw {
			g.Add(rdf.Triple{
				S: exIRI(fmt.Sprintf("s%d", v%4)),
				P: rdf.IRI(exNS + fmt.Sprintf("p%d", (v/4)%3)),
				O: exIRI(fmt.Sprintf("o%d", (v/12)%4)),
			})
		}
		s0 := exIRI("s0")
		p0 := rdf.IRI(exNS + "p0")
		o0 := exIRI("o0")
		var q string
		var want int
		switch mode % 4 {
		case 0:
			q = `SELECT ?s ?p ?o WHERE { ?s ?p ?o . }`
			want = len(g.Find(nil, nil, nil))
		case 1:
			q = `SELECT ?p ?o WHERE { ex:s0 ?p ?o . }`
			want = len(g.Find(&s0, nil, nil))
		case 2:
			q = `SELECT ?s ?o WHERE { ?s ex:p0 ?o . }`
			want = len(g.Find(nil, &p0, nil))
		case 3:
			q = `SELECT ?s ?p WHERE { ?s ?p ex:o0 . }`
			want = len(g.Find(nil, nil, &o0))
		}
		res, _, err := ExecParallelInfo(g, q, testNS(), 1)
		if err != nil {
			return false
		}
		return len(res.Rows) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// parseResultsJSON parses a W3C SPARQL results JSON document back into a
// Result.
func parseResultsJSON(r io.Reader) (*Result, error) {
	var doc jsonResults
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, err
	}
	out := &Result{Vars: doc.Head.Vars}
	for _, b := range doc.Results.Bindings {
		row := make(Binding, len(b))
		for v, t := range b {
			row[v] = jsonToTerm(t)
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

func jsonToTerm(t jsonTerm) rdf.Term {
	switch t.Type {
	case "uri":
		return rdf.IRI(t.Value)
	case "bnode":
		return rdf.Blank(t.Value)
	default:
		if t.Lang != "" {
			return rdf.LangLiteral(t.Value, t.Lang)
		}
		return rdf.TypedLiteral(t.Value, t.Datatype)
	}
}
