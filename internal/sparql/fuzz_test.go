package sparql

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"github.com/hpc-io/prov-io/internal/model"
	"github.com/hpc-io/prov-io/internal/rdf"
)

// fuzzGraph is the fixed graph FuzzParseQuery evaluates against: 28 triples
// in the PROV-IO vocabulary the §6 queries ask about, plus the ex: lineage
// chain the parser tests query, so seeds have answers to render.
func fuzzGraph() *rdf.Graph {
	g := lineageGraph()
	node := func(c model.Class, id string) rdf.Term { return rdf.IRI(model.NodeIRI(c, id)) }
	product, input := node(model.File, "/das/products/WestSac_0000.decimate.h5"), node(model.File, "/das/WestSac_0000.h5")
	prog, user, thread := node(model.Program, "decimate-a1"), node(model.User, "alice"), node(model.Thread, "rank0")
	read, write := node(model.Read, "H5Dread-1"), node(model.Write, "H5Dwrite-2")
	cfg1, cfg2 := node(model.Configuration, "lr-v1"), node(model.Configuration, "lr-v2")
	activity := rdf.IRI(model.ProvNS + "Activity")
	for _, t := range []rdf.Triple{
		{S: product, P: model.WasAttributedTo.IRI(), O: prog},
		{S: product, P: model.WasDerivedFrom.IRI(), O: input},
		{S: product, P: model.WasWrittenBy.IRI(), O: write},
		{S: product, P: rdf.IRI(rdf.RDFType), O: model.File.IRI()},
		{S: input, P: rdf.IRI(rdf.RDFType), O: model.File.IRI()},
		{S: input, P: model.WasReadBy.IRI(), O: read},
		{S: read, P: model.AssociatedWith.IRI(), O: prog},
		{S: read, P: model.WasMemberOf.IRI(), O: activity},
		{S: read, P: model.PropElapsed.IRI(), O: rdf.Integer(1200)},
		{S: write, P: model.AssociatedWith.IRI(), O: prog},
		{S: write, P: model.WasMemberOf.IRI(), O: activity},
		{S: write, P: model.PropElapsed.IRI(), O: rdf.Integer(800)},
		{S: thread, P: model.ActedOnBehalfOf.IRI(), O: prog},
		{S: prog, P: model.ActedOnBehalfOf.IRI(), O: user},
		{S: cfg1, P: model.PropVersion.IRI(), O: rdf.Integer(1)},
		{S: cfg1, P: model.PropAccuracy.IRI(), O: rdf.TypedLiteral("0.81", rdf.XSDDecimal)},
		{S: cfg2, P: model.PropVersion.IRI(), O: rdf.Integer(2)},
		{S: cfg2, P: model.PropAccuracy.IRI(), O: rdf.TypedLiteral("0.84", rdf.XSDDecimal)},
		{S: cfg2, P: model.WasDerivedFrom.IRI(), O: cfg1},
		{S: user, P: rdf.IRI(rdf.RDFType), O: model.User.IRI()},
		{S: prog, P: rdf.IRI(rdf.RDFType), O: model.Program.IRI()},
	} {
		g.Add(t)
	}
	return g
}

// fuzzSeeds are the paper's §6 queries (Table 5, over fuzzGraph's nodes) and
// queries the parser tests run, one per feature the grammar has.
func fuzzSeeds() []string {
	product := model.NodeIRI(model.File, "/das/products/WestSac_0000.decimate.h5")
	prog := model.NodeIRI(model.Program, "decimate-a1")
	seeds := []string{
		fmt.Sprintf(`SELECT DISTINCT ?file WHERE {
			<%s> prov:wasAttributedTo ?program .
			?file provio:wasReadBy ?api .
			?api prov:wasAssociatedWith <%s> .
		}`, product, prog),
		`SELECT (COUNT(?api) AS ?n) WHERE { ?api prov:wasMemberOf prov:Activity . }`,
		`SELECT ?api ?duration WHERE {
			?api prov:wasMemberOf prov:Activity ;
			     provio:elapsed ?duration .
		} ORDER BY ?api LIMIT 20`,
		fmt.Sprintf(`SELECT DISTINCT ?user WHERE {
			<%s> prov:wasAttributedTo ?program .
			?thread prov:actedOnBehalfOf ?program .
			?program prov:actedOnBehalfOf ?user .
		}`, product),
		`SELECT ?version ?accuracy WHERE {
			?configuration provio:Version ?version ;
			               provio:hasAccuracy ?accuracy .
		}`,
		`SELECT ?x WHERE { ?x <http://e/p> "s\n" ; a ex:C . FILTER(?x != 3.5) } # c`,
		`SELECT ?anc WHERE { ex:decimate.h5 prov:wasDerivedFrom+ ?anc . }`,
		`SELECT ?a WHERE { ex:decimate.h5 prov:wasDerivedFrom* ?a . }`,
		`SELECT ?a WHERE { ex:WestSac.h5 prov:wasDerivedFrom? ?a . }`,
		`SELECT ?x WHERE { ex:WestSac.h5 ^prov:wasDerivedFrom ?x . }`,
		`SELECT ?x WHERE { ex:decimate.h5 prov:wasDerivedFrom/prov:wasAttributedTo ?x . }`,
		`SELECT ?f WHERE { ?f ex:size ?s . FILTER(?s > 200 && !(?s = 700) || REGEX(STR(?f), "^http.*H5$", "i")) }`,
		`SELECT ?f ?p WHERE { ?f ex:size ?s . OPTIONAL { ?f prov:wasAttributedTo ?p . FILTER(BOUND(?p)) } }`,
		`SELECT ?x WHERE { { ?x prov:wasAttributedTo ex:decimate } UNION { ?x ex:size 700 } }`,
		`SELECT (COUNT(DISTINCT ?p) AS ?n) (SUM(?s) AS ?t) (AVG(?s) AS ?m) (MIN(?s) AS ?lo) (MAX(?s) AS ?hi) WHERE { ?e ex:size ?s ; ?p ?o . }`,
		`SELECT ?p (COUNT(*) AS ?n) WHERE { ?s ?p ?o . } GROUP BY ?p ORDER BY DESC(?n) ?p LIMIT 3 OFFSET 1`,
		`PREFIX q: <http://example.org/> SELECT * WHERE { ?s q:size ?o . FILTER(?o >= 100 && ?o <= 500) }`,
		`SELECT ?s WHERE { ?s a provio:File ; ?p "0.84"^^xsd:decimal . }`,
		`SELECT ?f WHERE { ?f ex:size ?o . FILTER(?o<600||?o>650) }`,
		`SELECT ?f WHERE { ?f ex:size ?o . FILTER(?o<=600||?o>=650) }`,
		`SELECT ?f WHERE { ?f ex:size ?o . FILTER(?o<300&&?o>0&&?f!=ex:decimate.h5) }`,
	}
	for _, c := range parseErrorCases {
		seeds = append(seeds, c.q)
	}
	return append(seeds, aggregateParseErrors...)
}

// FuzzParseQuery: Parse never panics and fails only with a *Error; a query it
// accepts compiles to a plan that renders, and runs over fuzzGraph to the same
// results JSON — or the same error — at 1 and at 4 workers.
func FuzzParseQuery(f *testing.F) {
	for _, q := range fuzzSeeds() {
		f.Add(q)
	}
	g := fuzzGraph()
	ns := model.Namespaces()
	ns.Bind("ex", exNS)
	f.Fuzz(func(t *testing.T, query string) {
		q, err := Parse(query, ns)
		if err != nil {
			if _, ok := err.(*Error); !ok {
				t.Fatalf("Parse error %v is a %T, not a *sparql.Error", err, err)
			}
			return
		}
		if Compile(g.Snapshot(), q).String() == "" {
			t.Fatal("the plan renders empty")
		}
		// Three unselective patterns over the graph already make 28³ rows;
		// more would time the fuzzer out on cross products, not find bugs.
		if q.StatementCount() > 3 {
			return
		}
		var out [2]string
		for i, workers := range []int{1, 4} {
			res, err := EvalParallel(g, q, workers)
			if err != nil {
				out[i] = "error: " + err.Error()
				continue
			}
			var buf bytes.Buffer
			if err := res.WriteJSON(&buf); err != nil {
				t.Fatal(err)
			}
			out[i] = buf.String()
		}
		if out[0] != out[1] {
			t.Fatalf("1 worker and 4 workers differ:\n%s\n---\n%s", out[0], out[1])
		}
	})
}

// termSeeds are FuzzTermText's seeds, as (kind, value, lang, datatype): every
// TermKind, every byte an IRIREF must escape, each string escape, language
// tags, integer, double and other typed literals, blank nodes, and local
// names and blank labels in and out of PN_LOCAL and BLANK_NODE_LABEL.
func termSeeds() [][4]string {
	seeds := [][4]string{
		{"0", "x", "", ""},
		{"1", "http://ex.org/a", "", ""},
		{"1", "http://ex.org/café/\xff", "", ""},
		{"2", "b0", "", ""},
		{"2", "n-1_x", "", ""},
		{"3", "", "", ""},
		{"3", `say "hi"`, "", ""},
		{"3", `back\slash A`, "", ""},
		{"3", "line\nbreak", "", ""},
		{"3", "carriage\rreturn", "", ""},
		{"3", "tab\there", "", ""},
		{"3", "it's \b\f\x00 café \U0001F600", "", ""},
		{"3", "\xff", "", ""},
		{"3", "chat", "fr", ""},
		{"3", "color", "en-US", ""},
		{"3", "x", "en_US", ""},
		{"3", "42", "", rdf.XSDInteger},
		{"3", "-7", "", rdf.XSDInteger},
		{"3", "2.5e3", "", rdf.XSDDouble},
		{"3", "0.84", "", rdf.XSDDecimal},
		{"3", "true", "", rdf.XSDBoolean},
		{"3", "x", "", "http://ex.org/d t"},
		{"3", "x", "en", rdf.XSDInteger},
		{"1", "http://ex.org/a", "en", ""},
	}
	for c := 0; c < 256; c++ {
		if c <= ' ' || strings.IndexByte("<>\"{}|^`\\", byte(c)) >= 0 {
			seeds = append(seeds, [4]string{"1", "http://ex.org/a" + string(rune(c)) + "b", "", ""})
		}
	}
	for _, local := range []string{"café", "a.b", "a-", "1a", "a:b", "a.", "-a", "a/b", "·a"} {
		seeds = append(seeds, [4]string{"1", "http://ex.org/" + local, "", ""})
	}
	for _, label := range []string{"bé", "b.c", "-b", "b."} {
		seeds = append(seeds, [4]string{"2", label, "", ""})
	}
	return seeds
}

// FuzzTermText: a term the text writers accept prints, as t.String(), text
// that both parsers read back to it — the Turtle parser as the object of a
// one-triple document, the SPARQL lexer as the object of a triple pattern
// that then matches the one triple of a graph holding t. An IRI WriteTurtle
// prints as ex:local under ex: <http://ex.org/> reads back the same way,
// from the document and as ex:local in a query. SPARQL has no blank nodes in
// this subset, so they take the Turtle checks only.
func FuzzTermText(f *testing.F) {
	for _, s := range termSeeds() {
		f.Add(s[0][0]-'0', s[1], s[2], s[3])
	}
	s, p := rdf.IRI("http://ex.org/s"), rdf.IRI("http://ex.org/p")
	ex := rdf.NewNamespaces()
	ex.Bind("ex", "http://ex.org/")
	f.Fuzz(func(t *testing.T, kind uint8, value, lang, datatype string) {
		term := rdf.Term{Kind: rdf.TermKind(kind), Value: value, Lang: lang, Datatype: datatype}
		g := rdf.NewGraph()
		if !g.Add(rdf.Triple{S: s, P: p, O: term}) || rdf.WriteNTriples(io.Discard, g) != nil {
			return
		}
		text := term.String()
		var ttl strings.Builder
		if err := rdf.WriteTurtle(&ttl, g, ex); err != nil {
			t.Fatal(err)
		}
		for _, doc := range []string{s.String() + " " + p.String() + " " + text + " .\n", ttl.String()} {
			back, _, err := rdf.ParseTurtle(strings.NewReader(doc))
			if err != nil {
				t.Fatalf("ParseTurtle(%q): %v", doc, err)
			}
			if got := back.Triples(); len(got) != 1 || got[0].O != term {
				t.Fatalf("ParseTurtle(%q) = %v, want the object %#v", doc, got, term)
			}
		}
		if term.IsBlank() {
			return
		}
		matchesOnce(t, g, "SELECT ?s WHERE { ?s "+p.String()+" "+text+" }")
		if curie, ok := ex.Shrink(value); ok && term.IsIRI() {
			matchesOnce(t, g, "PREFIX ex: <http://ex.org/> SELECT ?s WHERE { ?s ex:p "+curie+" }")
		}
	})
}

// matchesOnce fails t unless query parses and returns one row over g.
func matchesOnce(t *testing.T, g *rdf.Graph, query string) {
	t.Helper()
	q, err := Parse(query, nil)
	if err != nil {
		t.Fatalf("Parse(%q): %v", query, err)
	}
	res, err := EvalParallel(g, q, 1)
	if err != nil {
		t.Fatalf("%q: %v", query, err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("%q over %v returned %d rows, want 1", query, g.Triples(), len(res.Rows))
	}
}

// TestFilterSpacing: every FILTER expression of the fuzz seeds parses to
// the same Query with one space around each operator and with none, so '<'
// is read by its position, not by what follows it.
func TestFilterSpacing(t *testing.T) {
	ns := model.Namespaces()
	ns.Bind("ex", exNS)
	op := regexp.MustCompile(`\s*(\|\||&&|!=|<=|>=|=|<|>)\s*`)
	filter := regexp.MustCompile(`FILTER\((?:[^()"]|"[^"]*"|\((?:[^()"]|"[^"]*"|\([^()]*\))*\))*\)`)
	respace := func(q, sep string) string {
		return filter.ReplaceAllStringFunc(q, func(f string) string {
			return op.ReplaceAllString(f, sep+"$1"+sep)
		})
	}
	filters := 0
	for _, seed := range fuzzSeeds() {
		if !filter.MatchString(seed) {
			continue
		}
		filters++
		spaced, tight := respace(seed, " "), respace(seed, "")
		q1, err1 := Parse(spaced, ns)
		q2, err2 := Parse(tight, ns)
		if (err1 == nil) != (err2 == nil) || err1 == nil && !reflect.DeepEqual(q1, q2) {
			t.Errorf("%q and %q parse apart: %v, %v", spaced, tight, err1, err2)
		}
	}
	if filters < 6 {
		t.Fatalf("%d seeds hold a FILTER, want at least 6", filters)
	}
}
