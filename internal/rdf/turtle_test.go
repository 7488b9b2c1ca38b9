package rdf

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
)

func TestWriteTurtleGroupsBySubject(t *testing.T) {
	g := NewGraph()
	ns := NewNamespaces()
	ns.Bind("ex", "http://e/")
	g.Add(tr("s", "p", "o1"))
	g.Add(tr("s", "p", "o2"))
	g.Add(tr("s", "q", "o1"))

	var sb strings.Builder
	if err := WriteTurtle(&sb, g, ns); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "@prefix ex: <http://e/> .") {
		t.Errorf("missing prefix declaration:\n%s", out)
	}
	if strings.Count(out, "ex:s ") != 1 {
		t.Errorf("subject should appear once:\n%s", out)
	}
	if !strings.Contains(out, "ex:o1, ex:o2") {
		t.Errorf("object list not comma-grouped:\n%s", out)
	}
	if !strings.Contains(out, ";") {
		t.Errorf("predicate list not semicolon-grouped:\n%s", out)
	}
}

func TestWriteTurtleTypeShorthand(t *testing.T) {
	g := NewGraph()
	g.Add(Triple{IRI("http://e/s"), IRI(RDFType), IRI("http://e/C")})
	ns := NewNamespaces()
	ns.Bind("ex", "http://e/")
	var sb strings.Builder
	if err := WriteTurtle(&sb, g, ns); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "ex:s a ex:C .") {
		t.Errorf("rdf:type not rendered as 'a':\n%s", sb.String())
	}
}

func TestTurtleRoundTrip(t *testing.T) {
	g := NewGraph()
	ns := NewNamespaces()
	ns.Bind("ex", "http://e/")
	ns.Bind("prov", "http://www.w3.org/ns/prov#")
	g.Add(Triple{IRI("http://e/file1"), IRI(RDFType), IRI("http://e/File")})
	g.Add(Triple{IRI("http://e/file1"), IRI("http://www.w3.org/ns/prov#wasAttributedTo"), IRI("http://e/prog")})
	g.Add(Triple{IRI("http://e/file1"), IRI("http://e/name"), Literal("west sac.h5")})
	g.Add(Triple{IRI("http://e/file1"), IRI("http://e/size"), Integer(1024)})
	g.Add(Triple{IRI("http://e/file1"), IRI("http://e/score"), Double(0.75)})
	g.Add(Triple{IRI("http://e/file1"), IRI("http://e/valid"), Boolean(true)})
	g.Add(Triple{Blank("b0"), IRI("http://e/p"), LangLiteral("hello", "en")})

	var sb strings.Builder
	if err := WriteTurtle(&sb, g, ns); err != nil {
		t.Fatal(err)
	}
	g2, ns2, err := ParseTurtle(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("parse error: %v\ndoc:\n%s", err, sb.String())
	}
	if g2.Len() != g.Len() {
		t.Fatalf("round trip changed size: %d -> %d\ndoc:\n%s", g.Len(), g2.Len(), sb.String())
	}
	for _, x := range g.Triples() {
		if !g2.Has(x) {
			t.Errorf("lost triple %v\ndoc:\n%s", x, sb.String())
		}
	}
	if base, ok := ns2.Base("prov"); !ok || base != "http://www.w3.org/ns/prov#" {
		t.Errorf("prefix not round-tripped: %q %v", base, ok)
	}
}

func TestNTriplesRoundTrip(t *testing.T) {
	g := NewGraph()
	g.Add(Triple{IRI("http://e/s"), IRI("http://e/p"), Literal("line1\nline2\t\"x\"")})
	g.Add(Triple{Blank("n"), IRI("http://e/p"), TypedLiteral("3.5", XSDDouble)})
	var sb strings.Builder
	if err := WriteNTriples(&sb, g); err != nil {
		t.Fatal(err)
	}
	g2, _, err := ParseTurtle(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if g2.Len() != 2 {
		t.Fatalf("Len = %d, want 2", g2.Len())
	}
	for _, x := range g.Triples() {
		if !g2.Has(x) {
			t.Errorf("lost triple %v", x)
		}
	}
}

func TestParseTurtleHandWritten(t *testing.T) {
	doc := `
@prefix prov: <http://www.w3.org/ns/prov#> .
@prefix ex: <http://example.org/> .

# a comment
ex:decimate.h5 prov:wasAttributedTo ex:decimate ;
    ex:size 42 ;
    ex:ratio 0.5 ;
    ex:ok true ;
    ex:label "data product"@en .

_:b1 a prov:Entity .
<http://example.org/raw> prov:wasDerivedFrom ex:decimate.h5 , _:b1 .
`
	g, ns, err := ParseTurtle(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 8 {
		t.Fatalf("Len = %d, want 8; triples: %v", g.Len(), g.Triples())
	}
	if _, ok := ns.Base("prov"); !ok {
		t.Error("prov prefix missing")
	}
	want := Triple{
		IRI("http://example.org/decimate.h5"),
		IRI("http://www.w3.org/ns/prov#wasAttributedTo"),
		IRI("http://example.org/decimate"),
	}
	if !g.Has(want) {
		t.Errorf("missing %v", want)
	}
	if !g.Has(Triple{IRI("http://example.org/decimate.h5"), IRI("http://example.org/size"), Integer(42)}) {
		t.Error("integer literal not parsed")
	}
	if !g.Has(Triple{IRI("http://example.org/decimate.h5"), IRI("http://example.org/ok"), Boolean(true)}) {
		t.Error("boolean literal not parsed")
	}
	if !g.Has(Triple{Blank("b1"), IRI(RDFType), IRI("http://www.w3.org/ns/prov#Entity")}) {
		t.Error("'a' shorthand not parsed")
	}
	if !g.Has(Triple{IRI("http://example.org/raw"), IRI("http://www.w3.org/ns/prov#wasDerivedFrom"), Blank("b1")}) {
		t.Error("object list not parsed")
	}
}

func TestParseTurtleErrors(t *testing.T) {
	cases := []struct{ name, doc string }{
		{"unbound-prefix", `foo:x foo:y foo:z .`},
		{"unterminated-iri", `<http://e/x foo`},
		{"unterminated-string", `<http://e/s> <http://e/p> "abc`},
		{"missing-dot", `<http://e/s> <http://e/p> <http://e/o>`},
		{"literal-subject", `"lit" <http://e/p> <http://e/o> .`},
		{"bad-escape", `<http://e/s> <http://e/p> "a\q" .`},
		{"iri-bad-escape", `<http://e/s\n> <http://e/p> <http://e/o> .`},
		{"iri-truncated-escape", `<http://e/s\u00`},
		{"iri-bad-hex", `<http://e/s\u00ZZ> <http://e/p> <http://e/o> .`},
		{"iri-invalid-rune", `<http://e/s\UFFFFFFFF> <http://e/p> <http://e/o> .`},
		{"base-unsupported", `@base <http://e/> .`},
		{"blank-missing-colon", `_x <http://e/p> <http://e/o> .`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, _, err := ParseTurtle(strings.NewReader(c.doc)); err == nil {
				t.Errorf("expected parse error for %q", c.doc)
			}
		})
	}
}

func TestParseErrorHasLine(t *testing.T) {
	doc := "@prefix ex: <http://e/> .\nex:s ex:p \"x\n"
	_, _, err := ParseTurtle(strings.NewReader(doc))
	pe, ok := err.(*parseError)
	if !ok {
		t.Fatalf("error type = %T, want *parseError (err=%v)", err, err)
	}
	if pe.Line < 2 {
		t.Errorf("Line = %d, want >= 2", pe.Line)
	}
	if !strings.Contains(pe.Error(), "line") {
		t.Errorf("Error() = %q lacks line info", pe.Error())
	}
}

func TestParseUnicodeEscapes(t *testing.T) {
	doc := `<http://e/s> <http://e/p> "é\U0001F600" .`
	g, _, err := ParseTurtle(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if !g.Has(Triple{IRI("http://e/s"), IRI("http://e/p"), Literal("é😀")}) {
		t.Errorf("unicode escapes not decoded: %v", g.Triples())
	}
}

// TestIRIEscapesRoundTrip: UCHAR escapes are decoded inside <...>, in every
// position an IRI takes, and an IRI the writers had to escape is never
// abbreviated to a prefixed name and reads back as the bytes it was.
func TestIRIEscapesRoundTrip(t *testing.T) {
	doc := `<http://e/\u0073\U0001F600> <http://e/p\u003E> "5"^^<http://e/d\u0020t> .`
	g, _, err := ParseTurtle(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if !g.Has(Triple{IRI("http://e/s😀"), IRI("http://e/p>"), TypedLiteral("5", "http://e/d t")}) {
		t.Errorf("IRI escapes not decoded: %v", g.Triples())
	}

	ns := NewNamespaces()
	ns.Bind("e", "http://e/")
	hostile := []string{"http://e/a> <http://e/b", "http://e/ends-in\\", "http://e/nul\x00", "http://e/sp ace", "http://e/\xff\xfe", ""}
	g = NewGraph()
	for _, v := range hostile {
		g.Add(Triple{IRI(v), IRI(v), IRI(v)})
		g.Add(Triple{IRI("http://e/s"), IRI("http://e/p"), TypedLiteral("v", v+"#dt")})
	}
	for name, write := range map[string]func(*strings.Builder) error{
		"turtle":   func(b *strings.Builder) error { return WriteTurtle(b, g, ns) },
		"ntriples": func(b *strings.Builder) error { return WriteNTriples(b, g) },
	} {
		var b strings.Builder
		if err := write(&b); err != nil {
			t.Fatal(err)
		}
		back, _, err := ParseTurtle(strings.NewReader(b.String()))
		if err != nil {
			t.Fatalf("%s: reparse: %v\n%s", name, err, b.String())
		}
		got, want := back.SortedTriples(), g.SortedTriples()
		if len(got) != len(want) {
			t.Fatalf("%s: %d triples back, wrote %d", name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s: read back %v, wrote %v", name, got[i], want[i])
			}
		}
	}
}

// textWriters are the two ways a graph becomes text, each with the parser
// that reads it back: N-Triples, and Turtle under prefixes the terms below
// can shrink to.
func textWriters() map[string]func(*strings.Builder, *Graph) error {
	ns := NewNamespaces()
	ns.Bind("e", "http://e/")
	ns.Bind("xsd", "http://www.w3.org/2001/XMLSchema#")
	return map[string]func(*strings.Builder, *Graph) error{
		"nt":  func(b *strings.Builder, g *Graph) error { return WriteNTriples(b, g) },
		"ttl": func(b *strings.Builder, g *Graph) error { return WriteTurtle(b, g, ns) },
	}
}

// TestTextWritersRefuseWhatWouldNotParseBack: a literal that is not UTF-8
// used to come back with U+FFFD in place of its bad bytes, and a language
// tag or blank-node label outside the grammar was written raw and did not
// parse. Each writer now fails, naming the term, and writes nothing.
func TestTextWritersRefuseWhatWouldNotParseBack(t *testing.T) {
	s, p := IRI("http://e/s"), IRI("http://e/p")
	for _, bad := range []Term{
		Literal("a\xffb"),
		LangLiteral("x", "en US"),
		LangLiteral("x", "en\xff"),
		Blank("a b"),
		Blank(""),
		{Kind: LiteralTerm, Value: "both tags", Lang: "en", Datatype: XSDInteger},
		{Kind: LiteralTerm, Value: "explicit", Datatype: xsdString},
	} {
		g := NewGraph()
		g.Add(Triple{s, p, Literal("fine")})
		g.Add(Triple{s, p, bad})
		for name, write := range textWriters() {
			var b strings.Builder
			err := write(&b, g)
			if err == nil {
				t.Errorf("%s wrote %#v:\n%s", name, bad, b.String())
				continue
			}
			if !strings.Contains(err.Error(), fmt.Sprintf("value %q, lang %q", bad.Value, bad.Lang)) {
				t.Errorf("%s: error %q does not name %#v", name, err, bad)
			}
			if b.Len() != 0 {
				t.Errorf("%s: wrote %d bytes before refusing", name, b.Len())
			}
		}
	}
}

// TestTextWritersRoundTripOrRefuse is the property: every graph either
// reads back exactly — the same triples, term for term — from what each
// writer wrote, or the writer fails. Terms are drawn hostile: bytes that are
// not UTF-8, the escapes, spaces, '@' and '^' in every field, blank labels
// and language tags in and out of their grammars, both tags on one literal,
// an explicit xsd:string.
func TestTextWritersRoundTripOrRefuse(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	pieces := []string{"", "a", "b0", "e", "-", "_", "1", " ", "\"", "\\", "\n", "\r", "\t", "@", "^^", "<", ">", ".", ":", "é", "数据", "\xff", "\xc3", "\x00", "\u2028"}
	str := func() string {
		var b strings.Builder
		for i := rng.Intn(4); i > 0; i-- {
			b.WriteString(pieces[rng.Intn(len(pieces))])
		}
		return b.String()
	}
	iri := func() Term {
		if rng.Intn(2) == 0 {
			return IRI("http://e/" + str())
		}
		return IRI(str())
	}
	node := func() Term {
		if rng.Intn(3) == 0 {
			return Blank(str())
		}
		return iri()
	}
	object := func() Term {
		if rng.Intn(2) == 0 {
			return node()
		}
		lit := Term{Kind: LiteralTerm, Value: str()}
		switch rng.Intn(6) {
		case 0:
			lit.Lang = str()
		case 1:
			lit.Datatype = []string{XSDInteger, xsdString, "http://e/dt"}[rng.Intn(3)]
		case 2:
			lit.Datatype = str()
		case 3:
			lit.Lang, lit.Datatype = "en", XSDInteger
		}
		return lit
	}
	written := map[string]int{}
	for round := 0; round < 3000; round++ {
		g := NewGraph()
		for i := 1 + rng.Intn(5); i > 0; i-- {
			g.Add(Triple{node(), iri(), object()})
		}
		for name, write := range textWriters() {
			var b strings.Builder
			if err := write(&b, g); err != nil {
				continue
			}
			written[name]++
			back, _, err := ParseTurtle(strings.NewReader(b.String()))
			if err != nil {
				t.Fatalf("round %d, %s: own output does not parse: %v\n%q", round, name, err, b.String())
			}
			got, want := back.SortedTriples(), g.SortedTriples()
			if len(got) != len(want) {
				t.Fatalf("round %d, %s: %d triples back, wrote %d\n%q", round, name, len(got), len(want), b.String())
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("round %d, %s: read back %#v, wrote %#v\n%q", round, name, got[i], want[i], b.String())
				}
			}
		}
	}
	t.Logf("graphs written: %v of 3000", written)
	for name := range textWriters() {
		if written[name] < 300 {
			t.Errorf("%s wrote only %d of 3000 graphs: the generator hardly reaches the round trip", name, written[name])
		}
	}
}

func TestParseTrailingSemicolon(t *testing.T) {
	doc := `@prefix ex: <http://e/> .
ex:s ex:p ex:o ; .`
	g, _, err := ParseTurtle(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 1 {
		t.Errorf("Len = %d, want 1", g.Len())
	}
}

func TestNamespaceExpandShrink(t *testing.T) {
	ns := NewNamespaces()
	ns.Bind("prov", "http://www.w3.org/ns/prov#")
	ns.Bind("provio", "https://github.com/hpc-io/prov-io#")

	iri, ok := ns.Expand("prov:Entity")
	if !ok || iri != "http://www.w3.org/ns/prov#Entity" {
		t.Errorf("Expand = %q, %v", iri, ok)
	}
	if _, ok := ns.Expand("nope:Entity"); ok {
		t.Error("Expand succeeded for unbound prefix")
	}
	if _, ok := ns.Expand("noColon"); ok {
		t.Error("Expand succeeded without colon")
	}

	c, ok := ns.Shrink("http://www.w3.org/ns/prov#wasDerivedFrom")
	if !ok || c != "prov:wasDerivedFrom" {
		t.Errorf("Shrink = %q, %v", c, ok)
	}
	if _, ok := ns.Shrink("http://other.org/x"); ok {
		t.Error("Shrink matched unrelated IRI")
	}
	// Local names with characters outside PN_LOCAL must not shrink.
	if _, ok := ns.Shrink("http://www.w3.org/ns/prov#a b"); ok {
		t.Error("Shrink produced invalid local name")
	}
}

func TestNamespacesLongestMatch(t *testing.T) {
	ns := NewNamespaces()
	ns.Bind("e", "http://e/")
	ns.Bind("ex", "http://e/x/")
	c, ok := ns.Shrink("http://e/x/y")
	if !ok || c != "ex:y" {
		t.Errorf("Shrink = %q, want ex:y", c)
	}
}

func TestNamespacesClonePrefixes(t *testing.T) {
	ns := NewNamespaces()
	ns.Bind("a", "http://a/")
	c := ns.Clone()
	c.Bind("b", "http://b/")
	if len(ns.Prefixes()) != 1 || len(c.Prefixes()) != 2 {
		t.Errorf("clone not independent: %v vs %v", ns.Prefixes(), c.Prefixes())
	}
}

func TestMustExpandPanics(t *testing.T) {
	ns := NewNamespaces()
	defer func() {
		if recover() == nil {
			t.Error("MustExpand did not panic on unbound prefix")
		}
	}()
	ns.MustExpand("zzz:x")
}

// TestParseDoesNotPinSource: every string the parser hands the dictionary is
// its own allocation. A blank-node label, a number or a language tag that is a
// substring of the source keeps the whole document reachable for as long as
// the graph lives.
func TestParseDoesNotPinSource(t *testing.T) {
	before := liveHeap()
	g, ns := func() (*Graph, *Namespaces) {
		filler := strings.Repeat("# "+strings.Repeat("x", 125)+"\n", 4<<20/128)
		doc := filler + "@prefix ex: <http://e/> .\n_:b7 ex:count 42 ;\n ex:ratio 2.5e3 ;\n ex:label \"forty-two\"@en .\n" + filler
		g, ns, err := ParseTurtle(strings.NewReader(doc))
		if err != nil {
			t.Fatal(err)
		}
		return g, ns
	}()
	after := liveHeap()
	if g.Len() != 3 || !g.Has(Triple{S: Blank("b7"), P: IRI("http://e/count"), O: Integer(42)}) ||
		!g.Has(Triple{S: Blank("b7"), P: IRI("http://e/label"), O: LangLiteral("forty-two", "en")}) {
		t.Fatalf("parsed graph is wrong: %v", g.Triples())
	}
	runtime.KeepAlive(ns)
	if after > before && after-before > 1<<20 {
		t.Fatalf("graph of 3 triples keeps %d bytes live after its 8 MB source was dropped", after-before)
	}
}
