package rdf

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestTermConstructors(t *testing.T) {
	cases := []struct {
		name string
		term Term
		kind TermKind
	}{
		{"iri", IRI("http://example.org/a"), IRITerm},
		{"blank", Blank("b0"), BlankTerm},
		{"literal", Literal("hello"), LiteralTerm},
		{"lang", LangLiteral("hello", "en"), LiteralTerm},
		{"typed", TypedLiteral("5", XSDInteger), LiteralTerm},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if c.term.Kind != c.kind {
				t.Fatalf("kind = %v, want %v", c.term.Kind, c.kind)
			}
			if c.term.IsZero() {
				t.Fatal("constructed term reported zero")
			}
		})
	}
}

func TestTermKindPredicates(t *testing.T) {
	if !IRI("x").IsIRI() || IRI("x").IsBlank() || IRI("x").IsLiteral() {
		t.Error("IRI predicates wrong")
	}
	if !Blank("x").IsBlank() || Blank("x").IsIRI() {
		t.Error("Blank predicates wrong")
	}
	if !Literal("x").IsLiteral() || Literal("x").IsIRI() {
		t.Error("Literal predicates wrong")
	}
	var zero Term
	if !zero.IsZero() {
		t.Error("zero Term not reported as zero")
	}
}

func TestTypedLiteralStringCollapses(t *testing.T) {
	// xsd:string typed literals are normalized to plain literals so that
	// Literal("a") and TypedLiteral("a", xsdString) compare equal.
	if TypedLiteral("a", xsdString) != Literal("a") {
		t.Error("xsd:string literal did not collapse to plain literal")
	}
}

func TestNumericLiterals(t *testing.T) {
	if got := Integer(42); got.Value != "42" || got.Datatype != XSDInteger {
		t.Errorf("Integer(42) = %+v", got)
	}
	if got := Integer(-7); got.Value != "-7" {
		t.Errorf("Integer(-7) = %+v", got)
	}
	if got := Double(2.5); got.Value != "2.5" || got.Datatype != XSDDouble {
		t.Errorf("Double(2.5) = %+v", got)
	}
	if got := Boolean(true); got.Value != "true" || got.Datatype != XSDBoolean {
		t.Errorf("Boolean(true) = %+v", got)
	}
}

func TestTermString(t *testing.T) {
	cases := []struct {
		term Term
		want string
	}{
		{IRI("http://e/x"), "<http://e/x>"},
		{Blank("n1"), "_:n1"},
		{Literal("hi"), `"hi"`},
		{LangLiteral("hi", "en"), `"hi"@en`},
		{TypedLiteral("5", XSDInteger), `"5"^^<` + XSDInteger + `>`},
		{Literal("a\"b"), `"a\"b"`},
		{Literal("a\nb"), `"a\nb"`},
		{Literal(`a\b`), `"a\\b"`},
		{Literal("a\tb"), `"a\tb"`},
		// What IRIREF forbids between its brackets goes out as \uXXXX; every
		// other byte, UTF-8 or not, as it is.
		{IRI("http://x/a> <http://x/b"), `<http://x/a\u003E\u0020\u003Chttp://x/b>`},
		{IRI("q\"{}|^`\\\x00\n"), `<q\u0022\u007B\u007D\u007C\u005E\u0060\u005C\u0000\u000A>`},
		{IRI("é\xff\x7f#%"), "<é\xff\x7f#%>"},
		{TypedLiteral("5", "http://x/d t"), `"5"^^<http://x/d\u0020t>`},
	}
	for _, c := range cases {
		if got := c.term.String(); got != c.want {
			t.Errorf("String(%+v) = %q, want %q", c.term, got, c.want)
		}
	}
}

func TestTripleString(t *testing.T) {
	tr := Triple{IRI("http://e/s"), IRI("http://e/p"), Literal("o")}
	want := `<http://e/s> <http://e/p> "o" .`
	if got := tr.String(); got != want {
		t.Errorf("Triple.String() = %q, want %q", got, want)
	}
}

func TestTripleValid(t *testing.T) {
	s, p, o := IRI("http://e/s"), IRI("http://e/p"), Literal("o")
	cases := []struct {
		name  string
		tr    Triple
		valid bool
	}{
		{"iri-subject", Triple{s, p, o}, true},
		{"blank-subject", Triple{Blank("b"), p, o}, true},
		{"iri-object", Triple{s, p, IRI("http://e/o")}, true},
		{"blank-object", Triple{s, p, Blank("b")}, true},
		{"literal-subject", Triple{o, p, o}, false},
		{"literal-predicate", Triple{s, o, o}, false},
		{"blank-predicate", Triple{s, Blank("b"), o}, false},
		{"zero-object", Triple{s, p, Term{}}, false},
		{"zero-subject", Triple{Term{}, p, o}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := c.tr.Valid(); got != c.valid {
				t.Errorf("Valid() = %v, want %v", got, c.valid)
			}
		})
	}
}

// Property: literal escaping round-trips through the Turtle parser for any
// string content.
func TestLiteralEscapeRoundTrip(t *testing.T) {
	f := func(s string) bool {
		if !isValidUTF8ForTest(s) {
			return true // parser operates on UTF-8 documents
		}
		g := NewGraph()
		g.Add(Triple{IRI("http://e/s"), IRI("http://e/p"), Literal(s)})
		var sb strings.Builder
		if err := WriteNTriples(&sb, g); err != nil {
			return false
		}
		g2, _, err := ParseTurtle(strings.NewReader(sb.String()))
		if err != nil {
			return false
		}
		return g2.Has(Triple{IRI("http://e/s"), IRI("http://e/p"), Literal(s)})
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func isValidUTF8ForTest(s string) bool {
	for _, r := range s {
		if r == 0xFFFD {
			return false
		}
	}
	return true
}

// TestScanNames: the name scanners at the edges of the PN_CHARS class table
// and of the productions: what starts a prefix, a local name and a blank
// label, what only continues one, a '.' that is not last, and the bytes
// that end a name (PLX escapes, '/', '#', a byte that is not UTF-8).
func TestScanNames(t *testing.T) {
	for _, c := range []struct{ in, prefix, local string }{
		{"ex:a", "ex", "a"}, {":a", "", "a"}, {"ex:", "ex", ""}, {"ex:a.b.", "ex", "a.b"},
		{"ex:a:b:", "ex", "a:b:"}, {"ex::a", "ex", ":a"}, {"ex:1a-", "ex", "1a-"}, {"ex:_a", "ex", "_a"},
		{"é·x:café", "é·x", "café"}, {"ex:á‿", "ex", "á‿"}, {"ex:\U00010000", "ex", "\U00010000"},
		{"ex:a%20", "ex", "a"}, {"ex:a\\_", "ex", "a"}, {"ex:a/b", "ex", "a"}, {"ex:a#b", "ex", "a"},
		{"ex:-a", "ex", ""}, {"ex:·a", "ex", ""}, {"ex:.a", "ex", ""}, {"ex:a×b", "ex", "a"}, {"ex:a\xffb", "ex", "a"},
		{"a.b:c", "a.b", "c"}, {"true", "true", ""}, {"truex:y", "truex", "y"}, {"a<b>", "a", ""}, {"a.:b", "a", ""},
	} {
		want := len(c.prefix) // a bare name
		if strings.HasPrefix(c.in[len(c.prefix):], ":") {
			want += 1 + len(c.local)
		}
		prefix, local, n, err := ScanPrefixedName(c.in)
		if err != nil || prefix != c.prefix || local != c.local || n != want {
			t.Errorf("ScanPrefixedName(%q) = %q, %q, %d, %v; want %q, %q, %d", c.in, prefix, local, n, err, c.prefix, c.local, want)
		}
	}
	for _, in := range []string{"", "1a:b", "_a:b", "-a", ".a", "·a", "\u0301a", "/", "\xff"} {
		if _, _, n, err := ScanPrefixedName(in); err == nil {
			t.Errorf("ScanPrefixedName(%q) read %d bytes, want an error", in, n)
		}
	}
	for _, c := range []struct{ in, label string }{
		{"b0", "b0"}, {"0b", "0b"}, {"_b", "_b"}, {"bé", "bé"}, {"b.c", "b.c"}, {"b.", "b"}, {"b-", "b-"},
		{"b·\u0300", "b·\u0300"}, {"b:c", "b"}, {"-b", ""}, {".b", ""}, {"·b", ""}, {"", ""},
	} {
		label, n, err := ScanBlankLabel(c.in)
		if label != c.label || n != len(label) || (err != nil) != (label == "") {
			t.Errorf("ScanBlankLabel(%q) = %q, %d, %v; want %q", c.in, label, n, err, c.label)
		}
	}
}
