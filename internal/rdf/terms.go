// Package rdf implements an in-memory RDF triple store with Turtle and
// N-Triples serialization, replacing the role Redland librdf plays in the
// original PROV-IO prototype.
//
// The store is dictionary-encoded: every distinct term is interned once and
// triples are stored as fixed-size integer tuples in three indexes (SPO, POS,
// OSP), which keeps per-triple memory small when a workflow emits millions of
// provenance records.
package rdf

import (
	"fmt"
	"strconv"
	"strings"
	"unicode/utf8"
)

// TermKind discriminates the three RDF term kinds.
type TermKind uint8

// Term kinds.
const (
	IRITerm TermKind = iota + 1
	BlankTerm
	LiteralTerm
)

// Common XSD datatype IRIs.
const (
	xsdString  = "http://www.w3.org/2001/XMLSchema#string"
	XSDInteger = "http://www.w3.org/2001/XMLSchema#integer"
	XSDDouble  = "http://www.w3.org/2001/XMLSchema#double"
	XSDBoolean = "http://www.w3.org/2001/XMLSchema#boolean"
	XSDLong    = "http://www.w3.org/2001/XMLSchema#long"
	XSDDecimal = "http://www.w3.org/2001/XMLSchema#decimal"
)

// RDFType is the rdf:type predicate IRI.
const RDFType = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"

// Term is a single RDF term: an IRI, a blank node, or a literal.
// The zero Term is invalid; use the constructors.
type Term struct {
	Kind TermKind
	// Value holds the IRI, the blank node label (without "_:"), or the
	// literal lexical form.
	Value string
	// Lang is the language tag for language-tagged literals.
	Lang string
	// Datatype is the datatype IRI for typed literals. Empty means
	// xsd:string for literals.
	Datatype string
}

// IRI returns an IRI term.
func IRI(iri string) Term { return Term{Kind: IRITerm, Value: iri} }

// Blank returns a blank node term with the given label (no "_:" prefix).
func Blank(label string) Term { return Term{Kind: BlankTerm, Value: label} }

// Literal returns a plain (xsd:string) literal term.
func Literal(lexical string) Term { return Term{Kind: LiteralTerm, Value: lexical} }

// LangLiteral returns a language-tagged literal term.
func LangLiteral(lexical, lang string) Term {
	return Term{Kind: LiteralTerm, Value: lexical, Lang: lang}
}

// TypedLiteral returns a literal with an explicit datatype IRI.
func TypedLiteral(lexical, datatype string) Term {
	if datatype == xsdString {
		datatype = ""
	}
	return Term{Kind: LiteralTerm, Value: lexical, Datatype: datatype}
}

// Integer returns an xsd:integer literal.
func Integer(v int64) Term { return TypedLiteral(strconv.FormatInt(v, 10), XSDInteger) }

// Double returns an xsd:double literal.
func Double(v float64) Term { return TypedLiteral(strconv.FormatFloat(v, 'g', -1, 64), XSDDouble) }

// Decimal returns an xsd:decimal literal. The lexical form never uses an
// exponent ('f' formatting), as the xsd:decimal lexical space requires.
func Decimal(v float64) Term { return TypedLiteral(strconv.FormatFloat(v, 'f', -1, 64), XSDDecimal) }

// Boolean returns an xsd:boolean literal.
func Boolean(v bool) Term {
	s := "false"
	if v {
		s = "true"
	}
	return TypedLiteral(s, XSDBoolean)
}

// IsIRI reports whether t is an IRI.
func (t Term) IsIRI() bool { return t.Kind == IRITerm }

// IsBlank reports whether t is a blank node.
func (t Term) IsBlank() bool { return t.Kind == BlankTerm }

// IsLiteral reports whether t is a literal.
func (t Term) IsLiteral() bool { return t.Kind == LiteralTerm }

// IsZero reports whether t is the invalid zero Term.
func (t Term) IsZero() bool { return t.Kind == 0 }

// Equal reports whether two terms are identical.
func (t Term) Equal(o Term) bool { return t == o }

// Ptr returns a pointer to a copy of t, convenient for Graph.Find patterns.
func (t Term) Ptr() *Term { return &t }

// String renders the term in N-Triples syntax.
func (t Term) String() string {
	switch t.Kind {
	case IRITerm:
		return iriRef(t.Value)
	case BlankTerm:
		return "_:" + t.Value
	case LiteralTerm:
		s := quoteLiteral(t.Value)
		if t.Lang != "" {
			return s + "@" + t.Lang
		}
		if t.Datatype != "" {
			return s + "^^" + iriRef(t.Datatype)
		}
		return s
	default:
		return "<invalid>"
	}
}

// iriUnsafe marks the bytes that may not stand raw between the angle brackets
// of an IRIREF: the characters the N-Triples and Turtle grammars exclude
// there. A table, because every IRI ever rendered is scanned against it.
var iriUnsafe = func() (t [256]bool) {
	for c := 0; c <= ' '; c++ {
		t[c] = true
	}
	for _, c := range []byte("<>\"{}|^`\\") {
		t[c] = true
	}
	return t
}()

// iriRef renders an IRI as an IRIREF, "<" + iri + ">" with every character
// the grammar forbids there written as a \uXXXX escape, which it allows. Any
// other byte — valid UTF-8 or not — is written as it is, so an IRI of safe
// characters renders exactly as it always did and the parser gets back the
// bytes it was given.
func iriRef(iri string) string {
	first := 0
	for first < len(iri) && !iriUnsafe[iri[first]] {
		first++
	}
	if first == len(iri) {
		return "<" + iri + ">"
	}
	const hex = "0123456789ABCDEF"
	b := make([]byte, 0, len(iri)+2+5*(len(iri)-first))
	b = append(append(b, '<'), iri[:first]...)
	for i := first; i < len(iri); i++ {
		if c := iri[i]; iriUnsafe[c] {
			b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&15])
		} else {
			b = append(b, c)
		}
	}
	return string(append(b, '>'))
}

// quoteLiteral renders a literal lexical form with N-Triples escaping.
func quoteLiteral(s string) string {
	var b strings.Builder
	b.Grow(len(s) + 2)
	b.WriteByte('"')
	for _, r := range s {
		switch r {
		case '"':
			b.WriteString(`\"`)
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		case '\r':
			b.WriteString(`\r`)
		case '\t':
			b.WriteString(`\t`)
		default:
			b.WriteRune(r)
		}
	}
	b.WriteByte('"')
	return b.String()
}

// textError reports why a term cannot be written as N-Triples or Turtle
// text that parses back to it, naming the term; nil when it can. The text
// writers refuse such a term rather than write another in its place: a
// literal that is not UTF-8 would come back with U+FFFD for its bad bytes,
// and a language tag or blank-node label outside the grammar would not parse.
func textError(t Term) error {
	var why string
	switch {
	case t.Kind == BlankTerm && !isBlankLabel(t.Value):
		why = "blank node label is not a name (letters, digits, '_', '-')"
	case t.Kind != LiteralTerm:
		// An IRI is always writable: iriRef escapes what IRIREF forbids.
	case !utf8.ValidString(t.Value):
		why = "literal is not valid UTF-8"
	case t.Lang != "" && t.Datatype != "":
		why = "literal has both a language tag and a datatype"
	case t.Lang != "" && !isLangTag(t.Lang):
		why = "language tag is not letters, digits and '-'"
	case t.Datatype == xsdString:
		why = "an xsd:string literal has no datatype"
	}
	if why == "" {
		return nil
	}
	return fmt.Errorf("rdf: cannot write term (kind %d, value %q, lang %q, datatype %q) as text: %s",
		t.Kind, t.Value, t.Lang, t.Datatype, why)
}

// isBlankLabel reports whether the parser reads s back whole after "_:". It
// tests each byte as the parser does.
func isBlankLabel(s string) bool {
	for i := 0; i < len(s); i++ {
		if !isNameChar(rune(s[i])) {
			return false
		}
	}
	return s != ""
}

// isLangTag reports whether the parser reads s back whole after "@".
func isLangTag(s string) bool {
	for i := 0; i < len(s); i++ {
		if !isAlphaNum(s[i]) && s[i] != '-' {
			return false
		}
	}
	return s != ""
}

// Triple is a single RDF statement.
type Triple struct {
	S, P, O Term
}

// String renders the triple in N-Triples syntax (without trailing newline).
func (t Triple) String() string {
	return t.S.String() + " " + t.P.String() + " " + t.O.String() + " ."
}

// textError is the first of the triple's terms' textErrors.
func (t Triple) textError() error {
	for _, x := range [3]Term{t.S, t.P, t.O} {
		if err := textError(x); err != nil {
			return err
		}
	}
	return nil
}

// Valid reports whether the triple is structurally valid RDF: subject must be
// an IRI or blank node, predicate an IRI, object any term.
func (t Triple) Valid() bool {
	if t.S.Kind != IRITerm && t.S.Kind != BlankTerm {
		return false
	}
	if t.P.Kind != IRITerm {
		return false
	}
	return t.O.Kind == IRITerm || t.O.Kind == BlankTerm || t.O.Kind == LiteralTerm
}
