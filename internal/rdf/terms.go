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
	"errors"
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

// The scanners below are the one reader of each term production the writers
// above print, shared by the Turtle parser and the SPARQL lexer. Each reads
// the token s starts with and returns its value and the bytes it read (up to
// the fault, on an error); a value with no escape is a substring of s. What
// depends on the caller's grammar stays with it: when a token starts, line
// numbers, and the position its errors name.

// ScanIRIRef reads an IRIREF: '<', the IRI, '>'. The \uXXXX and \UXXXXXXXX
// escapes iriRef writes, the only escapes the grammar has there, are decoded;
// a byte iriRef escapes (iriUnsafe) is refused raw, and any other byte is
// the IRI's own.
func ScanIRIRef(s string) (iri string, n int, err error) {
	if s == "" || s[0] != '<' {
		return "", 0, errors.New("expected '<'")
	}
	i := 1
	for i < len(s) && !iriUnsafe[s[i]] {
		i++
	}
	if i < len(s) && s[i] == '>' {
		return s[1:i], i + 1, nil
	}
	b := []byte(s[1:i])
	for i < len(s) {
		switch c := s[i]; c {
		case '>':
			return string(b), i + 1, nil
		case '\\':
			if i+1 == len(s) || s[i+1] != 'u' && s[i+1] != 'U' {
				return "", i, errors.New("bad escape in IRI")
			}
			r, w, err := scanUChar(s[i:])
			if err != nil {
				return "", i + w, err
			}
			b = utf8.AppendRune(b, r)
			i += w
		default:
			if iriUnsafe[c] {
				return "", i, fmt.Errorf("character %q not allowed in IRI", c)
			}
			b = append(b, c)
			i++
		}
	}
	return "", i, errors.New("unterminated IRI")
}

// ScanString reads a string in double or single quotes. The escapes \t \b
// \n \r \f \" \' \\ and \uXXXX, \UXXXXXXXX are decoded; a raw line break is
// kept, as both parsers always have. The value must be UTF-8.
func ScanString(s string) (lex string, n int, err error) {
	if s == "" || s[0] != '"' && s[0] != '\'' {
		return "", 0, errors.New("expected a quote")
	}
	q, i := s[0], 1
	for i < len(s) && s[i] != q && s[i] != '\\' {
		i++
	}
	if i < len(s) && s[i] == q {
		lex, n = s[1:i], i+1
	} else {
		if lex, n, err = scanEscapedString(s, i); err != nil {
			return "", n, err
		}
	}
	if !utf8.ValidString(lex) {
		return "", n, errors.New("string is not valid UTF-8")
	}
	return lex, n, nil
}

// scanEscapedString is ScanString from s[i], the first backslash or the end.
func scanEscapedString(s string, i int) (string, int, error) {
	q := s[0]
	b := []byte(s[1:i])
	for i < len(s) {
		c := s[i]
		if c == q {
			return string(b), i + 1, nil
		}
		if c != '\\' {
			b = append(b, c)
			i++
			continue
		}
		if i+1 == len(s) {
			return "", i + 1, errors.New("unterminated escape")
		}
		switch e := s[i+1]; e {
		case 'u', 'U':
			r, w, err := scanUChar(s[i:])
			if err != nil {
				return "", i + w, err
			}
			b = utf8.AppendRune(b, r)
			i += w
			continue
		case 't':
			c = '\t'
		case 'b':
			c = '\b'
		case 'n':
			c = '\n'
		case 'r':
			c = '\r'
		case 'f':
			c = '\f'
		case '"', '\'', '\\':
			c = e
		default:
			return "", i + 2, fmt.Errorf("unknown escape \\%c", e)
		}
		b = append(b, c)
		i += 2
	}
	return "", i, errors.New("unterminated string")
}

// scanUChar reads the \uXXXX or \UXXXXXXXX escape s starts with.
func scanUChar(s string) (r rune, n int, err error) {
	n = 6
	if s[1] == 'U' {
		n = 10
	}
	if len(s) < n {
		return 0, len(s), fmt.Errorf("truncated \\%c escape", s[1])
	}
	for i := 2; i < n; i++ {
		d := hexVal(s[i])
		if d < 0 {
			return 0, i, fmt.Errorf("bad hex digit in \\%c escape", s[1])
		}
		r = r<<4 | rune(d)
	}
	if !utf8.ValidRune(r) {
		return 0, n, errors.New("invalid unicode escape")
	}
	return r, n, nil
}

// ScanLangTag reads a language tag: '@' and then the letters, digits and '-'
// isLangTag takes.
func ScanLangTag(s string) (tag string, n int, err error) {
	if s == "" || s[0] != '@' {
		return "", 0, errors.New("expected '@'")
	}
	n = 1 + langTagLen(s[1:])
	if n == 1 {
		return "", 1, errors.New("empty language tag")
	}
	return s[1:n], n, nil
}

// ScanNumber reads an INTEGER, DECIMAL or DOUBLE with an optional sign, typed
// xsd:integer, else xsd:double. A '.' belongs to the number only when a digit
// follows it, and an exponent only when it holds a digit, so "1." and "1e"
// read as "1".
func ScanNumber(s string) (num Term, n int, err error) {
	i := 0
	if s != "" && (s[0] == '+' || s[0] == '-') {
		i = 1
	}
	n, dt := digitsEnd(s, i), XSDInteger
	if n+1 < len(s) && s[n] == '.' && isDigit(s[n+1]) {
		n, dt = digitsEnd(s, n+1), XSDDouble
	}
	if n == i {
		return Term{}, n, errors.New("malformed number")
	}
	if n < len(s) && (s[n] == 'e' || s[n] == 'E') {
		e := n + 1
		if e < len(s) && (s[e] == '+' || s[e] == '-') {
			e++
		}
		if end := digitsEnd(s, e); end > e {
			n, dt = end, XSDDouble
		}
	}
	return TypedLiteral(s[:n], dt), n, nil
}

// ScanPrefixedName reads a prefixed name, PN_PREFIX? ':' PN_LOCAL?, and
// returns its prefix and local part. Neither part ends in '.', and the
// PLX escapes (%hh and \) end the name. When no ':' follows the name s
// starts with, it returns that bare name as prefix, with n == len(prefix),
// for the caller to match whole against its keywords.
func ScanPrefixedName(s string) (prefix, local string, n int, err error) {
	p := nameLen(s, pnBase, false)
	if p == len(s) || s[p] != ':' {
		if p == 0 {
			return "", "", 0, errors.New("expected a prefixed name")
		}
		return s[:p], "", p, nil
	}
	n = p + 1 + nameLen(s[p+1:], pnFirst, true)
	return s[:p], s[p+1 : n], n, nil
}

// ScanBlankLabel reads the label of a BLANK_NODE_LABEL, the name after
// "_:": PN_CHARS_U or a digit, then PN_CHARS and '.', not ending in '.'.
func ScanBlankLabel(s string) (label string, n int, err error) {
	if n = nameLen(s, pnFirst, false); n == 0 {
		return "", 0, errors.New("expected a blank node label")
	}
	return s[:n], n, nil
}

// The classes of the name productions' runes, as bits: pnBase is
// PN_CHARS_BASE, which may start a prefix; pnFirst is PN_CHARS_U and the
// digits, which may start a local name or a blank label; pnChars is
// PN_CHARS, which may continue and end any name.
const (
	pnBase uint8 = 1 << iota
	pnFirst
	pnChars

	pnLetter = pnBase | pnFirst | pnChars
)

// pnClasses is the one class table of the Turtle and SPARQL name grammars,
// in rune order.
var pnClasses = [...]struct {
	lo, hi rune
	class  uint8
}{
	{'-', '-', pnChars}, {'0', '9', pnFirst | pnChars}, {'A', 'Z', pnLetter},
	{'_', '_', pnFirst | pnChars}, {'a', 'z', pnLetter}, {0xB7, 0xB7, pnChars},
	{0xC0, 0xD6, pnLetter}, {0xD8, 0xF6, pnLetter}, {0xF8, 0x2FF, pnLetter},
	{0x300, 0x36F, pnChars}, {0x370, 0x37D, pnLetter}, {0x37F, 0x1FFF, pnLetter},
	{0x200C, 0x200D, pnLetter}, {0x203F, 0x2040, pnChars}, {0x2070, 0x218F, pnLetter},
	{0x2C00, 0x2FEF, pnLetter}, {0x3001, 0xD7FF, pnLetter}, {0xF900, 0xFDCF, pnLetter},
	{0xFDF0, 0xFFFD, pnLetter}, {0x10000, 0xEFFFF, pnLetter},
}

// pnASCII is pnClasses for the ASCII runes, which most names are made of.
var pnASCII = func() (t [utf8.RuneSelf]uint8) {
	for r := range t {
		t[r] = pnClass(rune(r))
	}
	return t
}()

// pnClass is the class pnClasses gives r, 0 for a rune in no name.
func pnClass(r rune) uint8 {
	for _, c := range pnClasses {
		if r <= c.hi {
			if r >= c.lo {
				return c.class
			}
			break
		}
	}
	return 0
}

// nameLen is the length of the name s starts with: a rune of class first,
// then PN_CHARS, '.' and, when colon is set, ':', up to the last rune that
// is not '.'. A byte that is not UTF-8 ends the name.
func nameLen(s string, first uint8, colon bool) int {
	n, end := 0, 0
	for n < len(s) {
		r, w, class := rune(s[n]), 1, uint8(0)
		switch {
		case colon && r == ':':
			class = pnFirst | pnChars
		case r < utf8.RuneSelf:
			class = pnASCII[r]
		default:
			if r, w = utf8.DecodeRuneInString(s[n:]); w > 1 {
				class = pnClass(r)
			}
		}
		switch {
		case n == 0 && class&first == 0:
			return 0
		case class&pnChars != 0:
			end = n + w
		case r != '.':
			return end
		}
		n += w
	}
	return end
}

// digitsEnd returns the index of the first byte of s from i on that is not
// an ASCII digit.
func digitsEnd(s string, i int) int {
	for i < len(s) && isDigit(s[i]) {
		i++
	}
	return i
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isAlphaNum(c byte) bool {
	return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
}

func hexVal(c byte) int {
	switch {
	case c >= '0' && c <= '9':
		return int(c - '0')
	case c >= 'a' && c <= 'f':
		return int(c-'a') + 10
	case c >= 'A' && c <= 'F':
		return int(c-'A') + 10
	}
	return -1
}

// textError reports why a term cannot be written as N-Triples or Turtle
// text that parses back to it, naming the term; nil when it can. The text
// writers refuse such a term rather than write another in its place: a
// literal that is not UTF-8 would come back with U+FFFD for its bad bytes,
// and a language tag or blank-node label outside the grammar would not parse.
func textError(t Term) error {
	var why string
	labelOK := true
	if t.Kind == BlankTerm {
		_, n, err := ScanBlankLabel(t.Value)
		labelOK = err == nil && n == len(t.Value)
	}
	switch {
	case !labelOK:
		why = "blank node label is outside the BLANK_NODE_LABEL grammar"
	case t.Kind != LiteralTerm && (t.Lang != "" || t.Datatype != ""):
		why = "only a literal has a language tag or a datatype"
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

// isLangTag reports whether the parsers read s back whole after "@".
func isLangTag(s string) bool { return s != "" && langTagLen(s) == len(s) }

// langTagLen is the length of the run of letters, digits and '-' s starts
// with.
func langTagLen(s string) int {
	i := 0
	for i < len(s) && (isAlphaNum(s[i]) || s[i] == '-') {
		i++
	}
	return i
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
