package rdf

import (
	"fmt"
	"io"
	"strings"
	"unicode"
)

// parseError describes a syntax error with its line number.
type parseError struct {
	Line int
	Msg  string
}

func (e *parseError) Error() string {
	return fmt.Sprintf("rdf: parse error at line %d: %s", e.Line, e.Msg)
}

// ParseTurtle parses a Turtle document into a new graph, returning the graph
// and the prefix table it declared. The parser covers the Turtle subset our
// serializer emits plus common hand-written forms: @prefix directives,
// prefixed names, IRIs, blank nodes, the 'a' keyword, ';' and ',' lists,
// string/numeric/boolean literals, language tags, datatypes, and comments.
func ParseTurtle(r io.Reader) (*Graph, *Namespaces, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, nil, err
	}
	p := &turtleParser{src: string(data), line: 1, ns: NewNamespaces(), g: NewGraph()}
	if err := p.parse(); err != nil {
		return nil, nil, err
	}
	return p.g, p.ns, nil
}

type turtleParser struct {
	src  string
	pos  int
	line int
	ns   *Namespaces
	g    *Graph
}

func (p *turtleParser) errf(format string, args ...any) error {
	return &parseError{Line: p.line, Msg: fmt.Sprintf(format, args...)}
}

func (p *turtleParser) eof() bool { return p.pos >= len(p.src) }

func (p *turtleParser) peek() byte {
	if p.eof() {
		return 0
	}
	return p.src[p.pos]
}

func (p *turtleParser) advance() byte {
	c := p.src[p.pos]
	p.pos++
	if c == '\n' {
		p.line++
	}
	return c
}

func (p *turtleParser) skipWS() {
	for !p.eof() {
		c := p.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			p.advance()
		case c == '#':
			for !p.eof() && p.peek() != '\n' {
				p.advance()
			}
		default:
			return
		}
	}
}

func (p *turtleParser) expect(c byte) error {
	p.skipWS()
	if p.eof() || p.peek() != c {
		return p.errf("expected %q", string(c))
	}
	p.advance()
	return nil
}

func (p *turtleParser) parse() error {
	for {
		p.skipWS()
		if p.eof() {
			return nil
		}
		if p.hasKeyword("@prefix") {
			if err := p.parsePrefix(); err != nil {
				return err
			}
			continue
		}
		if p.hasKeyword("@base") {
			return p.errf("@base is not supported")
		}
		if err := p.parseStatement(); err != nil {
			return err
		}
	}
}

// hasKeyword consumes kw if it appears at the cursor.
func (p *turtleParser) hasKeyword(kw string) bool {
	if strings.HasPrefix(p.src[p.pos:], kw) {
		p.pos += len(kw)
		return true
	}
	return false
}

func (p *turtleParser) parsePrefix() error {
	p.skipWS()
	start := p.pos
	for !p.eof() && p.peek() != ':' {
		p.advance()
	}
	if p.eof() {
		return p.errf("unterminated @prefix")
	}
	prefix := strings.Clone(strings.TrimSpace(p.src[start:p.pos]))
	p.advance() // ':'
	p.skipWS()
	iri, err := p.parseIRIRef()
	if err != nil {
		return err
	}
	p.ns.Bind(prefix, iri)
	return p.expect('.')
}

func (p *turtleParser) parseStatement() error {
	subj, err := p.parseTerm(true)
	if err != nil {
		return err
	}
	for {
		p.skipWS()
		pred, err := p.parsePredicate()
		if err != nil {
			return err
		}
		for {
			obj, err := p.parseTerm(false)
			if err != nil {
				return err
			}
			p.g.Add(Triple{S: subj, P: pred, O: obj})
			p.skipWS()
			if p.peek() == ',' {
				p.advance()
				continue
			}
			break
		}
		p.skipWS()
		switch p.peek() {
		case ';':
			p.advance()
			p.skipWS()
			// Allow trailing ';' before '.'.
			if p.peek() == '.' {
				p.advance()
				return nil
			}
			continue
		case '.':
			p.advance()
			return nil
		default:
			return p.errf("expected ';' or '.' after object")
		}
	}
}

func (p *turtleParser) parsePredicate() (Term, error) {
	p.skipWS()
	// 'a' keyword.
	if p.peek() == 'a' {
		next := byte(' ')
		if p.pos+1 < len(p.src) {
			next = p.src[p.pos+1]
		}
		if next == ' ' || next == '\t' || next == '\n' || next == '\r' || next == '<' {
			p.advance()
			return IRI(RDFType), nil
		}
	}
	t, err := p.parseTerm(true)
	if err != nil {
		return Term{}, err
	}
	if !t.IsIRI() {
		return Term{}, p.errf("predicate must be an IRI")
	}
	return t, nil
}

// parseTerm parses one RDF term. subjectPos restricts literals.
func (p *turtleParser) parseTerm(subjectPos bool) (Term, error) {
	p.skipWS()
	if p.eof() {
		return Term{}, p.errf("unexpected end of input")
	}
	switch c := p.peek(); {
	case c == '<':
		iri, err := p.parseIRIRef()
		if err != nil {
			return Term{}, err
		}
		return IRI(iri), nil
	case c == '_':
		return p.parseBlank()
	case c == '"' || c == '\'':
		if subjectPos {
			return Term{}, p.errf("literal not allowed as subject/predicate")
		}
		return p.parseStringLiteral()
	case c == '+' || c == '-' || (c >= '0' && c <= '9'):
		if subjectPos {
			return Term{}, p.errf("numeric literal not allowed here")
		}
		return p.parseNumber()
	default:
		// true/false or prefixed name.
		if !subjectPos {
			if p.hasKeyword("true") && p.boundary() {
				return Boolean(true), nil
			}
			if p.hasKeyword("false") && p.boundary() {
				return Boolean(false), nil
			}
		}
		return p.parsePrefixedName()
	}
}

// boundary reports whether the cursor sits at a token boundary.
func (p *turtleParser) boundary() bool {
	if p.eof() {
		return true
	}
	c := p.peek()
	return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == ',' || c == ';' || c == '.'
}

// scanned moves the cursor past the n bytes a term scanner read, counting the
// line breaks a string may hold, and places the scanner's error, if any, at
// the line the cursor reached.
func (p *turtleParser) scanned(n int, err error) error {
	p.line += strings.Count(p.src[p.pos:p.pos+n], "\n")
	p.pos += n
	if err != nil {
		return p.errf("%v", err)
	}
	return nil
}

// parseIRIRef reads an IRIREF and clones it: a datatype or a prefix keeps its
// IRI as it is given, which must not pin the document.
func (p *turtleParser) parseIRIRef() (string, error) {
	p.skipWS()
	iri, n, err := ScanIRIRef(p.src[p.pos:])
	return strings.Clone(iri), p.scanned(n, err)
}

func (p *turtleParser) parseBlank() (Term, error) {
	p.advance() // '_'
	if p.eof() || p.peek() != ':' {
		return Term{}, p.errf("expected ':' after '_' in blank node")
	}
	p.advance()
	start := p.pos
	for !p.eof() && isNameChar(rune(p.peek())) {
		p.advance()
	}
	if p.pos == start {
		return Term{}, p.errf("empty blank node label")
	}
	return Blank(strings.Clone(p.src[start:p.pos])), nil
}

func (p *turtleParser) parseStringLiteral() (Term, error) {
	lex, n, err := ScanString(p.src[p.pos:])
	if err := p.scanned(n, err); err != nil {
		return Term{}, err
	}
	// Optional language tag or datatype.
	if p.peek() == '@' {
		tag, n, err := ScanLangTag(p.src[p.pos:])
		if err := p.scanned(n, err); err != nil {
			return Term{}, err
		}
		return LangLiteral(lex, strings.Clone(tag)), nil
	}
	if strings.HasPrefix(p.src[p.pos:], "^^") {
		p.pos += 2
		dt, err := p.parseTerm(true)
		if err != nil {
			return Term{}, err
		}
		if !dt.IsIRI() {
			return Term{}, p.errf("datatype must be an IRI")
		}
		return TypedLiteral(lex, dt.Value), nil
	}
	return Literal(lex), nil
}

func (p *turtleParser) parseNumber() (Term, error) {
	num, n, err := ScanNumber(p.src[p.pos:])
	num.Value = strings.Clone(num.Value)
	return num, p.scanned(n, err)
}

func (p *turtleParser) parsePrefixedName() (Term, error) {
	start := p.pos
	for !p.eof() && p.peek() != ':' && isNameChar(rune(p.peek())) {
		p.advance()
	}
	if p.eof() || p.peek() != ':' {
		return Term{}, p.errf("expected prefixed name")
	}
	prefix := p.src[start:p.pos]
	p.advance() // ':'
	lstart := p.pos
	for !p.eof() && isLocalChar(rune(p.peek())) {
		// A trailing '.' ends the statement, it is not part of the name.
		if p.peek() == '.' {
			if p.pos+1 >= len(p.src) || !isLocalChar(rune(p.src[p.pos+1])) || p.src[p.pos+1] == '.' {
				break
			}
		}
		p.advance()
	}
	local := p.src[lstart:p.pos]
	base, ok := p.ns.Base(prefix)
	if !ok {
		return Term{}, p.errf("unbound prefix %q", prefix)
	}
	return IRI(base + local), nil
}

func isNameChar(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' || r == '-'
}

func isLocalChar(r rune) bool {
	return isNameChar(r) || r == '.' || r == '/' || r == '#'
}
