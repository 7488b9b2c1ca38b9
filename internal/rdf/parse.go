package rdf

import (
	"fmt"
	"io"
	"strings"
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
		var err error
		if p.peek() == '@' {
			err = p.parseDirective()
		} else {
			err = p.parseStatement()
		}
		if err != nil {
			return err
		}
	}
}

// parseDirective reads '@prefix' PNAME_NS IRIREF '.'. The directive's
// keyword is read as a language tag is, so it is a whole word.
func (p *turtleParser) parseDirective() error {
	kw, n, _ := ScanLangTag(p.src[p.pos:])
	p.pos += n
	if kw != "prefix" {
		return p.errf("@%s is not supported", kw)
	}
	p.skipWS()
	prefix, local, n, err := ScanPrefixedName(p.src[p.pos:])
	if err == nil && (n == len(prefix) || local != "") {
		err = fmt.Errorf("@prefix needs a prefix and ':', got %q", p.src[p.pos:p.pos+n])
	}
	if err := p.scanned(n, err); err != nil {
		return err
	}
	iri, err := p.parseIRIRef()
	if err != nil {
		return err
	}
	p.ns.Bind(strings.Clone(prefix), iri)
	return p.expect('.')
}

func (p *turtleParser) parseStatement() error {
	subj, err := p.parseTerm(inSubject)
	if err != nil {
		return err
	}
	for {
		pred, err := p.parseTerm(inPredicate)
		if err != nil {
			return err
		}
		if !pred.IsIRI() {
			return p.errf("predicate must be an IRI")
		}
		for {
			obj, err := p.parseTerm(inObject)
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

// The positions of a term, which decide the literals and bare words it
// takes: only an object is a literal, 'true' or 'false', and only a
// predicate is 'a'. A datatype is read in the subject position.
const (
	inSubject = iota
	inPredicate
	inObject
)

// parseTerm parses one RDF term in position pos.
func (p *turtleParser) parseTerm(pos int) (Term, error) {
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
		if pos != inObject {
			return Term{}, p.errf("literal not allowed as subject/predicate")
		}
		return p.parseStringLiteral()
	case c == '+' || c == '-' || (c >= '0' && c <= '9'):
		if pos != inObject {
			return Term{}, p.errf("numeric literal not allowed here")
		}
		return p.parseNumber()
	}
	prefix, local, n, err := ScanPrefixedName(p.src[p.pos:])
	if err := p.scanned(n, err); err != nil {
		return Term{}, err
	}
	if n == len(prefix) {
		switch {
		case pos == inPredicate && prefix == "a":
			return IRI(RDFType), nil
		case pos == inObject && (prefix == "true" || prefix == "false"):
			return Boolean(prefix == "true"), nil
		}
		return Term{}, p.errf("expected prefixed name, got %q", prefix)
	}
	base, ok := p.ns.Base(prefix)
	if !ok {
		return Term{}, p.errf("unbound prefix %q", prefix)
	}
	return IRI(base + local), nil
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
	if !strings.HasPrefix(p.src[p.pos:], "_:") {
		return Term{}, p.errf("expected ':' after '_' in blank node")
	}
	p.pos += 2
	label, n, err := ScanBlankLabel(p.src[p.pos:])
	return Blank(strings.Clone(label)), p.scanned(n, err)
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
		dt, err := p.parseTerm(inSubject)
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
