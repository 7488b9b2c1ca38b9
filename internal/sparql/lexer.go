package sparql

import (
	"fmt"
	"strings"
	"unicode"

	"github.com/hpc-io/prov-io/internal/rdf"
)

// Error is a SPARQL syntax or evaluation error.
type Error struct {
	Line int
	Msg  string
}

func (e *Error) Error() string {
	if e.Line > 0 {
		return fmt.Sprintf("sparql: line %d: %s", e.Line, e.Msg)
	}
	return "sparql: " + e.Msg
}

var keywords = map[string]bool{
	"PREFIX": true, "SELECT": true, "WHERE": true, "FILTER": true,
	"DISTINCT": true, "ORDER": true, "BY": true, "ASC": true, "DESC": true,
	"LIMIT": true, "OFFSET": true, "REGEX": true, "COUNT": true, "AS": true,
	"OPTIONAL": true, "UNION": true, "BOUND": true, "STR": true,
	"TRUE": true, "FALSE": true, "NOT": true, "EXISTS": true,
	"GROUP": true, "SUM": true, "MIN": true, "MAX": true, "AVG": true,
}

type lexer struct {
	src  string
	pos  int
	line int
}

func newLexer(src string) *lexer { return &lexer{src: src, line: 1} }

func (l *lexer) errf(format string, args ...any) error {
	return &Error{Line: l.line, Msg: fmt.Sprintf(format, args...)}
}

func (l *lexer) eof() bool { return l.pos >= len(l.src) }

func (l *lexer) peek() byte {
	if l.eof() {
		return 0
	}
	return l.src[l.pos]
}

func (l *lexer) peekAt(off int) byte {
	if l.pos+off >= len(l.src) {
		return 0
	}
	return l.src[l.pos+off]
}

func (l *lexer) advance() byte {
	c := l.src[l.pos]
	l.pos++
	if c == '\n' {
		l.line++
	}
	return c
}

func (l *lexer) skipWS() {
	for !l.eof() {
		c := l.peek()
		if c == ' ' || c == '\t' || c == '\r' || c == '\n' {
			l.advance()
			continue
		}
		if c == '#' {
			for !l.eof() && l.peek() != '\n' {
				l.advance()
			}
			continue
		}
		return
	}
}

// lexAll tokenizes the whole input.
func lexAll(src string) ([]token, error) {
	l := newLexer(src)
	var out []token
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
		if t.kind == tokEOF {
			return out, nil
		}
	}
}

func (l *lexer) next() (token, error) {
	l.skipWS()
	if l.eof() {
		return token{kind: tokEOF, line: l.line}, nil
	}
	line := l.line
	c := l.peek()
	switch c {
	case '{':
		l.advance()
		return token{tokLBrace, "{", line}, nil
	case '}':
		l.advance()
		return token{tokRBrace, "}", line}, nil
	case '(':
		l.advance()
		return token{tokLParen, "(", line}, nil
	case ')':
		l.advance()
		return token{tokRParen, ")", line}, nil
	case '.':
		l.advance()
		return token{tokDot, ".", line}, nil
	case ';':
		l.advance()
		return token{tokSemi, ";", line}, nil
	case ',':
		l.advance()
		return token{tokComma, ",", line}, nil
	case '*':
		l.advance()
		return token{tokStar, "*", line}, nil
	case '+':
		if d := l.peekAt(1); d >= '0' && d <= '9' {
			return l.lexNumber()
		}
		l.advance()
		return token{tokPlus, "+", line}, nil
	case '|':
		l.advance()
		if l.peek() == '|' {
			l.advance()
			return token{tokOrOr, "||", line}, nil
		}
		return token{tokPipe, "|", line}, nil
	case '/':
		l.advance()
		return token{tokSlash, "/", line}, nil
	case '^':
		l.advance()
		if l.peek() == '^' {
			l.advance()
			return token{tokDTSep, "^^", line}, nil
		}
		return token{tokCaret, "^", line}, nil
	case '=':
		l.advance()
		return token{tokEq, "=", line}, nil
	case '!':
		l.advance()
		if l.peek() == '=' {
			l.advance()
			return token{tokNeq, "!=", line}, nil
		}
		return token{tokBang, "!", line}, nil
	case '&':
		l.advance()
		if l.peek() != '&' {
			return token{}, l.errf("expected '&&'")
		}
		l.advance()
		return token{tokAndAnd, "&&", line}, nil
	case '<':
		// IRI ref or less-than. An IRI has no spaces before '>'.
		if l.looksLikeIRI() {
			iri, n, err := rdf.ScanIRIRef(l.src[l.pos:])
			return token{tokIRI, iri, line}, l.scanned(n, err)
		}
		l.advance()
		if l.peek() == '=' {
			l.advance()
			return token{tokLe, "<=", line}, nil
		}
		return token{tokLt, "<", line}, nil
	case '>':
		l.advance()
		if l.peek() == '=' {
			l.advance()
			return token{tokGe, ">=", line}, nil
		}
		return token{tokGt, ">", line}, nil
	case '?', '$':
		return l.lexVar()
	case '"', '\'':
		lex, n, err := rdf.ScanString(l.src[l.pos:])
		return token{tokString, lex, line}, l.scanned(n, err)
	case '@':
		tag, n, err := rdf.ScanLangTag(l.src[l.pos:])
		return token{tokLangTag, tag, line}, l.scanned(n, err)
	case '-':
		return l.lexNumber()
	case ':':
		// Prefixed name with the empty prefix.
		l.advance()
		start := l.pos
		for !l.eof() && isLocalChar(rune(l.peek())) {
			l.advance()
		}
		return token{tokPName, ":" + l.src[start:l.pos], line}, nil
	}
	if c >= '0' && c <= '9' {
		return l.lexNumber()
	}
	return l.lexWord()
}

// scanned moves the cursor past the n bytes an internal/rdf term scanner
// read, counting the line breaks a string may hold, and places the
// scanner's error, if any, at the line the cursor reached.
func (l *lexer) scanned(n int, err error) error {
	l.line += strings.Count(l.src[l.pos:l.pos+n], "\n")
	l.pos += n
	if err != nil {
		return l.errf("%v", err)
	}
	return nil
}

// looksLikeIRI scans ahead from a '<' for a '>' with no whitespace between.
func (l *lexer) looksLikeIRI() bool {
	for i := l.pos + 1; i < len(l.src); i++ {
		switch l.src[i] {
		case '>':
			return true
		case ' ', '\t', '\n', '\r', '"':
			return false
		}
	}
	return false
}

func (l *lexer) lexVar() (token, error) {
	line := l.line
	l.advance() // '?' or '$'
	start := l.pos
	for !l.eof() && isWordChar(rune(l.peek())) {
		l.advance()
	}
	if l.pos == start {
		// bare '?' is the zero-or-one path modifier
		return token{tokQuest, "?", line}, nil
	}
	return token{tokVar, l.src[start:l.pos], line}, nil
}

// lexNumber lexes a number, its sign included.
func (l *lexer) lexNumber() (token, error) {
	line := l.line
	num, n, err := rdf.ScanNumber(l.src[l.pos:])
	return token{tokNumber, num.Value, line}, l.scanned(n, err)
}

// lexWord lexes keywords, the 'a' shortcut, and prefixed names.
func (l *lexer) lexWord() (token, error) {
	line := l.line
	start := l.pos
	for !l.eof() && (isWordChar(rune(l.peek())) || l.peek() == '-') {
		l.advance()
	}
	word := l.src[start:l.pos]
	if word == "" {
		return token{}, l.errf("unexpected character %q", string(l.peek()))
	}
	// Prefixed name: word followed by ':'.
	if !l.eof() && l.peek() == ':' {
		l.advance() // ':'
		lstart := l.pos
		for !l.eof() && isLocalChar(rune(l.peek())) {
			if l.peek() == '.' {
				// trailing '.' terminates the pattern, not the name
				d := l.peekAt(1)
				if !isLocalChar(rune(d)) || d == '.' {
					break
				}
			}
			l.advance()
		}
		return token{tokPName, word + ":" + l.src[lstart:l.pos], line}, nil
	}
	if word == "a" {
		return token{tokA, "a", line}, nil
	}
	up := strings.ToUpper(word)
	if keywords[up] {
		return token{tokKeyword, up, line}, nil
	}
	return token{}, l.errf("unexpected token %q", word)
}

func isWordChar(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_'
}

// isLocalChar accepts characters of a prefixed-name local part. Unlike
// Turtle, '/' is excluded because it separates property-path steps.
func isLocalChar(r rune) bool {
	return isWordChar(r) || r == '-' || r == '.'
}
