package sparql

import (
	"fmt"
	"strings"
	"unicode/utf8"

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

// next lexes the token at the cursor. Where op is set the parser expects an
// operator, so '<' is less-than; anywhere else it starts an IRIREF.
func (l *lexer) next(op bool) (token, error) {
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
		if !op {
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

// lexVar lexes a variable, or a bare '?': the zero-or-one path modifier.
// VARNAME is PN_CHARS without '-', so it is the run of a blank label up to
// its first '-' or '.'.
func (l *lexer) lexVar() (token, error) {
	line := l.line
	l.advance() // '?' or '$'
	name, _, _ := rdf.ScanBlankLabel(l.src[l.pos:])
	if i := strings.IndexAny(name, "-."); i >= 0 {
		name = name[:i]
	}
	l.pos += len(name)
	if name == "" {
		return token{tokQuest, "?", line}, nil
	}
	return token{tokVar, name, line}, nil
}

// lexNumber lexes a number, its sign included.
func (l *lexer) lexNumber() (token, error) {
	line := l.line
	num, n, err := rdf.ScanNumber(l.src[l.pos:])
	return token{tokNumber, num.Value, line}, l.scanned(n, err)
}

// lexWord lexes a prefixed name, or a bare word: the 'a' shortcut or a
// keyword.
func (l *lexer) lexWord() (token, error) {
	line := l.line
	word, _, n, err := rdf.ScanPrefixedName(l.src[l.pos:])
	if err != nil {
		r, _ := utf8.DecodeRuneInString(l.src[l.pos:])
		return token{}, l.errf("unexpected character %q", string(r))
	}
	text := l.src[l.pos : l.pos+n]
	l.pos += n
	if n > len(word) {
		return token{tokPName, text, line}, nil
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
