package sparql

import (
	"fmt"
	"strings"

	"github.com/hpc-io/prov-io/internal/rdf"
)

// Parse parses a SPARQL SELECT query. The optional base namespaces are
// consulted for prefixes not declared in the query itself (the user engine
// passes the PROV-IO model's namespace table so queries can omit the
// boilerplate PREFIX block).
func Parse(src string, base *rdf.Namespaces) (*Query, error) {
	ns := rdf.NewNamespaces()
	if base != nil {
		ns = base.Clone()
	}
	p := &parser{lex: newLexer(src), q: &Query{Prefixes: ns, Limit: -1}}
	err := p.parseQuery()
	if p.lexErr != nil {
		err = p.lexErr
	}
	if err != nil {
		return nil, err
	}
	return p.q, nil
}

// parser pulls its tokens from the lexer one at a time, when it asks for
// them, so the lexer knows where an operator may stand (see op).
type parser struct {
	lex    *lexer
	tok    token // the current token, when lexed
	lexed  bool
	lexErr error // the lexer's error: the parser then reads an end of input
	q      *Query
}

// cur is the current token, lexed in term position if it is not yet lexed.
func (p *parser) cur() token { return p.lexCur(false) }

// op is the current token, lexed in operator position if it is not yet
// lexed, so '<' is less-than there. Only parseRelExpr asks for one.
func (p *parser) op() token { return p.lexCur(true) }

func (p *parser) lexCur(op bool) token {
	if !p.lexed && p.lexErr == nil {
		if p.tok, p.lexErr = p.lex.next(op); p.lexErr != nil {
			p.tok = token{kind: tokEOF, line: p.lex.line}
		}
	}
	p.lexed = true
	return p.tok
}

// next consumes the current token and returns it.
func (p *parser) next() token {
	t := p.cur()
	p.lexed = false
	return t
}

func (p *parser) errf(format string, args ...any) error {
	return &Error{Line: p.cur().line, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) acceptKeyword(kw string) bool {
	if p.cur().kind == tokKeyword && p.cur().text == kw {
		p.next()
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return p.errf("expected %s, got %q", kw, p.cur().text)
	}
	return nil
}

func (p *parser) expectKind(k tokenKind, what string) (token, error) {
	if p.cur().kind != k {
		return token{}, p.errf("expected %s, got %q", what, p.cur().text)
	}
	return p.next(), nil
}

func (p *parser) parseQuery() error {
	for p.acceptKeyword("PREFIX") {
		if err := p.parsePrefixDecl(); err != nil {
			return err
		}
	}
	if err := p.expectKeyword("SELECT"); err != nil {
		return err
	}
	if p.acceptKeyword("DISTINCT") {
		p.q.Distinct = true
	}
	if err := p.parseProjection(); err != nil {
		return err
	}
	// WHERE keyword is optional before '{'.
	p.acceptKeyword("WHERE")
	g, err := p.parseGroup()
	if err != nil {
		return err
	}
	p.q.Where = g
	if err := p.parseSolutionModifiers(); err != nil {
		return err
	}
	if p.cur().kind != tokEOF {
		return p.errf("unexpected trailing token %q", p.cur().text)
	}
	return p.validateAggregates()
}

// validateAggregates enforces the SPARQL grouping rules our subset supports:
// with aggregates or GROUP BY present, every plain projected variable must be
// a GROUP BY variable, aggregate aliases must be unique and must not shadow a
// plain projection, and SELECT * cannot be grouped.
func (p *parser) validateAggregates() error {
	q := p.q
	if !q.isAggregate() {
		return nil
	}
	if len(q.Vars) == 0 {
		return p.errf("SELECT * cannot be combined with GROUP BY or aggregates")
	}
	grouped := make(map[string]bool, len(q.GroupBy))
	for _, v := range q.GroupBy {
		grouped[v] = true
	}
	aliases := q.aggAliases()
	seen := make(map[string]bool, len(q.Vars))
	for _, v := range q.Vars {
		if seen[v] {
			return p.errf("duplicate projection of ?%s in an aggregate query", v)
		}
		seen[v] = true
		if !aliases[v] && !grouped[v] {
			return p.errf("variable ?%s is projected but neither aggregated nor in GROUP BY", v)
		}
	}
	return nil
}

func (p *parser) parsePrefixDecl() error {
	t, err := p.expectKind(tokPName, "prefix name")
	if err != nil {
		return err
	}
	prefix, local, _ := strings.Cut(t.text, ":")
	if local != "" {
		return p.errf("malformed PREFIX declaration %q", t.text)
	}
	iri, err := p.expectKind(tokIRI, "IRI")
	if err != nil {
		return err
	}
	p.q.Prefixes.Bind(prefix, iri.text)
	return nil
}

func (p *parser) parseProjection() error {
	if p.cur().kind == tokStar {
		p.next()
		return nil
	}
	for {
		switch p.cur().kind {
		case tokVar:
			p.q.Vars = append(p.q.Vars, p.next().text)
			continue
		case tokLParen:
			if err := p.parseAggProjection(); err != nil {
				return err
			}
			continue
		}
		break
	}
	if len(p.q.Vars) == 0 {
		return p.errf("SELECT needs '*', variables, or (FUNC(...) AS ?v)")
	}
	return nil
}

// aggFuncs maps projection keywords to aggregate functions.
var aggFuncs = map[string]AggFunc{
	"COUNT": AggCount, "SUM": AggSum, "MIN": AggMin, "MAX": AggMax, "AVG": AggAvg,
}

// parseAggProjection parses one (FUNC(DISTINCT? ?v) AS ?n) projection;
// COUNT also accepts '*'.
func (p *parser) parseAggProjection() error {
	p.next() // '('
	t := p.cur()
	fn, ok := AggFunc(0), false
	if t.kind == tokKeyword {
		fn, ok = aggFuncs[t.text]
	}
	if !ok {
		return p.errf("expected aggregate function (COUNT/SUM/MIN/MAX/AVG), got %q", t.text)
	}
	p.next()
	agg := Aggregate{Func: fn}
	if _, err := p.expectKind(tokLParen, "'('"); err != nil {
		return err
	}
	if p.acceptKeyword("DISTINCT") {
		agg.Distinct = true
	}
	switch p.cur().kind {
	case tokStar:
		if fn != AggCount {
			return p.errf("%s needs a variable, not '*'", fn)
		}
		if agg.Distinct {
			return p.errf("COUNT(DISTINCT *) is not supported")
		}
		p.next()
		agg.Star = true
	case tokVar:
		agg.Var = p.next().text
	default:
		return p.errf("%s needs a variable", fn)
	}
	if _, err := p.expectKind(tokRParen, "')'"); err != nil {
		return err
	}
	if err := p.expectKeyword("AS"); err != nil {
		return err
	}
	v, err := p.expectKind(tokVar, "variable")
	if err != nil {
		return err
	}
	agg.As = v.text
	if _, err := p.expectKind(tokRParen, "')'"); err != nil {
		return err
	}
	p.q.Aggs = append(p.q.Aggs, agg)
	p.q.Vars = append(p.q.Vars, agg.As)
	return nil
}

func (p *parser) parseGroup() (*Group, error) {
	if _, err := p.expectKind(tokLBrace, "'{'"); err != nil {
		return nil, err
	}
	g := &Group{}
	for {
		switch {
		case p.cur().kind == tokRBrace:
			p.next()
			return g, nil
		case p.cur().kind == tokEOF:
			return nil, p.errf("unterminated group pattern")
		case p.cur().kind == tokKeyword && p.cur().text == "FILTER":
			p.next()
			e, err := p.parseBrackettedExpr()
			if err != nil {
				return nil, err
			}
			g.Elems = append(g.Elems, FilterElem{Expr: e})
		case p.cur().kind == tokKeyword && p.cur().text == "OPTIONAL":
			p.next()
			sub, err := p.parseGroup()
			if err != nil {
				return nil, err
			}
			g.Elems = append(g.Elems, OptionalElem{Group: sub})
		case p.cur().kind == tokLBrace:
			// { A } UNION { B } [UNION { C } ...]
			alt, err := p.parseGroup()
			if err != nil {
				return nil, err
			}
			u := UnionElem{Alternatives: []*Group{alt}}
			for p.acceptKeyword("UNION") {
				alt, err := p.parseGroup()
				if err != nil {
					return nil, err
				}
				u.Alternatives = append(u.Alternatives, alt)
			}
			g.Elems = append(g.Elems, u)
		case p.cur().kind == tokDot:
			p.next() // stray separator
		default:
			if err := p.parseTriplesBlock(g); err != nil {
				return nil, err
			}
		}
	}
}

// parseTriplesBlock parses: subject (path object ("," object)*)
// (";" path object ("," object)*)* "."?
func (p *parser) parseTriplesBlock(g *Group) error {
	s, err := p.parseNode()
	if err != nil {
		return err
	}
	for {
		path, err := p.parsePath()
		if err != nil {
			return err
		}
		for {
			o, err := p.parseNode()
			if err != nil {
				return err
			}
			g.Elems = append(g.Elems, TriplePattern{S: s, P: path, O: o})
			if p.cur().kind == tokComma {
				p.next()
				continue
			}
			break
		}
		if p.cur().kind == tokSemi {
			p.next()
			// Allow dangling ';' before '.' or '}'.
			if p.cur().kind == tokDot || p.cur().kind == tokRBrace {
				break
			}
			continue
		}
		break
	}
	if p.cur().kind == tokDot {
		p.next()
	}
	return nil
}

func (p *parser) parseNode() (NodePattern, error) {
	switch t := p.cur(); t.kind {
	case tokVar:
		p.next()
		return NodePattern{Var: t.text}, nil
	case tokIRI:
		p.next()
		return NodePattern{Term: rdf.IRI(t.text)}, nil
	case tokPName:
		p.next()
		iri, ok := p.q.Prefixes.Expand(t.text)
		if !ok {
			return NodePattern{}, p.errf("unbound prefix in %q", t.text)
		}
		return NodePattern{Term: rdf.IRI(iri)}, nil
	case tokString:
		p.next()
		// optional @lang or ^^datatype
		if p.cur().kind == tokLangTag {
			lang := p.next().text
			return NodePattern{Term: rdf.LangLiteral(t.text, lang)}, nil
		}
		if p.cur().kind == tokDTSep {
			p.next()
			dt, err := p.parseNode()
			if err != nil {
				return NodePattern{}, err
			}
			if !dt.Term.IsIRI() {
				return NodePattern{}, p.errf("datatype must be an IRI")
			}
			return NodePattern{Term: rdf.TypedLiteral(t.text, dt.Term.Value)}, nil
		}
		return NodePattern{Term: rdf.Literal(t.text)}, nil
	case tokNumber:
		p.next()
		num, _, _ := rdf.ScanNumber(t.text) // the lexer read it whole
		return NodePattern{Term: num}, nil
	case tokKeyword:
		if t.text == "TRUE" || t.text == "FALSE" {
			p.next()
			return NodePattern{Term: rdf.Boolean(t.text == "TRUE")}, nil
		}
	}
	return NodePattern{}, p.errf("expected term or variable, got %q", p.cur().text)
}

// parsePath parses the predicate position: a variable, 'a', or a property
// path (sequence of steps separated by '/', each optionally inverted with
// '^' and modified with +, *, ?).
func (p *parser) parsePath() (PathPattern, error) {
	if p.cur().kind == tokVar {
		return PathPattern{Var: p.next().text}, nil
	}
	var steps []PathStep
	for {
		step, err := p.parsePathStep()
		if err != nil {
			return PathPattern{}, err
		}
		steps = append(steps, step)
		if p.cur().kind == tokSlash {
			p.next()
			continue
		}
		break
	}
	return PathPattern{Steps: steps}, nil
}

func (p *parser) parsePathStep() (PathStep, error) {
	var step PathStep
	if p.cur().kind == tokCaret {
		p.next()
		step.Inverse = true
	}
	switch t := p.cur(); t.kind {
	case tokA:
		p.next()
		step.IRI = rdf.IRI(rdf.RDFType)
	case tokIRI:
		p.next()
		step.IRI = rdf.IRI(t.text)
	case tokPName:
		p.next()
		iri, ok := p.q.Prefixes.Expand(t.text)
		if !ok {
			return PathStep{}, p.errf("unbound prefix in %q", t.text)
		}
		step.IRI = rdf.IRI(iri)
	default:
		return PathStep{}, p.errf("expected predicate, got %q", t.text)
	}
	switch p.cur().kind {
	case tokPlus:
		p.next()
		step.Mod = PathOneOrMore
	case tokStar:
		p.next()
		step.Mod = PathZeroOrMore
	case tokQuest:
		p.next()
		step.Mod = PathZeroOrOne
	}
	return step, nil
}

func (p *parser) parseSolutionModifiers() error {
	for {
		switch {
		case p.acceptKeyword("GROUP"):
			if err := p.expectKeyword("BY"); err != nil {
				return err
			}
			for p.cur().kind == tokVar {
				p.q.GroupBy = append(p.q.GroupBy, p.next().text)
			}
			if len(p.q.GroupBy) == 0 {
				return p.errf("GROUP BY needs at least one variable")
			}
		case p.acceptKeyword("ORDER"):
			if err := p.expectKeyword("BY"); err != nil {
				return err
			}
			for {
				desc := false
				if p.acceptKeyword("DESC") {
					desc = true
				} else {
					p.acceptKeyword("ASC")
				}
				if p.cur().kind == tokLParen {
					p.next()
					v, err := p.expectKind(tokVar, "variable")
					if err != nil {
						return err
					}
					if _, err := p.expectKind(tokRParen, "')'"); err != nil {
						return err
					}
					p.q.OrderBy = append(p.q.OrderBy, OrderKey{Var: v.text, Desc: desc})
				} else if p.cur().kind == tokVar {
					p.q.OrderBy = append(p.q.OrderBy, OrderKey{Var: p.next().text, Desc: desc})
				} else {
					break
				}
				if p.cur().kind != tokVar && !(p.cur().kind == tokKeyword && (p.cur().text == "ASC" || p.cur().text == "DESC")) && p.cur().kind != tokLParen {
					break
				}
			}
		case p.acceptKeyword("LIMIT"):
			t, err := p.expectKind(tokNumber, "number")
			if err != nil {
				return err
			}
			n, err := parseInt(t.text)
			if err != nil || n < 0 {
				return p.errf("bad LIMIT %q", t.text)
			}
			p.q.Limit = n
		case p.acceptKeyword("OFFSET"):
			t, err := p.expectKind(tokNumber, "number")
			if err != nil {
				return err
			}
			n, err := parseInt(t.text)
			if err != nil || n < 0 {
				return p.errf("bad OFFSET %q", t.text)
			}
			p.q.Offset = n
		default:
			return nil
		}
	}
}

func parseInt(s string) (int, error) {
	var n int
	_, err := fmt.Sscanf(s, "%d", &n)
	return n, err
}

// ---- FILTER expression parsing (precedence climbing) ----

func (p *parser) parseBrackettedExpr() (Expr, error) {
	if _, err := p.expectKind(tokLParen, "'('"); err != nil {
		return nil, err
	}
	e, err := p.parseOrExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expectKind(tokRParen, "')'"); err != nil {
		return nil, err
	}
	return e, nil
}

func (p *parser) parseOrExpr() (Expr, error) {
	l, err := p.parseAndExpr()
	if err != nil {
		return nil, err
	}
	for p.cur().kind == tokOrOr {
		p.next()
		r, err := p.parseAndExpr()
		if err != nil {
			return nil, err
		}
		l = BinaryExpr{Op: "||", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAndExpr() (Expr, error) {
	l, err := p.parseRelExpr()
	if err != nil {
		return nil, err
	}
	for p.cur().kind == tokAndAnd {
		p.next()
		r, err := p.parseRelExpr()
		if err != nil {
			return nil, err
		}
		l = BinaryExpr{Op: "&&", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseRelExpr() (Expr, error) {
	l, err := p.parsePrimaryExpr()
	if err != nil {
		return nil, err
	}
	var op string
	switch p.op().kind {
	case tokEq:
		op = "="
	case tokNeq:
		op = "!="
	case tokLt:
		op = "<"
	case tokGt:
		op = ">"
	case tokLe:
		op = "<="
	case tokGe:
		op = ">="
	default:
		return l, nil
	}
	p.next()
	r, err := p.parsePrimaryExpr()
	if err != nil {
		return nil, err
	}
	return BinaryExpr{Op: op, L: l, R: r}, nil
}

func (p *parser) parsePrimaryExpr() (Expr, error) {
	switch t := p.cur(); {
	case t.kind == tokBang:
		p.next()
		x, err := p.parsePrimaryExpr()
		if err != nil {
			return nil, err
		}
		return NotExpr{X: x}, nil
	case t.kind == tokLParen:
		p.next()
		e, err := p.parseOrExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expectKind(tokRParen, "')'"); err != nil {
			return nil, err
		}
		return e, nil
	case t.kind == tokVar:
		p.next()
		return VarExpr{Name: t.text}, nil
	case t.kind == tokString:
		p.next()
		return TermExpr{Term: rdf.Literal(t.text)}, nil
	case t.kind == tokNumber:
		p.next()
		num, _, _ := rdf.ScanNumber(t.text) // the lexer read it whole
		return TermExpr{Term: num}, nil
	case t.kind == tokIRI:
		p.next()
		return TermExpr{Term: rdf.IRI(t.text)}, nil
	case t.kind == tokPName:
		p.next()
		iri, ok := p.q.Prefixes.Expand(t.text)
		if !ok {
			return nil, p.errf("unbound prefix in %q", t.text)
		}
		return TermExpr{Term: rdf.IRI(iri)}, nil
	case t.kind == tokKeyword && t.text == "REGEX":
		p.next()
		if _, err := p.expectKind(tokLParen, "'('"); err != nil {
			return nil, err
		}
		x, err := p.parseOrExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expectKind(tokComma, "','"); err != nil {
			return nil, err
		}
		pat, err := p.expectKind(tokString, "pattern string")
		if err != nil {
			return nil, err
		}
		flags := ""
		if p.cur().kind == tokComma {
			p.next()
			f, err := p.expectKind(tokString, "flags string")
			if err != nil {
				return nil, err
			}
			flags = f.text
		}
		if _, err := p.expectKind(tokRParen, "')'"); err != nil {
			return nil, err
		}
		return RegexExpr{X: x, Pattern: pat.text, Flags: flags}, nil
	case t.kind == tokKeyword && t.text == "BOUND":
		p.next()
		if _, err := p.expectKind(tokLParen, "'('"); err != nil {
			return nil, err
		}
		v, err := p.expectKind(tokVar, "variable")
		if err != nil {
			return nil, err
		}
		if _, err := p.expectKind(tokRParen, "')'"); err != nil {
			return nil, err
		}
		return BoundExpr{Name: v.text}, nil
	case t.kind == tokKeyword && t.text == "STR":
		p.next()
		if _, err := p.expectKind(tokLParen, "'('"); err != nil {
			return nil, err
		}
		x, err := p.parseOrExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expectKind(tokRParen, "')'"); err != nil {
			return nil, err
		}
		return StrExpr{X: x}, nil
	case t.kind == tokKeyword && (t.text == "TRUE" || t.text == "FALSE"):
		p.next()
		return TermExpr{Term: rdf.Boolean(t.text == "TRUE")}, nil
	}
	return nil, p.errf("unexpected token %q in expression", p.cur().text)
}
