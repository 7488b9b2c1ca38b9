package sparql

import "github.com/hpc-io/prov-io/internal/rdf"

// Query is a parsed SPARQL SELECT query.
type Query struct {
	Prefixes *rdf.Namespaces
	Distinct bool
	// Vars are the projected output names in SELECT order (without '?'),
	// including aggregate aliases. Empty means '*'.
	Vars []string
	// Aggs are the aggregate projections, in SELECT order. When Aggs or
	// GroupBy is non-empty the query is an aggregate query: solutions are
	// grouped by the GroupBy variables (one global group when GroupBy is
	// empty) and each group emits one output row.
	Aggs []Aggregate
	// GroupBy lists the GROUP BY variables in declaration order.
	GroupBy []string

	Where   *Group
	OrderBy []OrderKey
	Limit   int // -1 means no limit
	Offset  int
}

// AggFunc is an aggregate function.
type AggFunc uint8

// Aggregate functions.
const (
	AggCount AggFunc = iota
	AggSum
	AggMin
	AggMax
	AggAvg
)

// String returns the SPARQL spelling of the function.
func (f AggFunc) String() string {
	switch f {
	case AggCount:
		return "COUNT"
	case AggSum:
		return "SUM"
	case AggMin:
		return "MIN"
	case AggMax:
		return "MAX"
	case AggAvg:
		return "AVG"
	}
	return "AGG?"
}

// Aggregate is one (FUNC(?var) AS ?alias) projection.
type Aggregate struct {
	Func AggFunc
	// Var is the aggregated variable; Star marks COUNT(*).
	Var  string
	Star bool
	// Distinct marks FUNC(DISTINCT ?var).
	Distinct bool
	// As is the output alias.
	As string
}

// aggAliases returns the set of aggregate output aliases.
func (q *Query) aggAliases() map[string]bool {
	if len(q.Aggs) == 0 {
		return nil
	}
	set := make(map[string]bool, len(q.Aggs))
	for _, a := range q.Aggs {
		set[a.As] = true
	}
	return set
}

// isAggregate reports whether the query groups and aggregates solutions.
func (q *Query) isAggregate() bool { return len(q.Aggs) > 0 || len(q.GroupBy) > 0 }

// OrderKey is one ORDER BY sort key.
type OrderKey struct {
	Var  string
	Desc bool
}

// Group is a group graph pattern: a sequence of triple patterns, filters,
// and nested OPTIONAL/UNION groups, evaluated in order.
type Group struct {
	Elems []groupElement
}

// groupElement is one element of a group pattern.
type groupElement interface{ groupElem() }

// TriplePattern matches triples; each position is a variable or a term, and
// the predicate may be a property path.
type TriplePattern struct {
	S, O NodePattern
	P    PathPattern
}

func (TriplePattern) groupElem() {}

// FilterElem is a FILTER constraint.
type FilterElem struct {
	Expr Expr
}

func (FilterElem) groupElem() {}

// OptionalElem is an OPTIONAL { ... } group.
type OptionalElem struct {
	Group *Group
}

func (OptionalElem) groupElem() {}

// UnionElem is { A } UNION { B } (possibly more alternatives).
type UnionElem struct {
	Alternatives []*Group
}

func (UnionElem) groupElem() {}

// NodePattern is a variable or a concrete term.
type NodePattern struct {
	Var  string // non-empty means variable
	Term rdf.Term
}

// IsVar reports whether the pattern is a variable.
func (n NodePattern) IsVar() bool { return n.Var != "" }

// pathMod is a property-path cardinality modifier.
type pathMod uint8

// Path modifiers.
const (
	PathOnce       pathMod = iota // exactly one step
	PathOneOrMore                 // +
	PathZeroOrMore                // *
	PathZeroOrOne                 // ?
)

// PathPattern is the predicate position: either a variable, or a sequence of
// path steps (a single step in the common case).
type PathPattern struct {
	Var   string
	Steps []PathStep
}

// IsVar reports whether the predicate is a variable.
func (p PathPattern) IsVar() bool { return p.Var != "" }

// PathStep is one step of a property path.
type PathStep struct {
	IRI     rdf.Term
	Mod     pathMod
	Inverse bool // ^iri traverses object→subject
}

// Expr is a FILTER expression node.
type Expr interface{ exprNode() }

// BinaryExpr applies Op to L and R.
type BinaryExpr struct {
	Op   string // "=", "!=", "<", ">", "<=", ">=", "&&", "||"
	L, R Expr
}

func (BinaryExpr) exprNode() {}

// NotExpr negates its operand.
type NotExpr struct{ X Expr }

func (NotExpr) exprNode() {}

// VarExpr references a variable binding.
type VarExpr struct{ Name string }

func (VarExpr) exprNode() {}

// TermExpr is a constant RDF term.
type TermExpr struct{ Term rdf.Term }

func (TermExpr) exprNode() {}

// RegexExpr is REGEX(expr, "pattern") with optional flags.
type RegexExpr struct {
	X       Expr
	Pattern string
	Flags   string
}

func (RegexExpr) exprNode() {}

// BoundExpr is BOUND(?v).
type BoundExpr struct{ Name string }

func (BoundExpr) exprNode() {}

// StrExpr is STR(expr): the string form of a term.
type StrExpr struct{ X Expr }

func (StrExpr) exprNode() {}

// StatementCount returns the number of triple-pattern statements in the
// query, the metric the paper's Table 5 reports per provenance need.
func (q *Query) StatementCount() int {
	if q.Where == nil {
		return 0
	}
	return countStatements(q.Where)
}

func countStatements(g *Group) int {
	n := 0
	for _, e := range g.Elems {
		switch e := e.(type) {
		case TriplePattern:
			n++
		case OptionalElem:
			n += countStatements(e.Group)
		case UnionElem:
			for _, alt := range e.Alternatives {
				n += countStatements(alt)
			}
		}
	}
	return n
}
