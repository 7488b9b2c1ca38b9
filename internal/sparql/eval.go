package sparql

import (
	"fmt"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"github.com/hpc-io/prov-io/internal/rdf"
)

// Binding maps variable names to terms.
type Binding map[string]rdf.Term

// Result is the solution sequence of a SELECT query.
type Result struct {
	// Vars are the projected variable names in order.
	Vars []string
	// Rows are the solutions; each row maps projected vars (a var may be
	// unbound in a row when it comes from an OPTIONAL group).
	Rows []Binding
}

// ExecInfo reports how one query was executed: whether the
// epoch-keyed result cache answered it, and if not, whether the plan was
// morsel-parallelized or why it stayed serial.
type ExecInfo struct {
	// Workers is the requested worker count.
	Workers int
	// CacheHit marks a result served from the snapshot's result cache.
	CacheHit bool
	// Parallel marks morsel-parallel execution; Tasks is the number of
	// independent pipelines the plan decomposed into.
	Parallel bool
	Tasks    int
	// SerialReason names why execution stayed serial (empty when Parallel
	// or CacheHit).
	SerialReason string
}

// Summary renders the one-line execution summary the CLI prints.
func (i ExecInfo) Summary() string {
	switch {
	case i.CacheHit:
		return "result cache hit (snapshot epochs unchanged)"
	case i.Parallel:
		return fmt.Sprintf("parallel: %d worker(s) over %d task(s)", i.Workers, i.Tasks)
	default:
		return "serial: " + i.SerialReason
	}
}

// EvalParallel evaluates a parsed query against a graph.
//
// Evaluation is split into two phases (the paper's "user engine" read path,
// §4.4): Compile builds a Plan whose basic graph patterns are join-ordered
// by index-cardinality estimates, and the executor runs the plan entirely in
// dictionary-ID space — bindings are fixed-width []rdf.ID registers, and
// terms are rehydrated only when the Result is materialized. The plan runs
// against g.Snapshot(): the graph lock is taken once to pin the view, every
// index probe after that is lock-free, and the result reflects exactly the
// triples present when EvalParallel was called.
//
// The executor is morsel-driven: the plan decomposes into independent
// pipeline tasks (a leading scan partitioned into morsels; a leading UNION
// flattened into per-alternative tasks; a leading property path morselized
// over its start domain) fanned out to `workers` goroutines, each running
// the identical operator pipeline with its own register arena. The finish
// path's multiset contract makes the output byte-identical to the serial
// run. workers <= 1, empty plans, dead leading constants, and domains below
// the parallel threshold stay serial (decideParallel names the reason).
func EvalParallel(g *rdf.Graph, q *Query, workers int) (*Result, error) {
	snap := g.Snapshot()
	res, _, err := runPlanParallelInfo(snap, Compile(snap, q), workers)
	return res, err
}

// EvalParallelOnInfo evaluates a parsed query with the morsel-driven
// parallel executor against an explicit ScanSource — a pinned
// *rdf.Snapshot or a federated out-of-core source such as core's
// LazySource — returning the execution info alongside the result. The
// same finish-path multiset contract applies: output bytes depend only on
// the solution multiset, so any conforming ScanSource yields output
// byte-identical to the eager snapshot path.
func EvalParallelOnInfo(src ScanSource, q *Query, workers int) (*Result, ExecInfo, error) {
	return runPlanParallelInfo(src, Compile(src, q), workers)
}

// Explain parses the query and returns the planner's EXPLAIN rendering —
// the operator pipeline with cardinality estimates — without executing it,
// followed by the parallel-decomposition verdict for a worker count: the
// number of independent tasks and the morsel domain when the plan
// parallelizes, or the named reason it stays serial. src is a pinned
// snapshot or a federated out-of-core source.
func Explain(src ScanSource, query string, base *rdf.Namespaces, workers int) (string, error) {
	q, err := Parse(query, base)
	if err != nil {
		return "", err
	}
	p := Compile(src, q)
	dec := decideParallel(src, p, workers)
	s := p.String()
	if dec.reason != "" {
		return s + fmt.Sprintf("parallel: serial (%s)\n", dec.reason), nil
	}
	return s + fmt.Sprintf("parallel: %d task(s) over a domain of %d with %d worker(s)\n",
		len(dec.tasks), dec.domain, workers), nil
}

func orderKeysFor(vars []string) []OrderKey {
	ks := make([]OrderKey, len(vars))
	for i, v := range vars {
		ks[i] = OrderKey{Var: v}
	}
	return ks
}

func collectVars(g *Group, set map[string]struct{}) {
	for _, e := range g.Elems {
		switch e := e.(type) {
		case TriplePattern:
			if e.S.IsVar() {
				set[e.S.Var] = struct{}{}
			}
			if e.P.IsVar() {
				set[e.P.Var] = struct{}{}
			}
			if e.O.IsVar() {
				set[e.O.Var] = struct{}{}
			}
		case OptionalElem:
			collectVars(e.Group, set)
		case UnionElem:
			for _, alt := range e.Alternatives {
				collectVars(alt, set)
			}
		}
	}
}

// projectedVars resolves the projection list: the explicit SELECT vars, or
// every variable of the WHERE clause (sorted) for SELECT *.
func projectedVars(q *Query) []string {
	if len(q.Vars) > 0 {
		return q.Vars
	}
	set := map[string]struct{}{}
	collectVars(q.Where, set)
	vars := make([]string, 0, len(set))
	for v := range set {
		vars = append(vars, v)
	}
	sort.Strings(vars)
	return vars
}

// compareTerms orders terms: numerics numerically when both are numeric,
// otherwise by string form. It is a total order on distinct terms —
// numerically equal but lexically different terms (e.g. "1"^^xsd:integer vs
// "1.0"^^xsd:double) fall through to the lexical comparison instead of
// tying. A total order is what makes the finish sort's output a pure
// function of the solution multiset (see finishSortKeys).
func compareTerms(a, b rdf.Term) int {
	if av, aok := numericValue(a); aok {
		if bv, bok := numericValue(b); bok {
			switch {
			case av < bv:
				return -1
			case av > bv:
				return 1
			}
			// equal numerics: fall through to the lexical tie-break
		}
	}
	as, bs := a.String(), b.String()
	switch {
	case as < bs:
		return -1
	case as > bs:
		return 1
	default:
		return 0
	}
}

func numericValue(t rdf.Term) (float64, bool) {
	if !t.IsLiteral() {
		return 0, false
	}
	switch t.Datatype {
	case rdf.XSDInteger, rdf.XSDDouble, rdf.XSDLong, rdf.XSDDecimal:
		v, err := strconv.ParseFloat(t.Value, 64)
		return v, err == nil
	}
	return 0, false
}

// finishSortKeys returns the deterministic finish-path sort keys for a
// query: the explicit ORDER BY keys followed by every projected output name
// as a tie-breaker. With the total-order comparators this pins the output
// byte-for-byte to the solution multiset, which is the contract that lets
// the serial, morsel-parallel, and legacy engines produce identical results
// regardless of the order each one generates rows in. Under DISTINCT the
// ORDER BY keys are restricted to projected variables (as the SPARQL
// grammar requires): a non-projected sort key would make the output depend
// on which duplicate DISTINCT kept.
func finishSortKeys(q *Query, project []string) []OrderKey {
	keys := make([]OrderKey, 0, len(q.OrderBy)+len(project))
	if q.Distinct {
		proj := make(map[string]bool, len(project))
		for _, v := range project {
			proj[v] = true
		}
		for _, k := range q.OrderBy {
			if proj[k.Var] {
				keys = append(keys, k)
			}
		}
	} else {
		keys = append(keys, q.OrderBy...)
	}
	return append(keys, orderKeysFor(project)...)
}

// ---- aggregate arithmetic (shared by the ID-space and legacy engines) ----

// aggNumeric classifies a term for SUM/AVG accumulation: integer datatypes
// parse exactly to int64, other numeric datatypes to float64.
func aggNumeric(t rdf.Term) (i int64, f float64, isInt, ok bool) {
	if !t.IsLiteral() {
		return 0, 0, false, false
	}
	switch t.Datatype {
	case rdf.XSDInteger, rdf.XSDLong:
		v, err := strconv.ParseInt(t.Value, 10, 64)
		if err != nil {
			return 0, 0, false, false
		}
		return v, float64(v), true, true
	case rdf.XSDDouble, rdf.XSDDecimal:
		v, err := strconv.ParseFloat(t.Value, 64)
		if err != nil {
			return 0, 0, false, false
		}
		return 0, v, false, true
	}
	return 0, 0, false, false
}

// foldNumeric folds a multiset of terms for SUM or AVG. The values are
// summed in compareTerms order — float addition is not associative, so a
// canonical summation order is required for the engines (which produce rows
// in different orders) to agree bit-for-bit. An all-integer SUM yields
// xsd:integer, anything else xsd:decimal; AVG always yields xsd:decimal.
// The empty sequence yields 0 (per the SPARQL definitions of Sum/Avg);
// any non-numeric value makes the aggregate error out — ok=false, an
// unbound output column.
func foldNumeric(fn AggFunc, vals []rdf.Term) (rdf.Term, bool) {
	if len(vals) == 0 {
		return rdf.Integer(0), true
	}
	sort.SliceStable(vals, func(i, j int) bool { return compareTerms(vals[i], vals[j]) < 0 })
	var sumI int64
	var sumF float64
	allInt := true
	for _, t := range vals {
		i64, f, isInt, ok := aggNumeric(t)
		if !ok {
			return rdf.Term{}, false
		}
		if isInt {
			sumI += i64
		} else {
			allInt = false
		}
		sumF += f
	}
	if fn == AggAvg {
		if allInt {
			return rdf.Decimal(float64(sumI) / float64(len(vals))), true
		}
		return rdf.Decimal(sumF / float64(len(vals))), true
	}
	if allInt {
		return rdf.Integer(sumI), true
	}
	return rdf.Decimal(sumF), true
}

// finishTermRows runs the shared term-space finish tail on materialized
// output rows: DISTINCT, the deterministic sort, OFFSET/LIMIT. Both the
// ID-space aggregate finisher and the test-only term-space oracle
// (oracle_test.go) end here, so their tails cannot diverge.
func finishTermRows(q *Query, project []string, rows []Binding) *Result {
	if q.Distinct {
		rows = dedupeRows(project, rows)
	}
	sortRows(rows, finishSortKeys(q, project))
	if q.Offset > 0 {
		if q.Offset >= len(rows) {
			rows = nil
		} else {
			rows = rows[q.Offset:]
		}
	}
	if q.Limit >= 0 && q.Limit < len(rows) {
		rows = rows[:q.Limit]
	}
	return &Result{Vars: project, Rows: rows}
}

func dedupeRows(vars []string, rows []Binding) []Binding {
	seen := make(map[string]struct{}, len(rows))
	out := rows[:0]
	for _, r := range rows {
		k := rowKey(vars, r)
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		out = append(out, r)
	}
	return out
}

// rowKey builds a dedupe key by concatenating term strings with a \x00
// separator. A literal containing the separator can collide with an
// adjacent column; the ID-space executor keys on fixed-width IDs, which
// cannot collide, so only the aggregate finisher's one row per group still
// comes through here.
func rowKey(vars []string, r Binding) string {
	var b strings.Builder
	for _, v := range vars {
		if t, ok := r[v]; ok {
			b.WriteString(t.String())
		}
		b.WriteByte('\x00')
	}
	return b.String()
}

func sortRows(rows []Binding, keys []OrderKey) {
	sort.SliceStable(rows, func(i, j int) bool {
		for _, k := range keys {
			a, aok := rows[i][k.Var]
			b, bok := rows[j][k.Var]
			if !aok && !bok {
				continue
			}
			if !aok {
				return !k.Desc // unbound sorts first ascending
			}
			if !bok {
				return k.Desc
			}
			c := compareTerms(a, b)
			if c == 0 {
				continue
			}
			if k.Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
}

// ---- FILTER expression evaluation ----

// env resolves variable references during FILTER evaluation. The ID-space
// executor passes register rows that hydrate terms on demand; the term-space
// test oracle passes Binding maps.
type env interface {
	lookupVar(name string) (rdf.Term, bool)
}

// value is the evaluated form of an expression: a term or an error state.
type value struct {
	term  rdf.Term
	valid bool
}

func evalBool(e Expr, b env) (bool, error) {
	v, err := evalExpr(e, b)
	if err != nil {
		return false, err
	}
	if !v.valid {
		return false, nil
	}
	return effectiveBool(v.term), nil
}

// effectiveBool implements SPARQL's effective boolean value for our types.
func effectiveBool(t rdf.Term) bool {
	if !t.IsLiteral() {
		return true // bound IRI/blank counts as true in our subset
	}
	switch t.Datatype {
	case rdf.XSDBoolean:
		return t.Value == "true"
	case rdf.XSDInteger, rdf.XSDDouble, rdf.XSDLong:
		v, err := strconv.ParseFloat(t.Value, 64)
		return err == nil && v != 0
	default:
		return t.Value != ""
	}
}

func evalExpr(e Expr, b env) (value, error) {
	switch e := e.(type) {
	case VarExpr:
		t, ok := b.lookupVar(e.Name)
		return value{term: t, valid: ok}, nil
	case TermExpr:
		return value{term: e.Term, valid: true}, nil
	case BoundExpr:
		_, ok := b.lookupVar(e.Name)
		return value{term: rdf.Boolean(ok), valid: true}, nil
	case StrExpr:
		v, err := evalExpr(e.X, b)
		if err != nil || !v.valid {
			return value{}, err
		}
		return value{term: rdf.Literal(termText(v.term)), valid: true}, nil
	case NotExpr:
		v, err := evalExpr(e.X, b)
		if err != nil {
			return value{}, err
		}
		if !v.valid {
			return value{}, nil
		}
		return value{term: rdf.Boolean(!effectiveBool(v.term)), valid: true}, nil
	case RegexExpr:
		v, err := evalExpr(e.X, b)
		if err != nil {
			return value{}, err
		}
		if !v.valid {
			return value{}, nil
		}
		pat := e.Pattern
		if strings.Contains(e.Flags, "i") {
			pat = "(?i)" + pat
		}
		re, err := regexp.Compile(pat)
		if err != nil {
			return value{}, &Error{Msg: "bad REGEX pattern: " + err.Error()}
		}
		return value{term: rdf.Boolean(re.MatchString(termText(v.term))), valid: true}, nil
	case BinaryExpr:
		return evalBinary(e, b)
	}
	return value{}, &Error{Msg: "unknown expression node"}
}

func evalBinary(e BinaryExpr, b env) (value, error) {
	switch e.Op {
	case "&&", "||":
		lv, err := evalBool(e.L, b)
		if err != nil {
			return value{}, err
		}
		if e.Op == "&&" && !lv {
			return value{term: rdf.Boolean(false), valid: true}, nil
		}
		if e.Op == "||" && lv {
			return value{term: rdf.Boolean(true), valid: true}, nil
		}
		rv, err := evalBool(e.R, b)
		if err != nil {
			return value{}, err
		}
		return value{term: rdf.Boolean(rv), valid: true}, nil
	}
	lv, err := evalExpr(e.L, b)
	if err != nil {
		return value{}, err
	}
	rv, err := evalExpr(e.R, b)
	if err != nil {
		return value{}, err
	}
	if !lv.valid || !rv.valid {
		return value{}, nil
	}
	var c int
	ln, lok := numericValue(lv.term)
	rn, rok := numericValue(rv.term)
	if lok && rok {
		switch {
		case ln < rn:
			c = -1
		case ln > rn:
			c = 1
		}
	} else if e.Op == "=" || e.Op == "!=" {
		if lv.term.Equal(rv.term) {
			c = 0
		} else {
			c = 1
		}
	} else {
		lt, rt := termText(lv.term), termText(rv.term)
		switch {
		case lt < rt:
			c = -1
		case lt > rt:
			c = 1
		}
	}
	var out bool
	switch e.Op {
	case "=":
		out = c == 0
	case "!=":
		out = c != 0
	case "<":
		out = c < 0
	case ">":
		out = c > 0
	case "<=":
		out = c <= 0
	case ">=":
		out = c >= 0
	default:
		return value{}, &Error{Msg: "unknown operator " + e.Op}
	}
	return value{term: rdf.Boolean(out), valid: true}, nil
}

// termText is the plain text content of a term (IRI string or literal
// lexical form).
func termText(t rdf.Term) string { return t.Value }
