package sparql

import (
	"strings"

	"github.com/hpc-io/prov-io/internal/rdf"
)

// This file is the term-space reference evaluator the parity suites compare
// the ID-space engine against (parity_test.go, parallel_test.go,
// aggregate_test.go). It predates the planner/executor split: it materializes
// a map[string]rdf.Term binding per candidate row, probes the graph through
// ForEachMatch, and evaluates basic graph patterns in textual left-to-right
// order with no reordering — join order is a pure optimization, so any
// planner bug that changes the solution multiset shows up against it. It
// shares only the finish tail and the aggregate arithmetic (finishTermRows,
// foldNumeric, compareTerms) with the engine under test.

// EvalLegacyNaive evaluates a parsed query with the term-space evaluator.
func EvalLegacyNaive(g *rdf.Graph, q *Query) (*Result, error) {
	bindings, err := evalGroupTerms(g, q.Where, []Binding{{}})
	if err != nil {
		return nil, err
	}

	// GROUP BY / aggregate projections collapse the solution sequence to one
	// row per group through the shared aggregate arithmetic (foldNumeric,
	// compareTerms), so this oracle stays bit-identical to the ID-space
	// engines.
	if q.isAggregate() {
		return legacyAggregate(q, bindings), nil
	}

	vars := projectedVars(q)

	rows := make([]Binding, 0, len(bindings))
	for _, b := range bindings {
		row := make(Binding, len(vars))
		for _, v := range vars {
			if t, ok := b[v]; ok {
				row[v] = t
			}
		}
		rows = append(rows, row)
	}
	// The finish tail (DISTINCT, total-order sort, OFFSET/LIMIT) is shared
	// with the ID-space executor so the two cannot diverge.
	return finishTermRows(q, vars, rows), nil
}

// clone copies a binding.
func (b Binding) clone() Binding {
	nb := make(Binding, len(b)+1)
	for k, v := range b {
		nb[k] = v
	}
	return nb
}

// lookupVar implements env for the term-space evaluator: FILTER expressions read
// bindings directly.
func (b Binding) lookupVar(name string) (rdf.Term, bool) {
	t, ok := b[name]
	return t, ok
}

// legacyAggState accumulates one aggregate over one group in term space.
type legacyAggState struct {
	count int64
	seen  map[string]struct{} // DISTINCT filter, keyed by term string
	vals  []rdf.Term          // SUM/AVG operands, folded at the end
	best  rdf.Term            // MIN/MAX running extreme
	has   bool
}

// legacyAggGroup is one GROUP BY bucket: a representative binding for the
// grouping columns plus per-aggregate state.
type legacyAggGroup struct {
	rep  Binding
	aggs []legacyAggState
}

// legacyAggregate is the term-space mirror of the executor's aggregate
// finisher. The group key concatenates grouping-term strings with a \x00
// separator (same collision caveat as rowKey — acceptable for the oracle;
// the ID-space engines key on fixed-width IDs).
func legacyAggregate(q *Query, bindings []Binding) *Result {
	groups := make(map[string]*legacyAggGroup)
	var order []string
	for _, b := range bindings {
		var kb strings.Builder
		for _, v := range q.GroupBy {
			if t, ok := b[v]; ok {
				kb.WriteString(t.String())
			}
			kb.WriteByte('\x00')
		}
		key := kb.String()
		grp, ok := groups[key]
		if !ok {
			grp = &legacyAggGroup{rep: b, aggs: make([]legacyAggState, len(q.Aggs))}
			groups[key] = grp
			order = append(order, key)
		}
		for i, a := range q.Aggs {
			legacyAccumulate(&grp.aggs[i], q, a, b)
		}
	}
	// No grouping keys and no rows: one group over the empty sequence
	// (COUNT()=0, SUM()=0, MIN/MAX unbound), per the SPARQL algebra.
	if len(order) == 0 && len(q.GroupBy) == 0 {
		groups[""] = &legacyAggGroup{rep: Binding{}, aggs: make([]legacyAggState, len(q.Aggs))}
		order = append(order, "")
	}

	aliases := q.aggAliases()
	rows := make([]Binding, 0, len(order))
	for _, key := range order {
		grp := groups[key]
		row := make(Binding, len(q.Vars))
		for _, v := range q.Vars {
			if aliases[v] {
				continue
			}
			if t, ok := grp.rep[v]; ok {
				row[v] = t
			}
		}
		for i, a := range q.Aggs {
			if t, ok := legacyAggValue(a, &grp.aggs[i]); ok {
				row[a.As] = t
			}
		}
		rows = append(rows, row)
	}
	return finishTermRows(q, q.Vars, rows)
}

// legacyAccumulate feeds one solution into one aggregate's state, applying
// the same effective-DISTINCT rule as the ID-space executor.
func legacyAccumulate(st *legacyAggState, q *Query, a Aggregate, b Binding) {
	if a.Star {
		st.count++
		return
	}
	t, bound := b[a.Var]
	if !bound {
		return
	}
	distinct := a.Distinct || (q.Distinct && a.Func == AggCount && !a.Star)
	if distinct {
		if st.seen == nil {
			st.seen = make(map[string]struct{})
		}
		key := t.String()
		if _, dup := st.seen[key]; dup {
			return
		}
		st.seen[key] = struct{}{}
	}
	switch a.Func {
	case AggCount:
		st.count++
	case AggSum, AggAvg:
		st.vals = append(st.vals, t)
	case AggMin:
		if !st.has || compareTerms(t, st.best) < 0 {
			st.best, st.has = t, true
		}
	case AggMax:
		if !st.has || compareTerms(t, st.best) > 0 {
			st.best, st.has = t, true
		}
	}
}

// legacyAggValue renders one aggregate's final value; ok=false leaves the
// output column unbound (MIN/MAX over the empty sequence, SUM over
// non-numerics).
func legacyAggValue(a Aggregate, st *legacyAggState) (rdf.Term, bool) {
	switch a.Func {
	case AggCount:
		return rdf.Integer(st.count), true
	case AggSum, AggAvg:
		return foldNumeric(a.Func, st.vals)
	default: // MIN/MAX
		if !st.has {
			return rdf.Term{}, false
		}
		return st.best, true
	}
}

// ---- group evaluation ----

func evalGroupTerms(g *rdf.Graph, grp *Group, in []Binding) ([]Binding, error) {
	cur := in
	var bgp []TriplePattern
	flushBGP := func() {
		if len(bgp) > 0 {
			cur = evalBGPTerms(g, bgp, cur)
			bgp = nil
		}
	}
	for _, e := range grp.Elems {
		var err error
		switch e := e.(type) {
		case TriplePattern:
			// Consecutive triple patterns form a basic graph pattern;
			// they are batched and run in textual order.
			bgp = append(bgp, e)
			continue
		case FilterElem:
			flushBGP()
			cur, err = applyFilterTerms(e.Expr, cur)
		case OptionalElem:
			flushBGP()
			cur, err = applyOptionalTerms(g, e.Group, cur)
		case UnionElem:
			flushBGP()
			cur, err = applyUnionTerms(g, e.Alternatives, cur)
		}
		if err != nil {
			return nil, err
		}
		if len(cur) == 0 {
			return nil, nil
		}
	}
	flushBGP()
	if len(cur) == 0 {
		return nil, nil
	}
	return cur, nil
}

// evalBGPTerms evaluates a basic graph pattern in textual order.
func evalBGPTerms(g *rdf.Graph, patterns []TriplePattern, in []Binding) []Binding {
	cur := in
	for _, tp := range patterns {
		if len(cur) == 0 {
			return cur
		}
		cur = evalTriplePattern(g, tp, cur)
	}
	return cur
}

func applyFilterTerms(expr Expr, in []Binding) ([]Binding, error) {
	out := in[:0]
	for _, b := range in {
		ok, err := evalBool(expr, b)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, b)
		}
	}
	return out, nil
}

func applyOptionalTerms(g *rdf.Graph, sub *Group, in []Binding) ([]Binding, error) {
	var out []Binding
	for _, b := range in {
		matched, err := evalGroupTerms(g, sub, []Binding{b})
		if err != nil {
			return nil, err
		}
		if len(matched) == 0 {
			out = append(out, b)
		} else {
			out = append(out, matched...)
		}
	}
	return out, nil
}

func applyUnionTerms(g *rdf.Graph, alts []*Group, in []Binding) ([]Binding, error) {
	var out []Binding
	for _, alt := range alts {
		matched, err := evalGroupTerms(g, alt, cloneBindings(in))
		if err != nil {
			return nil, err
		}
		out = append(out, matched...)
	}
	return out, nil
}

func cloneBindings(in []Binding) []Binding {
	out := make([]Binding, len(in))
	for i, b := range in {
		out[i] = b.clone()
	}
	return out
}

// evalTriplePattern extends each input binding with all graph matches.
func evalTriplePattern(g *rdf.Graph, tp TriplePattern, in []Binding) []Binding {
	var out []Binding
	for _, b := range in {
		out = append(out, matchPattern(g, tp, b)...)
	}
	return out
}

func matchPattern(g *rdf.Graph, tp TriplePattern, b Binding) []Binding {
	// Resolve bound positions.
	s := resolveNode(tp.S, b)
	o := resolveNode(tp.O, b)

	if tp.P.IsVar() {
		return matchVarPredicate(g, tp, s, o, b)
	}
	if len(tp.P.Steps) == 1 && tp.P.Steps[0].Mod == PathOnce && !tp.P.Steps[0].Inverse {
		return matchSimple(g, tp, s, tp.P.Steps[0].IRI, o, b)
	}
	return matchPath(g, tp, s, o, b)
}

// resolveNode returns the concrete term for a pattern position, or nil if it
// is an unbound variable.
func resolveNode(n NodePattern, b Binding) *rdf.Term {
	if n.IsVar() {
		if t, ok := b[n.Var]; ok {
			tt := t
			return &tt
		}
		return nil
	}
	tt := n.Term
	return &tt
}

func matchSimple(g *rdf.Graph, tp TriplePattern, s *rdf.Term, p rdf.Term, o *rdf.Term, b Binding) []Binding {
	var out []Binding
	g.ForEachMatch(s, &p, o, func(t rdf.Triple) bool {
		nb := b.clone()
		if tp.S.IsVar() {
			nb[tp.S.Var] = t.S
		}
		if tp.O.IsVar() {
			nb[tp.O.Var] = t.O
		}
		out = append(out, nb)
		return true
	})
	return out
}

func matchVarPredicate(g *rdf.Graph, tp TriplePattern, s, o *rdf.Term, b Binding) []Binding {
	var pTerm *rdf.Term
	if t, ok := b[tp.P.Var]; ok {
		pTerm = &t
	}
	var out []Binding
	g.ForEachMatch(s, pTerm, o, func(t rdf.Triple) bool {
		nb := b.clone()
		if tp.S.IsVar() {
			nb[tp.S.Var] = t.S
		}
		nb[tp.P.Var] = t.P
		if tp.O.IsVar() {
			nb[tp.O.Var] = t.O
		}
		out = append(out, nb)
		return true
	})
	return out
}

// matchPath evaluates a property path (sequence of steps with modifiers).
func matchPath(g *rdf.Graph, tp TriplePattern, s, o *rdf.Term, b Binding) []Binding {
	// Enumerate start nodes.
	starts := map[rdf.Term]struct{}{}
	if s != nil {
		starts[*s] = struct{}{}
	} else {
		// All subjects (and objects, for inverse-starting or zero-length
		// paths) are candidate starts; to stay tractable we enumerate nodes
		// reachable as subjects of the first step (or objects if inverted).
		first := tp.P.Steps[0]
		pred := first.IRI
		g.ForEachMatch(nil, &pred, nil, func(t rdf.Triple) bool {
			if first.Inverse {
				starts[t.O] = struct{}{}
			} else {
				starts[t.S] = struct{}{}
			}
			return true
		})
	}

	var out []Binding
	for start := range starts {
		ends := map[rdf.Term]struct{}{start: {}}
		for _, step := range tp.P.Steps {
			ends = walkStep(g, step, ends)
			if len(ends) == 0 {
				break
			}
		}
		for end := range ends {
			if o != nil && !o.Equal(end) {
				continue
			}
			nb := b.clone()
			if tp.S.IsVar() {
				nb[tp.S.Var] = start
			}
			if tp.O.IsVar() {
				nb[tp.O.Var] = end
			}
			out = append(out, nb)
		}
	}
	return out
}

// walkStep advances a frontier of nodes across one path step.
func walkStep(g *rdf.Graph, step PathStep, frontier map[rdf.Term]struct{}) map[rdf.Term]struct{} {
	oneHop := func(nodes map[rdf.Term]struct{}) map[rdf.Term]struct{} {
		next := map[rdf.Term]struct{}{}
		pred := step.IRI
		for n := range nodes {
			nn := n
			if step.Inverse {
				g.ForEachMatch(nil, &pred, &nn, func(t rdf.Triple) bool {
					next[t.S] = struct{}{}
					return true
				})
			} else {
				g.ForEachMatch(&nn, &pred, nil, func(t rdf.Triple) bool {
					next[t.O] = struct{}{}
					return true
				})
			}
		}
		return next
	}

	switch step.Mod {
	case PathOnce:
		return oneHop(frontier)
	case PathZeroOrOne:
		out := copySet(frontier)
		for n := range oneHop(frontier) {
			out[n] = struct{}{}
		}
		return out
	case PathOneOrMore, PathZeroOrMore:
		out := map[rdf.Term]struct{}{}
		if step.Mod == PathZeroOrMore {
			out = copySet(frontier)
		}
		cur := frontier
		for {
			next := oneHop(cur)
			fresh := map[rdf.Term]struct{}{}
			for n := range next {
				if _, seen := out[n]; !seen {
					out[n] = struct{}{}
					fresh[n] = struct{}{}
				}
			}
			if len(fresh) == 0 {
				return out
			}
			cur = fresh
		}
	}
	return nil
}

func copySet(s map[rdf.Term]struct{}) map[rdf.Term]struct{} {
	out := make(map[rdf.Term]struct{}, len(s))
	for k := range s {
		out[k] = struct{}{}
	}
	return out
}
