package sparql

import (
	"sort"

	"github.com/hpc-io/prov-io/internal/rdf"
)

// The executor runs a compiled Plan entirely in dictionary-ID space: a
// solution row is a fixed-width []rdf.ID register file indexed by the
// plan's var→slot table (rdf.NoID = unbound), graph probes go through
// ForEachMatchIDs, and DISTINCT/ORDER BY/aggregation compare raw IDs. Terms
// are rehydrated only for FILTER expressions, ORDER BY comparisons between
// distinct IDs, aggregate arithmetic, and final Result materialization. Fixed-width ID keys also close the
// separator-collision hazard of the legacy evaluator's string rowKey.
//
// Every operator of the pipeline is implemented exactly once, as a physOp
// run method on this executor; the morsel-parallel path (parallel.go) runs
// the same methods over partitioned inputs. The output contract that makes
// that sound: the finish path sorts with the ORDER BY keys plus every
// projected variable as tie-breakers, under a total-order comparator, so the
// final bytes depend only on the solution multiset — never on the order rows
// were produced in.
//
// Rows are immutable once appended to a result set: every extension copies.
// That lets OPTIONAL/UNION share row storage without the deep clones the
// map-based evaluator needed.

// idRow is one solution: a register per query variable.
type idRow []rdf.ID

type executor struct {
	g     Source
	plan  *Plan
	width int
	// strs caches Term.String() per ID for ORDER BY comparisons — String
	// re-renders on every call, which would otherwise dominate allocations
	// when sorting large results.
	strs map[rdf.ID]string
	// arena block-allocates rows: rows are append-only and live until the
	// Result materializes, so carving them out of shared slabs turns one
	// heap allocation per row into one per arenaRows rows.
	arena []rdf.ID
	// sortHook, when set, replaces the stable sort inside sortRows — the
	// morsel-parallel path installs its chunked sorter here so the shared
	// finish path stays identical otherwise. The hook must order rows
	// exactly as sort.SliceStable with rowLess would.
	sortHook func(rows []idRow, keys []OrderKey, slots []int)
}

// newExecutor is the one construction site for executors: serial run,
// per-worker, and merge executors all go through it, so their setup cannot
// drift between paths.
func newExecutor(g Source, p *Plan) *executor {
	return &executor{g: g, plan: p, width: len(p.vars)}
}

// arenaRows is the slab size of the row arena, in rows.
const arenaRows = 512

// newRow carves a copy of src out of the arena.
func (e *executor) newRow(src idRow) idRow {
	w := e.width
	if w == 0 {
		return nil
	}
	if len(e.arena) < w {
		e.arena = make([]rdf.ID, arenaRows*w)
	}
	r := e.arena[:w:w]
	e.arena = e.arena[w:]
	copy(r, src)
	return r
}

// seedRow returns the all-unbound input row of a pipeline.
func seedRow(width int) idRow {
	seed := make(idRow, width)
	for i := range seed {
		seed[i] = rdf.NoID
	}
	return seed
}

// runPlan executes a compiled plan serially and materializes the Result.
func runPlan(g Source, p *Plan) (*Result, error) {
	e := newExecutor(g, p)
	rows, err := e.runOps(p.ops, []idRow{seedRow(e.width)})
	if err != nil {
		return nil, err
	}
	return e.finish(rows)
}

// runOps pushes the input rows through a pipeline of operators.
func (e *executor) runOps(ops []physOp, in []idRow) ([]idRow, error) {
	cur := in
	for _, op := range ops {
		if len(cur) == 0 {
			return nil, nil
		}
		var err error
		cur, err = op.run(e, cur)
		if err != nil {
			return nil, err
		}
	}
	return cur, nil
}

// finish applies the solution modifiers — aggregation, DISTINCT, sort,
// OFFSET/LIMIT — and materializes the Result. It is shared by the serial and
// morsel-parallel paths; because the sort keys extend ORDER BY with every
// projected variable (see finishSortKeys), the result depends only on the
// row multiset, which both paths produce identically.
func (e *executor) finish(rows []idRow) (*Result, error) {
	p, q := e.plan, e.plan.q

	if q.isAggregate() {
		return e.finishAggregate(rows)
	}

	if q.Distinct {
		rows = e.dedupe(rows)
	}
	e.sortRows(rows, finishSortKeys(q, p.project))
	rows = clipIDRows(q, rows)

	res := &Result{Vars: p.project, Rows: make([]Binding, 0, len(rows))}
	for _, r := range rows {
		row := make(Binding, len(p.project))
		for i, v := range p.project {
			if s := p.projSlots[i]; s >= 0 && r[s] != rdf.NoID {
				row[v] = e.term(r[s])
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// clipIDRows applies OFFSET/LIMIT to ID rows.
func clipIDRows(q *Query, rows []idRow) []idRow {
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
	return rows
}

// term rehydrates an ID from the source's dictionary.
func (e *executor) term(id rdf.ID) rdf.Term { return e.g.TermOf(id) }

// ---- aggregation ----

// aggState accumulates one aggregate within one group.
type aggState struct {
	count int64
	seen  map[rdf.ID]struct{} // distinct values (COUNT/SUM/AVG DISTINCT)
	vals  []rdf.ID            // collected values (SUM/AVG)
	best  rdf.ID              // running MIN/MAX
	has   bool
}

// groupAcc is one GROUP BY group: a representative row for the group-key
// columns plus one accumulator per aggregate.
type groupAcc struct {
	rep  idRow
	aggs []aggState
}

// finishAggregate groups the solution rows by the GROUP BY registers and
// folds each aggregate, then renders one output row per group. Output rows
// are materialized into term space and finished by finishTermRows, the tail
// the term-space test oracle ends in too.
func (e *executor) finishAggregate(rows []idRow) (*Result, error) {
	p, q := e.plan, e.plan.q

	groups := make(map[string]*groupAcc)
	var order []*groupAcc
	keyBuf := make([]byte, 0, 4*len(p.groupSlots))
	for _, r := range rows {
		keyBuf = keyBuf[:0]
		for _, s := range p.groupSlots {
			id := slotVal(r, s)
			keyBuf = append(keyBuf, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
		}
		g, ok := groups[string(keyBuf)]
		if !ok {
			g = &groupAcc{rep: r, aggs: make([]aggState, len(p.aggSpecs))}
			groups[string(keyBuf)] = g
			order = append(order, g)
		}
		for i := range p.aggSpecs {
			e.accumulate(&p.aggSpecs[i], &g.aggs[i], r)
		}
	}
	// Ungrouped aggregation over zero solutions still yields one row
	// (COUNT=0, SUM=0); GROUP BY over zero solutions yields zero groups.
	if len(order) == 0 && len(q.GroupBy) == 0 {
		order = append(order, &groupAcc{aggs: make([]aggState, len(p.aggSpecs))})
	}

	out := make([]Binding, 0, len(order))
	for _, g := range order {
		row := make(Binding, len(p.project))
		for i, v := range p.project {
			col := p.aggCols[i]
			if col.agg >= 0 {
				if t, ok := e.aggValue(&p.aggSpecs[col.agg], &g.aggs[col.agg]); ok {
					row[v] = t
				}
				continue
			}
			if col.slot >= 0 && g.rep != nil && g.rep[col.slot] != rdf.NoID {
				row[v] = e.term(g.rep[col.slot])
			}
		}
		out = append(out, row)
	}
	return finishTermRows(q, p.project, out), nil
}

// slotVal reads a register, treating absent slots as unbound.
func slotVal(r idRow, slot int) rdf.ID {
	if slot < 0 {
		return rdf.NoID
	}
	return r[slot]
}

// accumulate folds one row into one aggregate's state.
func (e *executor) accumulate(spec *aggSpec, st *aggState, r idRow) {
	if spec.fn == AggCount && spec.star {
		st.count++
		return
	}
	id := slotVal(r, spec.slot)
	if id == rdf.NoID {
		return // unbound values are skipped by every aggregate
	}
	if spec.distinct {
		if st.seen == nil {
			st.seen = make(map[rdf.ID]struct{})
		}
		if _, dup := st.seen[id]; dup {
			return
		}
		st.seen[id] = struct{}{}
	}
	switch spec.fn {
	case AggCount:
		st.count++
	case AggSum, AggAvg:
		st.vals = append(st.vals, id)
	case AggMin:
		if !st.has || e.compareIDs(id, st.best) < 0 {
			st.best = id
		}
		st.has = true
	case AggMax:
		if !st.has || e.compareIDs(id, st.best) > 0 {
			st.best = id
		}
		st.has = true
	}
}

// aggValue renders one aggregate's final value; ok=false leaves the output
// column unbound (MIN/MAX of an empty group, SUM/AVG over non-numerics).
func (e *executor) aggValue(spec *aggSpec, st *aggState) (rdf.Term, bool) {
	switch spec.fn {
	case AggCount:
		n := st.count
		if spec.distinct {
			n = int64(len(st.seen))
		}
		return rdf.Integer(n), true
	case AggSum, AggAvg:
		vals := make([]rdf.Term, len(st.vals))
		for i, id := range st.vals {
			vals[i] = e.term(id)
		}
		return foldNumeric(spec.fn, vals)
	case AggMin, AggMax:
		if !st.has {
			return rdf.Term{}, false
		}
		return e.term(st.best), true
	}
	return rdf.Term{}, false
}

// ---- group execution: physical operators ----

// resolveRef resolves a compiled position against a row: the constant's ID,
// the register value for a bound variable, or the NoID wildcard for an
// unbound one. dead reports a constant that is not interned in the graph
// (the pattern can never match).
func resolveRef(p posRef, r idRow) (id rdf.ID, dead bool) {
	if p.isVar() {
		return r[p.slot], false
	}
	if p.id == rdf.NoID {
		return 0, true
	}
	return p.id, false
}

// trySet writes id into the row's register for a variable position,
// reporting false on a conflict with an already-set value (the same
// variable matched two different terms within one pattern).
func trySet(r idRow, slot int, id rdf.ID) bool {
	if slot < 0 {
		return true
	}
	if cur := r[slot]; cur != rdf.NoID {
		return cur == id
	}
	r[slot] = id
	return true
}

// run joins the scan's pattern against every input row.
func (o *scanOp) run(e *executor, in []idRow) ([]idRow, error) {
	cp := o.cp
	var out []idRow
	for _, r := range in {
		s, dead := resolveRef(cp.s, r)
		if dead {
			continue
		}
		oo, dead := resolveRef(cp.o, r)
		if dead {
			continue
		}
		var p rdf.ID
		if cp.p.isVar() {
			p = r[cp.p.slot] // NoID when unbound: wildcard
		} else {
			if cp.p.id == rdf.NoID {
				continue
			}
			p = cp.p.id
		}
		e.g.ForEachMatchIDs(s, p, oo, func(si, pi, oi rdf.ID) bool {
			nr := e.newRow(r)
			if trySet(nr, cp.s.slot, si) && trySet(nr, cp.p.slot, pi) && trySet(nr, cp.o.slot, oi) {
				out = append(out, nr)
			}
			return true
		})
	}
	return out, nil
}

// run evaluates the property-path pattern for every input row.
func (o *pathOp) run(e *executor, in []idRow) ([]idRow, error) {
	cp := o.cp
	var out []idRow
	for _, r := range in {
		s, dead := resolveRef(cp.s, r)
		if dead {
			continue
		}
		oo, dead := resolveRef(cp.o, r)
		if dead {
			continue
		}
		for _, start := range pathStarts(e.g, cp, s) {
			out = e.extendPathFrom(cp, r, start, oo, out)
		}
	}
	return out, nil
}

// pathStarts returns the deterministic start-node domain of a path pattern
// for subject value s (rdf.NoID = unbound). An unbound subject enumerates
// the subjects of the first step (objects if inverted) in first-seen scan
// order — the same enumeration as the legacy evaluator, which keeps
// unanchored closures tractable. The parallel executor morselizes over this
// same list.
func pathStarts(g Source, cp compiledPattern, s rdf.ID) []rdf.ID {
	if s != rdf.NoID {
		return []rdf.ID{s}
	}
	firstID := cp.p.stepIDs[0]
	if firstID == rdf.NoID {
		return nil
	}
	first := cp.p.steps[0]
	var starts []rdf.ID
	seen := map[rdf.ID]struct{}{}
	g.ForEachMatchIDs(rdf.NoID, firstID, rdf.NoID, func(si, _, oi rdf.ID) bool {
		n := si
		if first.Inverse {
			n = oi
		}
		if _, dup := seen[n]; !dup {
			seen[n] = struct{}{}
			starts = append(starts, n)
		}
		return true
	})
	return starts
}

// extendPathFrom walks the path closure from one start node and appends the
// resulting rows. Reached ends are emitted in ascending ID order so the row
// order is a pure function of (input row, start), independent of map
// iteration.
func (e *executor) extendPathFrom(cp compiledPattern, r idRow, start, o rdf.ID, out []idRow) []idRow {
	ends := map[rdf.ID]struct{}{start: {}}
	for i, step := range cp.p.steps {
		ends = e.walkStep(step, cp.p.stepIDs[i], ends)
		if len(ends) == 0 {
			break
		}
	}
	sorted := make([]rdf.ID, 0, len(ends))
	for end := range ends {
		if o != rdf.NoID && o != end {
			continue
		}
		sorted = append(sorted, end)
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for _, end := range sorted {
		nr := e.newRow(r)
		if trySet(nr, cp.s.slot, start) && trySet(nr, cp.o.slot, end) {
			out = append(out, nr)
		}
	}
	return out
}

// walkStep advances a frontier of node IDs across one path step. pid is the
// step predicate's dictionary ID (rdf.NoID when the predicate is absent
// from the graph: a hop matches nothing, zero-length passes survive).
func (e *executor) walkStep(step PathStep, pid rdf.ID, frontier map[rdf.ID]struct{}) map[rdf.ID]struct{} {
	oneHop := func(nodes map[rdf.ID]struct{}) map[rdf.ID]struct{} {
		next := map[rdf.ID]struct{}{}
		if pid == rdf.NoID {
			return next
		}
		for n := range nodes {
			if step.Inverse {
				e.g.ForEachMatchIDs(rdf.NoID, pid, n, func(si, _, _ rdf.ID) bool {
					next[si] = struct{}{}
					return true
				})
			} else {
				e.g.ForEachMatchIDs(n, pid, rdf.NoID, func(_, _, oi rdf.ID) bool {
					next[oi] = struct{}{}
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
		out := copyIDSet(frontier)
		for n := range oneHop(frontier) {
			out[n] = struct{}{}
		}
		return out
	case PathOneOrMore, PathZeroOrMore:
		out := map[rdf.ID]struct{}{}
		if step.Mod == PathZeroOrMore {
			out = copyIDSet(frontier)
		}
		cur := frontier
		for {
			next := oneHop(cur)
			fresh := map[rdf.ID]struct{}{}
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

func copyIDSet(s map[rdf.ID]struct{}) map[rdf.ID]struct{} {
	out := make(map[rdf.ID]struct{}, len(s))
	for k := range s {
		out[k] = struct{}{}
	}
	return out
}

// ---- FILTER / OPTIONAL / UNION ----

// rowEnv adapts a register row to the FILTER env, hydrating terms lazily.
type rowEnv struct {
	e *executor
	r idRow
}

func (re rowEnv) lookupVar(name string) (rdf.Term, bool) {
	slot, ok := re.e.plan.slots[name]
	if !ok {
		return rdf.Term{}, false
	}
	id := re.r[slot]
	if id == rdf.NoID {
		return rdf.Term{}, false
	}
	return re.e.term(id), true
}

// run keeps the rows satisfying the filter, compacting in place.
func (o *filterOp) run(e *executor, in []idRow) ([]idRow, error) {
	out := in[:0]
	for _, r := range in {
		ok, err := evalBool(o.expr, rowEnv{e: e, r: r})
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, r)
		}
	}
	return out, nil
}

// run left-joins the nested pipeline per input row: rows the sub-pipeline
// matches are replaced by the extended rows, unmatched rows pass through.
func (o *optionalOp) run(e *executor, in []idRow) ([]idRow, error) {
	var out []idRow
	for _, r := range in {
		matched, err := e.runOps(o.ops, []idRow{r})
		if err != nil {
			return nil, err
		}
		if len(matched) == 0 {
			out = append(out, r)
		} else {
			out = append(out, matched...)
		}
	}
	return out, nil
}

// run evaluates every alternative per input row (row-major). The finish
// path's multiset contract makes row-major and alternative-major outputs
// byte-identical, and row-major is what lets the parallel executor flatten
// a leading UNION into independent per-alternative tasks.
func (o *unionOp) run(e *executor, in []idRow) ([]idRow, error) {
	var out []idRow
	for _, r := range in {
		for _, alt := range o.alts {
			matched, err := e.runOps(alt, []idRow{r})
			if err != nil {
				return nil, err
			}
			out = append(out, matched...)
		}
	}
	return out, nil
}

// ---- DISTINCT / ORDER BY in ID space ----

// projKey appends the DISTINCT key of r to buf[:0]: the fixed-width
// little-endian byte image of the projected IDs — collision free by
// construction, unlike the legacy separator-joined string key.
func (e *executor) projKey(buf []byte, r idRow) []byte {
	buf = buf[:0]
	for _, s := range e.plan.projSlots {
		id := rdf.NoID
		if s >= 0 {
			id = r[s]
		}
		buf = append(buf, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
	}
	return buf
}

// dedupe removes rows whose projected registers are identical, keeping the
// first occurrence in row order.
func (e *executor) dedupe(rows []idRow) []idRow {
	seen := make(map[string]struct{}, len(rows))
	buf := make([]byte, 0, 4*len(e.plan.projSlots))
	out := rows[:0]
	for _, r := range rows {
		buf = e.projKey(buf, r)
		k := string(buf)
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		out = append(out, r)
	}
	return out
}

// compareIDs orders two distinct term IDs with compareTerms semantics,
// memoizing the rendered string forms. Like compareTerms it is a total
// order: numerically equal but lexically different terms fall through to
// the string comparison instead of tying.
func (e *executor) compareIDs(a, b rdf.ID) int {
	ta, tb := e.term(a), e.term(b)
	if av, aok := numericValue(ta); aok {
		if bv, bok := numericValue(tb); bok {
			switch {
			case av < bv:
				return -1
			case av > bv:
				return 1
			}
			// equal numerics: fall through to the lexical tie-break
		}
	}
	as, bs := e.termStr(a, ta), e.termStr(b, tb)
	switch {
	case as < bs:
		return -1
	case as > bs:
		return 1
	default:
		return 0
	}
}

func (e *executor) termStr(id rdf.ID, t rdf.Term) string {
	if s, ok := e.strs[id]; ok {
		return s
	}
	if e.strs == nil {
		e.strs = make(map[rdf.ID]string)
	}
	s := t.String()
	e.strs[id] = s
	return s
}

// sortRows orders rows by the keys, comparing IDs first (equal IDs are the
// same term) and rehydrating terms only when IDs differ.
func (e *executor) sortRows(rows []idRow, keys []OrderKey) {
	slots := make([]int, len(keys))
	for i, k := range keys {
		if s, ok := e.plan.slots[k.Var]; ok {
			slots[i] = s
		} else {
			slots[i] = -1
		}
	}
	if e.sortHook != nil {
		e.sortHook(rows, keys, slots)
		return
	}
	sort.SliceStable(rows, func(i, j int) bool {
		return e.rowLess(rows[i], rows[j], keys, slots)
	})
}

// rowLess is the sort comparator behind sortRows: a sorts strictly before b
// under the keys. Ties (all keys compare equal) report false, so stable
// sorts preserve input order.
func (e *executor) rowLess(ra, rb idRow, keys []OrderKey, slots []int) bool {
	for ki, k := range keys {
		s := slots[ki]
		a, b := rdf.NoID, rdf.NoID
		if s >= 0 {
			a, b = ra[s], rb[s]
		}
		aok, bok := a != rdf.NoID, b != rdf.NoID
		if !aok && !bok {
			continue
		}
		if !aok {
			return !k.Desc // unbound sorts first ascending
		}
		if !bok {
			return k.Desc
		}
		if a == b {
			continue
		}
		c := e.compareIDs(a, b)
		if c == 0 {
			continue
		}
		if k.Desc {
			return c > 0
		}
		return c < 0
	}
	return false
}
