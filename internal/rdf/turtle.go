package rdf

import (
	"bufio"
	"io"
	"sort"
	"sync"
)

// WriteTurtle serializes the graph in Turtle format, grouping triples by
// subject with ';' predicate lists and ',' object lists — the layout the
// PROV-IO paper shows in its provenance snippets. Output is deterministic
// (sorted by subject, predicate, object). A term the syntax cannot carry
// exactly (see textError) fails the write before anything is written.
func WriteTurtle(w io.Writer, g *Graph, ns *Namespaces) error {
	ts := g.SortedTriples()
	for _, t := range ts {
		if err := t.textError(); err != nil {
			return err
		}
	}
	bw := bufio.NewWriter(w)
	if ns != nil {
		for _, p := range ns.Prefixes() {
			base, _ := ns.Base(p)
			if _, err := bw.WriteString("@prefix " + p + ": <" + base + "> .\n"); err != nil {
				return err
			}
		}
		if len(ns.Prefixes()) > 0 {
			if err := bw.WriteByte('\n'); err != nil {
				return err
			}
		}
	}

	// Group by subject, then by predicate.
	for i := 0; i < len(ts); {
		s := ts[i].S
		j := i
		for j < len(ts) && ts[j].S == s {
			j++
		}
		if err := writeSubjectBlock(bw, ts[i:j], ns); err != nil {
			return err
		}
		i = j
	}
	return bw.Flush()
}

func writeSubjectBlock(bw *bufio.Writer, ts []Triple, ns *Namespaces) error {
	if _, err := bw.WriteString(renderTerm(ts[0].S, ns)); err != nil {
		return err
	}
	for i := 0; i < len(ts); {
		p := ts[i].P
		j := i
		for j < len(ts) && ts[j].P == p {
			j++
		}
		sep := " "
		if i > 0 {
			sep = " ;\n    "
		}
		if _, err := bw.WriteString(sep + renderPredicate(p, ns) + " "); err != nil {
			return err
		}
		for k := i; k < j; k++ {
			if k > i {
				if _, err := bw.WriteString(", "); err != nil {
					return err
				}
			}
			if _, err := bw.WriteString(renderTerm(ts[k].O, ns)); err != nil {
				return err
			}
		}
		i = j
	}
	_, err := bw.WriteString(" .\n")
	return err
}

// renderTerm renders a term in Turtle, compacting IRIs with the prefix table.
// An IRI iriRef would escape is never compacted: Shrink takes only local names
// of letters, digits, '_', '-' and '.'.
func renderTerm(t Term, ns *Namespaces) string {
	switch t.Kind {
	case IRITerm:
		if ns != nil {
			if c, ok := ns.Shrink(t.Value); ok {
				return c
			}
		}
		return iriRef(t.Value)
	case LiteralTerm:
		s := quoteLiteral(t.Value)
		if t.Lang != "" {
			return s + "@" + t.Lang
		}
		if t.Datatype != "" {
			if ns != nil {
				if c, ok := ns.Shrink(t.Datatype); ok {
					return s + "^^" + c
				}
			}
			return s + "^^" + iriRef(t.Datatype)
		}
		return s
	default:
		return t.String()
	}
}

// renderPredicate renders a predicate, using the Turtle 'a' shorthand for
// rdf:type.
func renderPredicate(p Term, ns *Namespaces) string {
	if p.Kind == IRITerm && p.Value == RDFType {
		return "a"
	}
	return renderTerm(p, ns)
}

// WriteNTriples serializes the graph one triple per line in deterministic
// order. A term the syntax cannot carry exactly (see textError) fails the
// write before anything is written.
func WriteNTriples(w io.Writer, g *Graph) error {
	ts := g.SortedTriples()
	for _, t := range ts {
		if err := t.textError(); err != nil {
			return err
		}
	}
	bw := bufio.NewWriter(w)
	for _, t := range ts {
		if _, err := bw.WriteString(t.String() + "\n"); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// TermRenderer memoizes the N-Triples rendering of one graph's terms by
// dictionary ID. Because IDs are stable for the lifetime of a graph, a
// renderer owned by a tracker renders each distinct term exactly once across
// all of that tracker's delta flushes — the write-side twin of the query
// executor's memoized ORDER BY term rendering. The cache grows to one string
// per rendered term and is never invalidated (terms are immutable once
// interned).
//
// A TermRenderer is safe for concurrent use; in the flush pipeline the async
// writer goroutine and inline delta flushes may touch it from different
// threads.
type TermRenderer struct {
	g     *Graph
	mu    sync.Mutex
	cache []string
}

// NewTermRenderer returns a renderer memoizing g's terms.
func NewTermRenderer(g *Graph) *TermRenderer {
	return &TermRenderer{g: g}
}

// Graph returns the graph whose terms the renderer memoizes. The store's
// delta-segment path uses it to reach the dictionary when a binary codec
// serializes straight from triple IDs instead of rendered text.
func (r *TermRenderer) Graph() *Graph { return r.g }

// render returns the N-Triples rendering of the term interned under id in
// the dictionary snapshot terms, computing and caching it on first use, or
// the term's textError. Every id must be interned.
func (r *TermRenderer) render(id ID, terms termTable) (string, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if int(id) >= len(r.cache) {
		grown := make([]string, terms.len())
		copy(grown, r.cache)
		r.cache = grown
	}
	s := r.cache[id]
	if s == "" {
		t := terms.at(id)
		if err := textError(t); err != nil {
			return "", err
		}
		s = t.String()
		r.cache[id] = s
	}
	return s, nil
}

// WriteNTriples serializes refs of the renderer's graph as N-Triples in
// deterministic (S, P, O) term order, sorting refs in place. This is the
// delta-segment serializer: it renders from 12-byte TripleIDs and the
// memoized per-ID term cache, so a flush materializes no []Triple and
// re-renders no term a previous flush already rendered. The byte output is
// identical to sorting the materialized triples and writing Triple.String,
// and a term the syntax cannot carry exactly (see textError) fails the write.
func (r *TermRenderer) WriteNTriples(w io.Writer, refs []TripleID) error {
	terms := r.g.dict.snapshot()
	// Interning is injective, so distinct IDs always hold distinct terms.
	sort.Slice(refs, func(i, j int) bool {
		a, b := refs[i], refs[j]
		if a.S != b.S {
			return termLess(terms.at(a.S), terms.at(b.S))
		}
		if a.P != b.P {
			return termLess(terms.at(a.P), terms.at(b.P))
		}
		return a.O != b.O && termLess(terms.at(a.O), terms.at(b.O))
	})
	bw := bufio.NewWriter(w)
	for _, t := range refs {
		for _, id := range [3]ID{t.S, t.P, t.O} {
			s, err := r.render(id, terms)
			if err != nil {
				return err
			}
			bw.WriteString(s)
			bw.WriteByte(' ')
		}
		if _, err := bw.WriteString(".\n"); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// SortTriples sorts ts in place by (S, P, O); exported for callers that
// serialize partial graphs.
func SortTriples(ts []Triple) {
	sort.Slice(ts, func(i, j int) bool {
		if ts[i].S != ts[j].S {
			return termLess(ts[i].S, ts[j].S)
		}
		if ts[i].P != ts[j].P {
			return termLess(ts[i].P, ts[j].P)
		}
		return termLess(ts[i].O, ts[j].O)
	})
}
