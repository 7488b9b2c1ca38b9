package rdf

import (
	"bufio"
	"io"
	"sort"
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
// An IRI iriRef would escape is never compacted: no byte it escapes is in a
// name Shrink takes.
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

// TermRenderer names the graph whose dictionary a flush's insertion-log refs
// index: the store's delta-segment path serializes the refs straight to ID
// columns through it, rendering no term text.
type TermRenderer struct{ g *Graph }

// NewTermRenderer returns the renderer of g's refs.
func NewTermRenderer(g *Graph) *TermRenderer { return &TermRenderer{g: g} }

// Graph returns the graph whose dictionary the refs index.
func (r *TermRenderer) Graph() *Graph { return r.g }

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
