// Package viz renders provenance (sub)graphs as Graphviz DOT, the
// visualization backend of the PROV-IO User Engine (paper §5, Figure 9).
// Node shapes follow the W3C PROV layout conventions the paper's figures
// use: ellipses for entities, rectangles for activities, houses
// (pentagons) for agents, and notes for extensible records. A highlight set
// marks a queried lineage in blue, reproducing Figure 9's emphasis.
package viz

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"github.com/hpc-io/prov-io/internal/model"
	"github.com/hpc-io/prov-io/internal/rdf"
	"github.com/hpc-io/prov-io/internal/sparql"
)

// Options controls DOT rendering.
type Options struct {
	// Title is the graph label.
	Title string
	// Highlight marks these node IRIs (and edges among them) in blue.
	Highlight map[string]bool
	// MaxLabel truncates node labels longer than this (0 = 48).
	MaxLabel int
}

// WriteDOT renders g as a DOT document. All graph reads go through one
// pinned rdf.Snapshot: a single lock acquisition, and a consistent rendering
// even while the graph is being written to.
func WriteDOT(w io.Writer, g *rdf.Graph, opts Options) error {
	if opts.MaxLabel <= 0 {
		opts.MaxLabel = 48
	}
	v := g.Snapshot()
	ns := model.Namespaces()

	var b strings.Builder
	b.WriteString("digraph provenance {\n")
	b.WriteString("  rankdir=BT;\n")
	b.WriteString("  node [fontname=\"Helvetica\", fontsize=10];\n")
	b.WriteString("  edge [fontname=\"Helvetica\", fontsize=8];\n")
	if opts.Title != "" {
		fmt.Fprintf(&b, "  label=%q;\n  labelloc=t;\n", opts.Title)
	}

	// All scans below run in dictionary-ID space; node terms are hydrated
	// once through the cache and reused across the type/name/edge passes.
	terms := map[rdf.ID]rdf.Term{}
	termOf := func(id rdf.ID) rdf.Term {
		t, ok := terms[id]
		if !ok {
			t = v.TermOf(id)
			terms[id] = t
		}
		return t
	}
	predID := func(t rdf.Term) rdf.ID {
		if id, ok := v.TermID(t); ok {
			return id
		}
		return rdf.NoID
	}

	// Classify nodes by rdf:type.
	kind := map[string]string{} // IRI -> shape class
	label := map[string]string{}
	if typeID := predID(rdf.IRI(rdf.RDFType)); typeID != rdf.NoID {
		v.ForEachMatchIDs(rdf.NoID, typeID, rdf.NoID, func(s, _, o rdf.ID) bool {
			st, ot := termOf(s), termOf(o)
			if !st.IsIRI() || !ot.IsIRI() {
				return true
			}
			if cls := classOf(ot.Value); cls != "" {
				kind[st.Value] = cls
			}
			return true
		})
	}
	if nameID := predID(model.PropName.IRI()); nameID != rdf.NoID {
		v.ForEachMatchIDs(rdf.NoID, nameID, rdf.NoID, func(s, _, o rdf.ID) bool {
			st, ot := termOf(s), termOf(o)
			if st.IsIRI() && ot.IsLiteral() {
				label[st.Value] = ot.Value
			}
			return true
		})
	}

	// Collect nodes appearing in relation edges. Drawable predicates are
	// resolved to IDs once, so the full scan is a map probe per triple.
	relLabel := relationLabelIDs(v)
	nodes := map[string]bool{}
	type edge struct{ from, to, lbl string }
	var edges []edge
	v.ForEachMatchIDs(rdf.NoID, rdf.NoID, rdf.NoID, func(s, p, o rdf.ID) bool {
		lbl, ok := relLabel[p]
		if !ok {
			return true
		}
		st, ot := termOf(s), termOf(o)
		if !st.IsIRI() || !ot.IsIRI() {
			return true
		}
		nodes[st.Value] = true
		nodes[ot.Value] = true
		edges = append(edges, edge{from: st.Value, to: ot.Value, lbl: lbl})
		return true
	})

	// Deterministic ordering.
	nodeList := make([]string, 0, len(nodes))
	for n := range nodes {
		nodeList = append(nodeList, n)
	}
	sort.Strings(nodeList)
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].from != edges[j].from {
			return edges[i].from < edges[j].from
		}
		if edges[i].to != edges[j].to {
			return edges[i].to < edges[j].to
		}
		return edges[i].lbl < edges[j].lbl
	})

	for _, n := range nodeList {
		shape, style := shapeFor(kind[n])
		lbl := label[n]
		if lbl == "" {
			lbl = shortIRI(n, ns)
		}
		if len(lbl) > opts.MaxLabel {
			lbl = lbl[:opts.MaxLabel-1] + "…"
		}
		color := "black"
		fill := ""
		if opts.Highlight[n] {
			color = "blue"
			fill = ", fontcolor=blue"
		}
		fmt.Fprintf(&b, "  %q [label=%q, shape=%s%s, color=%s%s];\n",
			n, lbl, shape, style, color, fill)
	}
	for _, e := range edges {
		color := "black"
		if opts.Highlight[e.from] && opts.Highlight[e.to] {
			color = "blue"
		}
		fmt.Fprintf(&b, "  %q -> %q [label=%q, color=%s];\n", e.from, e.to, e.lbl, color)
	}
	b.WriteString("}\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// classOf maps a class IRI to a shape class.
func classOf(iri string) string {
	if !strings.HasPrefix(iri, model.ProvIONS) {
		return ""
	}
	name := strings.TrimPrefix(iri, model.ProvIONS)
	cls, ok := model.ClassByName(name)
	if !ok {
		return ""
	}
	switch cls.Super {
	case model.SuperEntity:
		return "entity"
	case model.SuperActivity:
		return "activity"
	case model.SuperAgent:
		return "agent"
	case model.SuperExtensible:
		return "extensible"
	}
	return ""
}

func shapeFor(class string) (shape, style string) {
	switch class {
	case "entity":
		return "ellipse", ", style=filled, fillcolor=\"#fffbd6\""
	case "activity":
		return "box", ", style=filled, fillcolor=\"#e8d6ff\""
	case "agent":
		return "house", ", style=filled, fillcolor=\"#ffe0c2\""
	case "extensible":
		return "note", ", style=filled, fillcolor=\"#d9f2d9\""
	default:
		return "ellipse", ""
	}
}

// relationLabelIDs maps the dictionary ID of every drawable predicate
// present in the snapshot to its CURIE edge label.
func relationLabelIDs(v *rdf.Snapshot) map[rdf.ID]string {
	out := map[rdf.ID]string{}
	add := func(t rdf.Term, curie string) {
		if id, ok := v.TermID(t); ok {
			out[id] = curie
		}
	}
	for _, r := range model.AllRelations() {
		add(r.IRI(), r.CURIE())
	}
	// Extensible-record links are drawn too.
	for _, r := range []model.Relation{model.PropType, model.PropConfig, model.PropMetric} {
		add(r.IRI(), r.CURIE())
	}
	return out
}

func shortIRI(iri string, ns *rdf.Namespaces) string {
	if c, ok := ns.Shrink(iri); ok {
		return c
	}
	if i := strings.LastIndexAny(iri, "/#"); i >= 0 && i < len(iri)-1 {
		return iri[i+1:]
	}
	return iri
}

// LineageHighlight computes the highlight set for a backward lineage — the
// blue path of Figure 9: the product node, its prov:wasDerivedFrom
// out-closure (sparql.Reach), and the prov:wasAttributedTo objects of that
// closure. The set depends only on the graph's triples, never on the order
// its terms were interned in.
func LineageHighlight(g *rdf.Graph, product rdf.Term) map[string]bool {
	v := g.Snapshot()
	out := map[string]bool{product.Value: true}
	root, ok := v.TermID(product)
	if !ok {
		return out
	}
	var preds []rdf.ID
	if derived, ok := v.TermID(model.WasDerivedFrom.IRI()); ok {
		preds = []rdf.ID{derived}
	}
	closure := sparql.Reach(v, []rdf.ID{root}, preds, sparql.Out, 0)
	attr, aok := v.TermID(model.WasAttributedTo.IRI())
	for _, n := range closure {
		out[v.TermOf(n.ID).Value] = true
		if aok {
			v.ForEachMatchIDs(n.ID, attr, rdf.NoID, func(_, _, o rdf.ID) bool {
				out[v.TermOf(o).Value] = true
				return true
			})
		}
	}
	return out
}
