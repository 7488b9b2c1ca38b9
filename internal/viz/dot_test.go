package viz

import (
	"strings"
	"testing"

	"github.com/hpc-io/prov-io/internal/core"
	"github.com/hpc-io/prov-io/internal/model"
	"github.com/hpc-io/prov-io/internal/rdf"
)

// dassaGraph builds the Figure 9 style lineage chain.
func dassaGraph() (*rdf.Graph, rdf.Term, rdf.Term) {
	tr := core.NewTracker(core.DefaultConfig(), nil, 0)
	user := tr.RegisterUser("Bob")
	conv := tr.RegisterProgram("tdms2h5", user)
	dec := tr.RegisterProgram("decimate", user)
	raw := tr.TrackDataObject(model.File, "/WestSac.tdms", "WestSac.tdms", rdf.Term{}, rdf.Term{})
	mid := tr.TrackDataObject(model.File, "/WestSac.h5", "WestSac.h5", rdf.Term{}, conv)
	out := tr.TrackDataObject(model.File, "/decimate.h5", "decimate.h5", rdf.Term{}, dec)
	tr.TrackDerivation(mid, raw)
	tr.TrackDerivation(out, mid)
	tr.TrackIO(model.Read, "read", raw, conv, 0, 0)
	tr.TrackIO(model.Write, "H5Dwrite", mid, conv, 0, 0)
	return tr.Graph(), out, raw
}

func TestWriteDOTStructure(t *testing.T) {
	g, _, _ := dassaGraph()
	var sb strings.Builder
	if err := WriteDOT(&sb, g, Options{Title: "DASSA lineage"}); err != nil {
		t.Fatal(err)
	}
	dot := sb.String()
	if !strings.HasPrefix(dot, "digraph provenance {") || !strings.HasSuffix(dot, "}\n") {
		t.Errorf("not a DOT document:\n%s", dot)
	}
	if !strings.Contains(dot, `label="DASSA lineage"`) {
		t.Error("title missing")
	}
	// Entities are ellipses, activities boxes, agents houses.
	if !strings.Contains(dot, "shape=ellipse") {
		t.Error("no entity shapes")
	}
	if !strings.Contains(dot, "shape=box") {
		t.Error("no activity shapes")
	}
	if !strings.Contains(dot, "shape=house") {
		t.Error("no agent shapes")
	}
	// Relation labels rendered as CURIEs.
	if !strings.Contains(dot, "prov:wasDerivedFrom") {
		t.Error("derivation edge missing")
	}
	if !strings.Contains(dot, "provio:wasReadBy") {
		t.Error("wasReadBy edge missing")
	}
	if !strings.Contains(dot, "prov:actedOnBehalfOf") {
		t.Error("delegation edge missing")
	}
}

func TestWriteDOTDeterministic(t *testing.T) {
	g, _, _ := dassaGraph()
	var a, b strings.Builder
	WriteDOT(&a, g, Options{})
	WriteDOT(&b, g, Options{})
	if a.String() != b.String() {
		t.Error("DOT output not deterministic")
	}
}

func TestLineageHighlight(t *testing.T) {
	g, product, raw := dassaGraph()
	hl := LineageHighlight(g, product)
	if !hl[product.Value] {
		t.Error("product not highlighted")
	}
	if !hl[raw.Value] {
		t.Error("transitive ancestor not highlighted")
	}
	prog := model.NodeIRI(model.Program, "decimate")
	if !hl[prog] {
		t.Error("attributed program not highlighted")
	}
	// Unrelated agent (user) not highlighted via lineage.
	user := model.NodeIRI(model.User, "Bob")
	if hl[user] {
		t.Error("user should not be in the lineage highlight")
	}
}

// TestLineageHighlightOrderIndependent: B is both the attributed agent of A
// and an ancestor of C, siblings at one depth under the product X. B's own
// ancestor D is in the wasDerivedFrom closure whichever of A and C the
// dictionary numbered first.
func TestLineageHighlightOrderIndependent(t *testing.T) {
	node := func(n string) rdf.Term { return rdf.IRI("urn:node:" + n) }
	derived, attributed := model.WasDerivedFrom.IRI(), model.WasAttributedTo.IRI()
	for _, first := range []string{"A", "C"} {
		g := rdf.NewGraph()
		g.Intern(node(first)) // A and C in either ID order
		g.Add(rdf.Triple{S: node("X"), P: derived, O: node("A")})
		g.Add(rdf.Triple{S: node("X"), P: derived, O: node("C")})
		g.Add(rdf.Triple{S: node("A"), P: attributed, O: node("B")})
		g.Add(rdf.Triple{S: node("C"), P: derived, O: node("B")})
		g.Add(rdf.Triple{S: node("B"), P: derived, O: node("D")})
		hl := LineageHighlight(g, node("X"))
		for _, n := range []string{"X", "A", "B", "C", "D"} {
			if !hl[node(n).Value] {
				t.Errorf("%s interned first: %s not highlighted (%v)", first, n, hl)
			}
		}
		if len(hl) != 5 {
			t.Errorf("%s interned first: highlight %v, want exactly X, A, B, C, D", first, hl)
		}
	}
}

func TestWriteDOTHighlightsInBlue(t *testing.T) {
	g, product, _ := dassaGraph()
	hl := LineageHighlight(g, product)
	var sb strings.Builder
	if err := WriteDOT(&sb, g, Options{Highlight: hl}); err != nil {
		t.Fatal(err)
	}
	dot := sb.String()
	if !strings.Contains(dot, "color=blue") {
		t.Error("no blue highlighting emitted")
	}
	// The raw->mid derivation edge is within the highlight set.
	if !strings.Contains(dot, `[label="prov:wasDerivedFrom", color=blue]`) {
		t.Errorf("lineage edge not blue:\n%s", dot)
	}
}

func TestWriteDOTTruncatesLabels(t *testing.T) {
	g := rdf.NewGraph()
	long := strings.Repeat("x", 200)
	a := rdf.IRI(model.NodeIRI(model.File, "/"+long))
	b := rdf.IRI(model.NodeIRI(model.File, "/b"))
	g.Add(rdf.Triple{S: a, P: model.PropName.IRI(), O: rdf.Literal(long)})
	g.Add(rdf.Triple{S: a, P: model.WasDerivedFrom.IRI(), O: b})
	var sb strings.Builder
	if err := WriteDOT(&sb, g, Options{MaxLabel: 20}); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), `label="`+long) {
		t.Error("long label not truncated")
	}
	if !strings.Contains(sb.String(), "…") {
		t.Error("truncation marker missing")
	}
}

func TestWriteDOTIgnoresNonRelationEdges(t *testing.T) {
	g := rdf.NewGraph()
	a := rdf.IRI("http://x/a")
	g.Add(rdf.Triple{S: a, P: rdf.IRI("http://x/custom"), O: rdf.IRI("http://x/b")})
	var sb strings.Builder
	if err := WriteDOT(&sb, g, Options{}); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "custom") {
		t.Error("non-model predicate drawn")
	}
}
