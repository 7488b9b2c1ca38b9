package model

import (
	"strings"
	"testing"
	"time"

	"github.com/hpc-io/prov-io/internal/rdf"
)

func TestAllClassesCoversTable2(t *testing.T) {
	cs := AllClasses()
	if len(cs) != 19 {
		t.Fatalf("AllClasses = %d entries, want 19 (7 entities + 6 activities + 3 agents + 3 extensible)", len(cs))
	}
	counts := map[Super]int{}
	for _, c := range cs {
		counts[c.Super]++
		if c.Description == "" {
			t.Errorf("class %s has no description", c.Name)
		}
		if c.IRI().Value == "" {
			t.Errorf("class %s has no IRI", c.Name)
		}
	}
	want := map[Super]int{SuperEntity: 7, SuperActivity: 6, SuperAgent: 3, SuperExtensible: 3}
	for s, n := range want {
		if counts[s] != n {
			t.Errorf("%v count = %d, want %d", s, counts[s], n)
		}
	}
}

func TestEntityStereotypes(t *testing.T) {
	for _, c := range []Class{Directory, File, Group, Dataset, Attribute, Datatype, Link} {
		if c.Stereotype != "Data Object" {
			t.Errorf("%s stereotype = %q", c.Name, c.Stereotype)
		}
	}
	for _, c := range []Class{Create, Open, Read, Write, Fsync, Rename} {
		if c.Stereotype != "I/O API" {
			t.Errorf("%s stereotype = %q", c.Name, c.Stereotype)
		}
	}
}

func TestClassByName(t *testing.T) {
	c, ok := ClassByName("Dataset")
	if !ok || c != Dataset {
		t.Errorf("ClassByName(Dataset) = %v, %v", c, ok)
	}
	if _, ok := ClassByName("Nope"); ok {
		t.Error("ClassByName accepted unknown name")
	}
}

func TestSuperString(t *testing.T) {
	cases := map[Super]string{
		SuperEntity: "Entity", SuperActivity: "Activity", SuperAgent: "Agent",
		SuperExtensible: "Extensible Class", superRelation: "Relation", Super(99): "Unknown",
	}
	for s, want := range cases {
		if got := s.String(); got != want {
			t.Errorf("Super(%d).String() = %q, want %q", s, got, want)
		}
	}
}

func TestIORelationForMapsAllActivities(t *testing.T) {
	want := map[string]string{
		"Create": "wasCreatedBy", "Open": "wasOpenedBy", "Read": "wasReadBy",
		"Write": "wasWrittenBy", "Fsync": "wasFlushedBy", "Rename": "wasModifiedBy",
	}
	for _, api := range []Class{Create, Open, Read, Write, Fsync, Rename} {
		rel, ok := IORelationFor(api)
		if !ok {
			t.Errorf("no relation for %s", api.Name)
			continue
		}
		if rel.Name != want[api.Name] {
			t.Errorf("%s -> %s, want %s", api.Name, rel.Name, want[api.Name])
		}
		if rel.Prefix != "provio" {
			t.Errorf("%s relation prefix = %q, want provio", api.Name, rel.Prefix)
		}
	}
	if _, ok := IORelationFor(File); ok {
		t.Error("IORelationFor accepted a non-activity class")
	}
}

func TestRelationCURIE(t *testing.T) {
	if got := WasReadBy.CURIE(); got != "provio:wasReadBy" {
		t.Errorf("CURIE = %q", got)
	}
	if got := WasDerivedFrom.CURIE(); got != "prov:wasDerivedFrom" {
		t.Errorf("CURIE = %q", got)
	}
}

func TestNamespacesBindings(t *testing.T) {
	ns := Namespaces()
	for _, p := range []string{"prov", "provio", "rdf", "xsd"} {
		if _, ok := ns.Base(p); !ok {
			t.Errorf("prefix %s unbound", p)
		}
	}
	iri, ok := ns.Expand("provio:wasReadBy")
	if !ok || iri != ProvIONS+"wasReadBy" {
		t.Errorf("Expand = %q, %v", iri, ok)
	}
}

func TestNodeIRIDeterministic(t *testing.T) {
	a := NodeIRI(File, "/data/westsac.h5")
	b := NodeIRI(File, "/data/westsac.h5")
	if a != b {
		t.Errorf("NodeIRI not deterministic: %q vs %q", a, b)
	}
	if NodeIRI(File, "/a") == NodeIRI(Dataset, "/a") {
		t.Error("different classes minted same IRI")
	}
	if NodeIRI(File, "/a") == NodeIRI(File, "/b") {
		t.Error("different identities minted same IRI")
	}
}

func TestNodeIRIEscaping(t *testing.T) {
	weird := NodeIRI(File, "/dir with space/ünïcode?.h5")
	if strings.ContainsAny(weird, " ?") {
		t.Errorf("IRI contains unsafe characters: %q", weird)
	}
	// Distinct unsafe identities must stay distinct after escaping.
	if NodeIRI(File, "/a b") == NodeIRI(File, "/a?b") {
		t.Error("escaping collided distinct identities")
	}
}

func TestActivityIRI(t *testing.T) {
	iri := ActivityIRI("H5Dcreate2", 0, 1)
	if !strings.HasSuffix(iri, "api/H5Dcreate2-p0-b1") {
		t.Errorf("ActivityIRI = %q", iri)
	}
	if ActivityIRI("x", 1, 2) == ActivityIRI("x", 1, 3) {
		t.Error("sequence numbers not distinguishing invocations")
	}
	if ActivityIRI("x", 1, 2) == ActivityIRI("x", 2, 2) {
		t.Error("pids not distinguishing invocations")
	}
}

func graphOf(ts []rdf.Triple) *rdf.Graph {
	g := rdf.NewGraph()
	g.AddBatch(ts)
	return g
}

func TestDataObjectRecordTriples(t *testing.T) {
	prog := NodeIRI(Program, "decimate-a1")
	rec := DataObjectRecord{
		Class:        Dataset,
		ID:           "/westsac.h5/Timestep_0/x",
		Name:         "/Timestep_0/x",
		Container:    NodeIRI(File, "/westsac.h5"),
		AttributedTo: prog,
	}
	g := graphOf(rec.Triples())
	node := rec.IRI()
	if !g.Has(rdf.Triple{S: node, P: rdf.IRI(rdf.RDFType), O: Dataset.IRI()}) {
		t.Error("missing rdf:type triple")
	}
	if !g.Has(rdf.Triple{S: node, P: WasMemberOf.IRI(), O: rdf.IRI(ProvNS + "Entity")}) {
		t.Error("missing membership triple")
	}
	if !g.Has(rdf.Triple{S: node, P: PropName.IRI(), O: rdf.Literal("/Timestep_0/x")}) {
		t.Error("missing name triple")
	}
	if !g.Has(rdf.Triple{S: node, P: WasDerivedFrom.IRI(), O: rdf.IRI(NodeIRI(File, "/westsac.h5"))}) {
		t.Error("missing container triple")
	}
	if !g.Has(rdf.Triple{S: node, P: WasAttributedTo.IRI(), O: rdf.IRI(prog)}) {
		t.Error("missing attribution triple")
	}
}

func TestDataObjectRecordDefaultsNameToID(t *testing.T) {
	rec := DataObjectRecord{Class: File, ID: "/x.h5"}
	g := graphOf(rec.Triples())
	if !g.Has(rdf.Triple{S: rec.IRI(), P: PropName.IRI(), O: rdf.Literal("/x.h5")}) {
		t.Error("name did not default to ID")
	}
	if g.Len() != 3 {
		t.Errorf("minimal record emitted %d triples, want 3", g.Len())
	}
}

func TestIOActivityRecordTriples(t *testing.T) {
	obj := DataObjectRecord{Class: Dataset, ID: "/f.h5/d"}
	agent := AgentRecord{Class: Thread, ID: "MPI_rank_0", Rank: 0}
	rec := IOActivityRecord{
		Class: Create, API: "H5Dcreate2", PID: 3, Seq: 7,
		Object: obj.IRI(), Agent: agent.IRI(),
		Elapsed: 1500 * time.Nanosecond, Started: time.Microsecond,
		TrackDuration: true,
	}
	g := graphOf(rec.Triples())
	node := rec.IRI()
	if !g.Has(rdf.Triple{S: node, P: rdf.IRI(rdf.RDFType), O: Create.IRI()}) {
		t.Error("missing type triple")
	}
	if !g.Has(rdf.Triple{S: obj.IRI(), P: WasCreatedBy.IRI(), O: node}) {
		t.Error("missing provio:wasCreatedBy triple (object -> activity)")
	}
	if !g.Has(rdf.Triple{S: node, P: AssociatedWith.IRI(), O: agent.IRI()}) {
		t.Error("missing association triple")
	}
	if !g.Has(rdf.Triple{S: node, P: PropElapsed.IRI(), O: rdf.Integer(1500)}) {
		t.Error("missing elapsed triple")
	}
	if !g.Has(rdf.Triple{S: node, P: PropTimestamp.IRI(), O: rdf.Integer(1000)}) {
		t.Error("missing startedAt triple")
	}
}

func TestIOActivityRecordWithoutDuration(t *testing.T) {
	rec := IOActivityRecord{Class: Read, API: "read", PID: 0, Seq: 1, Elapsed: time.Second}
	g := graphOf(rec.Triples())
	if got := g.Find(nil, PropElapsed.IRI().Ptr(), nil); len(got) != 0 {
		t.Errorf("duration emitted despite TrackDuration=false: %v", got)
	}
}

func TestAgentRecordTriples(t *testing.T) {
	user := AgentRecord{Class: User, ID: "bob", Name: "Bob"}
	prog := AgentRecord{Class: Program, ID: "vpicio_uni_h5.exe-a1", OnBehalfOf: user.IRI().Value}
	thr := AgentRecord{Class: Thread, ID: "MPI_rank_0", Rank: 0, OnBehalfOf: prog.IRI().Value}

	g := rdf.NewGraph()
	g.AddBatch(user.Triples())
	g.AddBatch(prog.Triples())
	g.AddBatch(thr.Triples())

	if !g.Has(rdf.Triple{S: thr.IRI(), P: ActedOnBehalfOf.IRI(), O: prog.IRI()}) {
		t.Error("thread delegation missing")
	}
	if !g.Has(rdf.Triple{S: prog.IRI(), P: ActedOnBehalfOf.IRI(), O: user.IRI()}) {
		t.Error("program delegation missing")
	}
	if !g.Has(rdf.Triple{S: thr.IRI(), P: PropRank.IRI(), O: rdf.Integer(0)}) {
		t.Error("thread rank missing")
	}
	if !g.Has(rdf.Triple{S: user.IRI(), P: PropName.IRI(), O: rdf.Literal("Bob")}) {
		t.Error("user name missing")
	}
}

func TestAgentRecordRankSuppressed(t *testing.T) {
	prog := AgentRecord{Class: Program, ID: "p", Rank: 5} // Rank only applies to Thread
	g := graphOf(prog.Triples())
	if got := g.Find(nil, PropRank.IRI().Ptr(), nil); len(got) != 0 {
		t.Error("rank emitted for non-thread agent")
	}
	thr := AgentRecord{Class: Thread, ID: "t", Rank: -1}
	g2 := graphOf(thr.Triples())
	if got := g2.Find(nil, PropRank.IRI().Ptr(), nil); len(got) != 0 {
		t.Error("rank emitted despite -1 sentinel")
	}
}

func TestExtensibleRecordConfiguration(t *testing.T) {
	owner := NodeIRI(Program, "topreco")
	rec := ExtensibleRecord{
		Class: Configuration, Owner: owner, Key: "learning_rate",
		Value: rdf.Double(0.01), Version: 3, Accuracy: 0.91, HasAccuracy: true,
	}
	g := graphOf(rec.Triples())
	node := rec.IRI()
	if !g.Has(rdf.Triple{S: node, P: PropVersion.IRI(), O: rdf.Integer(3)}) {
		t.Error("missing version triple")
	}
	if !g.Has(rdf.Triple{S: node, P: PropAccuracy.IRI(), O: rdf.Double(0.91)}) {
		t.Error("missing accuracy triple")
	}
	if !g.Has(rdf.Triple{S: rdf.IRI(owner), P: PropConfig.IRI(), O: node}) {
		t.Error("missing owner link")
	}
}

func TestExtensibleRecordVersionsDistinct(t *testing.T) {
	a := ExtensibleRecord{Class: Configuration, Owner: "o", Key: "k", Version: 1}
	b := ExtensibleRecord{Class: Configuration, Owner: "o", Key: "k", Version: 2}
	if a.IRI() == b.IRI() {
		t.Error("different versions minted same IRI")
	}
	c := ExtensibleRecord{Class: Configuration, Owner: "o2", Key: "k", Version: 1}
	if a.IRI() == c.IRI() {
		t.Error("different owners minted same IRI")
	}
}

func TestExtensibleRecordOwnerLinkByClass(t *testing.T) {
	for _, c := range []struct {
		class Class
		rel   Relation
	}{{Type, PropType}, {Configuration, PropConfig}, {Metrics, PropMetric}} {
		rec := ExtensibleRecord{Class: c.class, Owner: "http://x/owner", Key: "k", Version: -1}
		g := graphOf(rec.Triples())
		if !g.Has(rdf.Triple{S: rdf.IRI("http://x/owner"), P: c.rel.IRI(), O: rec.IRI()}) {
			t.Errorf("owner link for %s should use %s", c.class.Name, c.rel.Name)
		}
	}
}

func TestAllRelationsHaveDescriptions(t *testing.T) {
	rels := AllRelations()
	if len(rels) != 12 {
		t.Fatalf("AllRelations = %d, want 12", len(rels))
	}
	for _, r := range rels {
		if r.Description == "" {
			t.Errorf("relation %s lacks description", r.Name)
		}
	}
}

func TestTable2RecordsRoundTripThroughTurtle(t *testing.T) {
	// Build the Figure 4(b) snippet and round-trip it through Turtle.
	user := AgentRecord{Class: User, ID: "Bob"}
	prog := AgentRecord{Class: Program, ID: "vpicio_uni_h5.exe-a1", OnBehalfOf: user.IRI().Value}
	thr := AgentRecord{Class: Thread, ID: "MPI_rank_0", Rank: 0, OnBehalfOf: prog.IRI().Value}
	ds := DataObjectRecord{Class: Dataset, ID: "/Timestep_0/x"}
	act := IOActivityRecord{Class: Create, API: "H5Dcreate2", PID: 0, Seq: 1, Object: ds.IRI(), Agent: thr.IRI()}

	g := rdf.NewGraph()
	for _, ts := range [][]rdf.Triple{user.Triples(), prog.Triples(), thr.Triples(), ds.Triples(), act.Triples()} {
		g.AddBatch(ts)
	}
	var sb strings.Builder
	if err := rdf.WriteTurtle(&sb, g, Namespaces()); err != nil {
		t.Fatal(err)
	}
	g2, _, err := rdf.ParseTurtle(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, sb.String())
	}
	if g2.Len() != g.Len() {
		t.Errorf("round trip %d -> %d triples\n%s", g.Len(), g2.Len(), sb.String())
	}
}
