package provjson

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"github.com/hpc-io/prov-io/internal/core"
	"github.com/hpc-io/prov-io/internal/model"
	"github.com/hpc-io/prov-io/internal/rdf"
)

// sampleGraph builds the Figure 4(b)-style snippet.
func sampleGraph() *rdf.Graph {
	tr := core.NewTracker(core.DefaultConfig(), nil, 0)
	user := tr.RegisterUser("Bob")
	prog := tr.RegisterProgram("vpicio_uni_h5.exe-a1", user)
	thr := tr.RegisterThread(0, prog)
	file := tr.TrackDataObject(model.File, "/f.h5", "/f.h5", rdf.Term{}, prog)
	ds := tr.TrackDataObject(model.Dataset, "/f.h5/Timestep_0/x", "/Timestep_0/x", file, prog)
	tr.TrackIO(model.Create, "H5Dcreate2", ds, thr, 0, time.Microsecond)
	tr.TrackIO(model.Read, "H5Dread", ds, thr, 0, time.Microsecond)
	return tr.Graph()
}

func TestExportSections(t *testing.T) {
	doc := export(sampleGraph())
	if len(doc.Entity) != 2 {
		t.Errorf("entities = %d, want 2 (file, dataset)", len(doc.Entity))
	}
	if len(doc.Agent) != 3 {
		t.Errorf("agents = %d, want 3", len(doc.Agent))
	}
	if len(doc.Activity) != 2 {
		t.Errorf("activities = %d, want 2", len(doc.Activity))
	}
	if len(doc.WasGeneratedBy) != 1 {
		t.Errorf("wasGeneratedBy = %d, want 1 (create)", len(doc.WasGeneratedBy))
	}
	if len(doc.Used) != 1 {
		t.Errorf("used = %d, want 1 (read)", len(doc.Used))
	}
	if len(doc.WasAttributedTo) != 2 {
		t.Errorf("wasAttributedTo = %d, want 2", len(doc.WasAttributedTo))
	}
	if len(doc.ActedOnBehalfOf) != 2 {
		t.Errorf("actedOnBehalfOf = %d, want 2 (thread->prog, prog->user)", len(doc.ActedOnBehalfOf))
	}
	if len(doc.WasAssociatedWith) != 2 {
		t.Errorf("wasAssociatedWith = %d, want 2", len(doc.WasAssociatedWith))
	}
	if len(doc.WasDerivedFrom) != 1 {
		t.Errorf("wasDerivedFrom = %d, want 1 (dataset in file)", len(doc.WasDerivedFrom))
	}
}

func TestExportNodeAttributes(t *testing.T) {
	doc := export(sampleGraph())
	var fileAttrs attrs
	for id, a := range doc.Entity {
		if a["provio:name"] == "/f.h5" {
			fileAttrs = a
			if !strings.HasPrefix(id, "provio:") {
				t.Errorf("entity id %q not qualified", id)
			}
		}
	}
	if fileAttrs == nil {
		t.Fatal("file entity missing")
	}
	if fileAttrs["prov:type"] != "provio:File" {
		t.Errorf("prov:type = %v", fileAttrs["prov:type"])
	}
}

func TestExportValidJSONAndDeterministic(t *testing.T) {
	g := sampleGraph()
	var a, b strings.Builder
	if err := ExportTo(&a, g); err != nil {
		t.Fatal(err)
	}
	if err := ExportTo(&b, g); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("export not deterministic")
	}
	var parsed map[string]any
	if err := json.Unmarshal([]byte(a.String()), &parsed); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	for _, section := range []string{"prefix", "entity", "activity", "agent"} {
		if _, ok := parsed[section]; !ok {
			t.Errorf("section %q missing", section)
		}
	}
}

func TestExportEmptyGraph(t *testing.T) {
	doc := export(rdf.NewGraph())
	if len(doc.Entity)+len(doc.Activity)+len(doc.Agent) != 0 {
		t.Error("empty graph produced nodes")
	}
	var sb strings.Builder
	if err := ExportTo(&sb, rdf.NewGraph()); err != nil {
		t.Fatal(err)
	}
}

func TestEdgeDirections(t *testing.T) {
	doc := export(sampleGraph())
	for _, e := range doc.WasGeneratedBy {
		if !strings.Contains(e.Activity, "H5Dcreate2") {
			t.Errorf("generation activity = %q", e.Activity)
		}
		if !strings.Contains(e.Entity, "dataset/") {
			t.Errorf("generated entity = %q", e.Entity)
		}
	}
	for _, e := range doc.Used {
		if !strings.Contains(e.Activity, "H5Dread") {
			t.Errorf("usage activity = %q", e.Activity)
		}
	}
	for _, e := range doc.ActedOnBehalfOf {
		if e.Delegate == e.Responsible {
			t.Error("self-delegation exported")
		}
	}
}
