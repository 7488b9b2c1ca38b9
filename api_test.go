package provio_test

import (
	"os"
	"strings"
	"testing"

	provio "github.com/hpc-io/prov-io"
)

// TestEndToEndPublicAPI drives the whole framework through the public
// surface only: simulated FS, tracker, VOL stack, POSIX wrapper, store
// flush, merge, SPARQL query, and DOT visualization.
func TestEndToEndPublicAPI(t *testing.T) {
	fs := provio.NewMemStore()
	view := fs.NewView()
	if err := view.MkdirAll("/data"); err != nil {
		t.Fatal(err)
	}

	store, err := provio.NewStore(provio.VFSBackend{View: fs.NewView()}, "/prov", provio.FormatBinary)
	if err != nil {
		t.Fatal(err)
	}
	tracker := provio.NewTracker(provio.DefaultConfig(), store, 0)
	user := tracker.RegisterUser("alice")
	prog := tracker.RegisterProgram("convert-a1", user)
	ctx := provio.Context{User: user, Program: prog}

	// POSIX side: write a raw input.
	pfs := provio.WrapPOSIX(view, tracker, provio.POSIXAgent{User: user, Program: prog},
		provio.DefaultPOSIXOptions())
	if err := pfs.WriteFile("/data/raw.bin", []byte("sensor-bytes")); err != nil {
		t.Fatal(err)
	}

	// Library side: produce a hierarchical product.
	conn := provio.NewProvConnector(provio.NewNativeConnector(view), tracker, ctx, nil)
	f, err := conn.FileCreate("/data/out.h5")
	if err != nil {
		t.Fatal(err)
	}
	ds, err := conn.DatasetCreate(f.Root(), "signal", provio.TypeFloat64, []int{4})
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.DatasetWrite(ds, make([]byte, 32)); err != nil {
		t.Fatal(err)
	}
	if err := conn.FileClose(f); err != nil {
		t.Fatal(err)
	}
	if err := tracker.Close(); err != nil {
		t.Fatal(err)
	}

	// Merge and query.
	g, err := store.Merge()
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := provio.Query(g, `SELECT ?f WHERE { ?f a provio:File ; prov:wasAttributedTo ?p . }`, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 { // raw.bin and out.h5, both created by convert-a1
		t.Fatalf("attributed files = %d, want 2: %v", len(res.Rows), res.Rows)
	}

	// Visualization.
	var dot strings.Builder
	product := provio.IRI(provio.NodeIRI(provio.ModelFile, "/data/out.h5"))
	hl := provio.LineageHighlight(g, product)
	if err := provio.WriteDOT(&dot, g, provio.VizOptions{Highlight: hl}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(dot.String(), "digraph provenance") {
		t.Error("DOT output malformed")
	}
}

func TestPublicQueryCount(t *testing.T) {
	g := provio.NewGraph()
	g.Add(provio.Triple{S: provio.IRI("http://e/a"), P: provio.IRI("http://e/p"), O: provio.Integer(1)})
	g.Add(provio.Triple{S: provio.IRI("http://e/b"), P: provio.IRI("http://e/p"), O: provio.Integer(2)})
	res, _, err := provio.Query(g, `SELECT (COUNT(*) AS ?n) WHERE { ?s <http://e/p> ?o . }`, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0]["n"] != provio.Integer(2) {
		t.Errorf("count = %v", res.Rows[0]["n"])
	}
}

func TestPublicModelSurface(t *testing.T) {
	if len(provio.ModelClasses()) != 19 {
		t.Errorf("ModelClasses = %d", len(provio.ModelClasses()))
	}
	if len(provio.ModelRelations()) != 12 {
		t.Errorf("ModelRelations = %d", len(provio.ModelRelations()))
	}
	ns := provio.ModelNamespaces()
	if _, ok := ns.Base("provio"); !ok {
		t.Error("provio prefix unbound")
	}
	if provio.Version == "" {
		t.Error("empty version")
	}
}

func TestPublicConfigFile(t *testing.T) {
	cfg, err := provio.LoadConfig(strings.NewReader("track = File, Create, Open\nduration = on"))
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.Enabled(provio.ModelFile) || cfg.Enabled(provio.ModelDataset) || !cfg.Duration {
		t.Error("config file not applied")
	}
	// The commented sample configuration loads as it ships.
	f, err := os.Open("docs/provio.conf.example")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if cfg, err := provio.LoadConfig(f); err != nil || !cfg.Duration {
		t.Errorf("docs/provio.conf.example: %v", err)
	}
}

func TestPublicTurtleRoundTrip(t *testing.T) {
	g := provio.NewGraph()
	g.Add(provio.Triple{S: provio.IRI("http://e/s"), P: provio.IRI("http://e/p"), O: provio.Literal("v")})
	var sb strings.Builder
	if err := provio.WriteTurtle(&sb, g, provio.ModelNamespaces()); err != nil {
		t.Fatal(err)
	}
	g2, _, err := provio.ParseTurtle(strings.NewReader(sb.String()))
	if err != nil || g2.Len() != 1 {
		t.Errorf("round trip: %v, %d triples", err, g2.Len())
	}
}

func TestPublicMPIAndClock(t *testing.T) {
	completion := provio.MPIRun(4, func(r *provio.MPIRank) {
		r.Clock.Advance(1000)
		r.Barrier()
	})
	if completion <= 0 {
		t.Error("no completion time")
	}
	cost := provio.DefaultCostModel()
	if cost.ReadCost(1<<20) <= 0 {
		t.Error("cost model broken")
	}
}
