package provio_test

// Cross-component integration tests driven entirely through the public API:
// multi-library tracking (hierarchical + ADIOS + POSIX in one run),
// cross-run provenance, and lineage reduction.

import (
	"fmt"
	"strings"
	"testing"

	provio "github.com/hpc-io/prov-io"
)

// TestThreeInterfacesOneProvenanceGraph runs a pipeline whose stages use
// three different I/O interfaces — POSIX (raw input), the hierarchical
// library (intermediate), and the ADIOS-style engine (final product) — and
// checks that one merged provenance graph answers the end-to-end lineage
// question. This is the paper's core interoperability claim exercised
// across every integrated I/O path.
func TestThreeInterfacesOneProvenanceGraph(t *testing.T) {
	fs := provio.NewMemStore()
	view := fs.NewView()
	if err := view.MkdirAll("/pipe"); err != nil {
		t.Fatal(err)
	}
	store, err := provio.NewStore(provio.VFSBackend{View: fs.NewView()}, "/prov", provio.FormatBinary)
	if err != nil {
		t.Fatal(err)
	}
	tracker := provio.NewTracker(provio.DefaultConfig(), store, 0)
	user := tracker.RegisterUser("chain-user")

	// Stage 1 (POSIX): ingest writes the raw file.
	ingest := tracker.RegisterProgram("ingest", user)
	pfs := provio.WrapPOSIX(view, tracker, provio.POSIXAgent{User: user, Program: ingest},
		provio.DefaultPOSIXOptions())
	if err := pfs.WriteFile("/pipe/raw.dat", []byte("raw")); err != nil {
		t.Fatal(err)
	}

	// Stage 2 (hierarchical library): convert reads raw, writes mid.h5.
	convert := tracker.RegisterProgram("convert", user)
	pfs2 := provio.WrapPOSIX(view, tracker, provio.POSIXAgent{User: user, Program: convert},
		provio.DefaultPOSIXOptions())
	raw, err := pfs2.Open("/pipe/raw.dat")
	if err != nil {
		t.Fatal(err)
	}
	raw.Read(make([]byte, 3))
	raw.Close()
	conn := provio.NewProvConnector(provio.NewNativeConnector(view), tracker,
		provio.Context{User: user, Program: convert}, nil)
	h5, err := conn.FileCreate("/pipe/mid.h5")
	if err != nil {
		t.Fatal(err)
	}
	ds, err := conn.DatasetCreate(h5.Root(), "v", provio.TypeUint8, []int{3})
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.DatasetWrite(ds, []byte("raw")); err != nil {
		t.Fatal(err)
	}
	conn.FileClose(h5)

	// Stage 3 (ADIOS): export reads mid.h5 and writes final.bp.
	export := tracker.RegisterProgram("export", user)
	conn2 := provio.NewProvConnector(provio.NewNativeConnector(view), tracker,
		provio.Context{User: user, Program: export}, nil)
	in, err := conn2.FileOpen("/pipe/mid.h5", true)
	if err != nil {
		t.Fatal(err)
	}
	ds2, err := conn2.DatasetOpen(in.Root(), "v")
	if err != nil {
		t.Fatal(err)
	}
	payload, err := conn2.DatasetRead(ds2)
	if err != nil {
		t.Fatal(err)
	}
	conn2.FileClose(in)
	eng, err := provio.OpenADIOS(view, "/pipe/final.bp", provio.ADIOSWrite)
	if err != nil {
		t.Fatal(err)
	}
	eng.WithProvenance(tracker, export, export)
	eng.BeginStep()
	eng.Put("v", []int{len(payload)}, payload)
	eng.EndStep()
	eng.Close()

	if err := tracker.Close(); err != nil {
		t.Fatal(err)
	}
	g, err := store.Merge()
	if err != nil {
		t.Fatal(err)
	}

	// Walk the chain backwards: final.bp -> export -> mid.h5 -> convert ->
	// raw.dat -> ingest.
	target := "/pipe/final.bp"
	producers := []string{}
	for hop := 0; hop < 5 && target != ""; hop++ {
		node := provio.NodeIRI(provio.ModelFile, target)
		r1, _, err := provio.Query(g, fmt.Sprintf(
			`SELECT ?p WHERE { <%s> prov:wasAttributedTo ?prog . ?prog provio:name ?p . }`, node), 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(r1.Rows) == 0 {
			break
		}
		prog := r1.Rows[0]["p"].Value
		producers = append(producers, prog)
		// At full granularity reads attach to datasets, so a file-level
		// backward step accepts either a read or an open access.
		r2, _, err := provio.Query(g, fmt.Sprintf(`SELECT DISTINCT ?n WHERE {
			{ ?input provio:wasReadBy ?api . } UNION { ?input provio:wasOpenedBy ?api . }
			?api prov:wasAssociatedWith ?pr .
			?pr provio:name "%s" .
			?input a provio:File ;
			       provio:name ?n .
		}`, prog), 1)
		if err != nil {
			t.Fatal(err)
		}
		target = ""
		if len(r2.Rows) > 0 {
			target = r2.Rows[0]["n"].Value
		}
	}
	want := []string{"export", "convert", "ingest"}
	if len(producers) != 3 {
		t.Fatalf("producer chain = %v, want %v", producers, want)
	}
	for i := range want {
		if producers[i] != want[i] {
			t.Fatalf("producer chain = %v, want %v", producers, want)
		}
	}
}

// TestCrossRunBestConfiguration records two workflow runs into separate
// stores and finds the best configuration across runs — the multi-run
// provenance of the paper's future-work section (§8).
func TestCrossRunBestConfiguration(t *testing.T) {
	fs := provio.NewMemStore()
	var stores []*provio.Store
	accs := []float64{0.81, 0.93}
	for run, acc := range accs {
		store, err := provio.NewStore(provio.VFSBackend{View: fs.NewView()},
			fmt.Sprintf("/prov/run%d", run), provio.FormatBinary)
		if err != nil {
			t.Fatal(err)
		}
		tr := provio.NewTracker(provio.DefaultConfig(), store, 0)
		wf := tr.RegisterProgram("topreco", tr.RegisterUser("u"))
		tr.TrackConfigurationAccuracy(wf, "learning_rate",
			provio.Double(0.01*float64(run+1)), run, acc)
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
		stores = append(stores, store)
	}
	merged, err := provio.MergeStores(stores...)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := provio.Query(merged, `
		SELECT ?version ?acc WHERE {
			?c provio:Version ?version ; provio:hasAccuracy ?acc .
		} ORDER BY DESC(?acc) LIMIT 1`, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0]["version"] != provio.Integer(1) {
		t.Errorf("best run = %v, want version 1", res.Rows)
	}
}

// TestReduceBeforeVisualize reduces a larger provenance graph to one
// product's neighborhood before rendering, checking the DOT shrinks.
func TestReduceBeforeVisualize(t *testing.T) {
	fs := provio.NewMemStore()
	view := fs.NewView()
	view.MkdirAll("/d")
	store, _ := provio.NewStore(provio.VFSBackend{View: fs.NewView()}, "/prov", provio.FormatBinary)
	tracker := provio.NewTracker(provio.DefaultConfig(), store, 0)
	prog := tracker.RegisterProgram("writer", tracker.RegisterUser("u"))
	conn := provio.NewProvConnector(provio.NewNativeConnector(view), tracker,
		provio.Context{Program: prog}, nil)
	// 30 unrelated files plus one of interest.
	for i := 0; i < 30; i++ {
		f, err := conn.FileCreate(fmt.Sprintf("/d/f%02d.h5", i))
		if err != nil {
			t.Fatal(err)
		}
		conn.FileClose(f)
	}
	tracker.Close()
	g, _ := store.Merge()

	product := provio.IRI(provio.NodeIRI(provio.ModelFile, "/d/f00.h5"))
	reduced := provio.ReduceLineage(g, []provio.Term{product}, 1)
	if reduced.Len() >= g.Len() {
		t.Fatalf("reduction ineffective: %d >= %d", reduced.Len(), g.Len())
	}
	var full, small strings.Builder
	provio.WriteDOT(&full, g, provio.VizOptions{})
	provio.WriteDOT(&small, reduced, provio.VizOptions{})
	if small.Len() >= full.Len() {
		t.Errorf("reduced DOT (%d) not smaller than full (%d)", small.Len(), full.Len())
	}
	if !strings.Contains(small.String(), "f00.h5") {
		t.Error("product missing from reduced DOT")
	}
}
