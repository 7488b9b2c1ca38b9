package core

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/hpc-io/prov-io/internal/model"
	"github.com/hpc-io/prov-io/internal/rdf"
	"github.com/hpc-io/prov-io/internal/vfs"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files under testdata/")

// buildGoldenStore deterministically populates a three-process store, one
// process per flush pipeline, so the golden bytes pin segment writing,
// compaction, and canonical serialization together.
func buildGoldenStore(t *testing.T) *Store {
	t.Helper()
	view := vfs.NewStore().NewView()
	store, err := NewStore(VFSBackend{View: view}, "/prov", FormatBinary)
	if err != nil {
		t.Fatal(err)
	}
	pipelines := []Pipeline{PipelineAsync, PipelineDelta, PipelineInline}
	for pid := 0; pid < 3; pid++ {
		cfg := DefaultConfig()
		cfg.Mode = ModePeriodic
		cfg.FlushEvery = 4
		cfg.Pipeline = pipelines[pid]
		tr := NewTracker(cfg, store, pid)
		user := tr.RegisterUser("alice")
		prog := tr.RegisterProgram("golden.exe", user)
		thr := tr.RegisterThread(pid, prog)
		for i := 0; i < 5; i++ {
			obj := tr.TrackDataObject(model.Dataset,
				fmt.Sprintf("/golden.h5/ts%d/x", i), fmt.Sprintf("/ts%d/x", i), rdf.Term{}, prog)
			tr.TrackIO(model.Write, "H5Dwrite", obj, thr,
				time.Duration(i)*time.Millisecond, 250*time.Microsecond)
		}
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return store
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run 'go test ./internal/core -run Golden -update' to create)", err)
	}
	if !bytes.Equal(want, got) {
		t.Errorf("%s: serialization drifted from golden bytes (run with -update if intentional)", name)
	}
}

// TestGoldenMergedRoundTrip pins the canonical serialization of a merged
// multi-process store and proves the chain Turtle -> parse -> N-Triples ->
// parse -> Turtle is byte-stable.
func TestGoldenMergedRoundTrip(t *testing.T) {
	store := buildGoldenStore(t)
	merged, _, err := store.MergePruned(nil, 4)
	if err != nil {
		t.Fatal(err)
	}

	var ttl bytes.Buffer
	if err := rdf.WriteTurtle(&ttl, merged, model.Namespaces()); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "golden_merged.ttl", ttl.Bytes())

	reparsed, _, err := rdf.ParseTurtle(bytes.NewReader(ttl.Bytes()))
	if err != nil {
		t.Fatalf("parsing our own Turtle: %v", err)
	}
	var nt bytes.Buffer
	if err := rdf.WriteNTriples(&nt, reparsed); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "golden_merged.nt", nt.Bytes())

	fromNT, _, err := rdf.ParseTurtle(bytes.NewReader(nt.Bytes()))
	if err != nil {
		t.Fatalf("parsing our own N-Triples: %v", err)
	}
	var ttl2 bytes.Buffer
	if err := rdf.WriteTurtle(&ttl2, fromNT, model.Namespaces()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ttl.Bytes(), ttl2.Bytes()) {
		t.Error("Turtle -> N-Triples -> Turtle round trip is not byte-stable")
	}
	if fromNT.Len() != merged.Len() {
		t.Errorf("round trip changed triple count: %d -> %d", merged.Len(), fromNT.Len())
	}
}
