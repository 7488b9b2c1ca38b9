package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	provio "github.com/hpc-io/prov-io"
	"github.com/hpc-io/prov-io/internal/rdf"
)

// TestExportSyntaxFollowsFileName: -o NAME.ttl writes Turtle and -o NAME.nt
// N-Triples, each parsing back to exactly the store's merged graph, and any
// other name gets PROV-JSON; the text store an older build wrote is refused,
// naming the build that migrates it.
func TestExportSyntaxFollowsFileName(t *testing.T) {
	pbs := filepath.Join(t.TempDir(), "prov")
	store, err := provio.NewStore(provio.OSBackend{}, pbs, provio.FormatBinary)
	if err != nil {
		t.Fatal(err)
	}
	cfg := provio.DefaultConfig()
	cfg.Mode, cfg.FlushEvery = provio.ModePeriodic, 3
	tr := provio.NewTracker(cfg, store, 0)
	prog := tr.RegisterProgram("export.exe", tr.RegisterUser("alice"))
	for i := 0; i < 7; i++ {
		obj := tr.TrackDataObject(provio.ModelFile, "/data/in.h5", "", provio.Term{}, prog)
		tr.TrackIO(provio.ModelRead, "H5Dread", obj, prog, time.Duration(i)*time.Millisecond, time.Microsecond)
	}
	if err := tr.Drain(); err != nil {
		t.Fatal(err)
	}
	fixture := filepath.Join("..", "..", "internal", "core", "testdata", "legacy_text", "loose")
	text := t.TempDir()
	entries, err := os.ReadDir(fixture)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(fixture, e.Name()))
		if err == nil {
			err = os.WriteFile(filepath.Join(text, e.Name()), data, 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	err = run([]string{"-store", text, "-o", filepath.Join(t.TempDir(), "out.ttl")})
	if !errors.Is(err, provio.ErrNeedsMigration) || !strings.Contains(err.Error(), "prov_p000000.seg0000.nt") ||
		!strings.Contains(err.Error(), "provio-merge -compact built from commit 93a6ed8") {
		t.Fatalf("export of a text store: %v, want ErrNeedsMigration naming its first file and the migrating build", err)
	}

	dir := pbs
	want, err := store.Merge()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"out.ttl", "out.nt"} {
		out := filepath.Join(t.TempDir(), name)
		if err := run([]string{"-store", dir, "-o", out}); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := provio.ParseTurtle(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s of %s: %v", name, dir, err)
		}
		if !equalGraphs(got, want) {
			t.Errorf("%s of %s parses to %d triples, the store merges to %d, or to others", name, dir, got.Len(), want.Len())
		}
		if name == "out.ttl" && !bytes.Contains(data, []byte("@prefix prov:")) {
			t.Errorf("%s of %s is not Turtle under the PROV-IO prefixes", name, dir)
		}
		if name == "out.nt" && bytes.Contains(data, []byte("@prefix")) {
			t.Errorf("%s of %s is not N-Triples", name, dir)
		}
	}
	out := filepath.Join(t.TempDir(), "out.json")
	if err := run([]string{"-store", dir, "-o", out}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil || doc["prefix"] == nil {
		t.Errorf("out.json of %s is not a PROV-JSON document: %v", dir, err)
	}
}

func equalGraphs(a, b *rdf.Graph) bool {
	var x, y bytes.Buffer
	return rdf.WriteNTriples(&x, a) == nil && rdf.WriteNTriples(&y, b) == nil && bytes.Equal(x.Bytes(), y.Bytes())
}
