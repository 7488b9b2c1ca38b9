package core

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/hpc-io/prov-io/internal/model"
	"github.com/hpc-io/prov-io/internal/rdf"
	"github.com/hpc-io/prov-io/internal/rdf/segcodec"
	"github.com/hpc-io/prov-io/internal/vfs"
)

// trackInto runs one process's deterministic record stream through a tracker
// on the given store. Every format test replays the identical stream so the
// merged graphs are comparable across codecs. With leaveSegments the tracker
// is drained but not closed, so periodic delta segments stay un-compacted on
// disk (Close would fold them into the canonical file).
func trackInto(t *testing.T, store *Store, pid int, cfg *Config, leaveSegments bool) {
	t.Helper()
	tr := NewTracker(cfg, store, pid)
	user := tr.RegisterUser("alice")
	prog := tr.RegisterProgram("codec.exe", user)
	thr := tr.RegisterThread(pid, prog)
	for i := 0; i < 6; i++ {
		obj := tr.TrackDataObject(model.Dataset,
			fmt.Sprintf("/codec.h5/ts%d/x", i), fmt.Sprintf("/ts%d/x", i), rdf.Term{}, prog)
		tr.TrackIO(model.Write, "H5Dwrite", obj, thr,
			time.Duration(i)*time.Millisecond, 150*time.Microsecond)
	}
	if leaveSegments {
		if err := tr.Drain(); err != nil {
			t.Fatal(err)
		}
		return
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
}

// canonicalNT is the triple-multiset fingerprint used for cross-format
// graph equality.
func canonicalNT(t *testing.T, g *rdf.Graph) string {
	t.Helper()
	var buf bytes.Buffer
	if err := rdf.WriteNTriples(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestBinaryStoreRoundTrip runs the full tracker pipeline against a binary
// store and checks the merged graph equals a Turtle store fed the same
// records, read through its migration.
func TestBinaryStoreRoundTrip(t *testing.T) {
	graphs := make(map[string]*rdf.Graph)
	for layout, wantExts := range map[string][]string{"ttl": {".ttl", ".ttl.sum"}, "pbs": {".pbs"}} {
		store := newLayoutStore(t, layout)
		for pid := 0; pid < 2; pid++ {
			trackInto(t, store, pid, DefaultConfig(), false)
		}
		// The canonical files must carry the codec's extension. Text stores
		// carry a .sum integrity sidecar per file; binary files embed their
		// seal and must not have one.
		names, err := store.backend.List("/prov")
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range names {
			if !slices.ContainsFunc(wantExts, func(ext string) bool { return strings.HasSuffix(n, ext) }) {
				t.Errorf("%s store left unexpected file %s", layout, n)
			}
		}
		g, err := mergeLayout(t, store)
		if err != nil {
			t.Fatalf("%s store merge: %v", layout, err)
		}
		graphs[layout] = g
	}
	if canonicalNT(t, graphs["pbs"]) != canonicalNT(t, graphs["ttl"]) {
		t.Error("binary store merged to a different graph than the Turtle store")
	}
}

// TestMixedFormatMerge is the acceptance pin of the codec layer: a store
// directory holding .ttl, .nt, and .pbs files at once — canonical sub-graphs
// AND un-compacted delta segments — is refused by the merge until Compact
// migrates it, and then merges to a triple multiset identical to an all-pbs
// baseline fed the same records.
func TestMixedFormatMerge(t *testing.T) {
	// Periodic flush with no Close-compaction leaves delta segments behind.
	segCfg := func() *Config {
		cfg := DefaultConfig()
		cfg.Mode = ModePeriodic
		cfg.FlushEvery = 3
		return cfg
	}

	build := func(t *testing.T, layouts []string) *rdf.Graph {
		t.Helper()
		view := vfs.NewStore().NewView()
		for pid, layout := range layouts {
			store := layoutStoreOn(t, VFSBackend{View: view}, "/prov", layout)
			cfg, leaveSegments := DefaultConfig(), false
			if pid%2 == 1 {
				// Odd pids drain without closing: their delta segments stay
				// on disk in their store's segment format.
				cfg, leaveSegments = segCfg(), true
			}
			trackInto(t, store, pid, cfg, leaveSegments)
		}
		// Read the shared directory back: a text file refuses the read until
		// Compact migrates the directory.
		reader, err := NewStore(VFSBackend{View: view}, "/prov", FormatBinary)
		if err != nil {
			t.Fatal(err)
		}
		g, _, err := reader.MergePruned(nil, 4)
		if slices.ContainsFunc(layouts, func(l string) bool { return l != "pbs" }) {
			if !errors.Is(err, segcodec.ErrNeedsMigration) {
				t.Fatalf("%v directory merged before its migration: %v", layouts, err)
			}
			if err := reader.Compact(); err != nil {
				t.Fatal(err)
			}
			g, _, err = reader.MergePruned(nil, 4)
		}
		if err != nil {
			t.Fatal(err)
		}
		return g
	}

	baseline := build(t, []string{"pbs", "pbs", "pbs"})
	mixed := build(t, []string{"ttl", "nt", "pbs"})
	if canonicalNT(t, mixed) != canonicalNT(t, baseline) {
		t.Fatal("mixed .ttl/.nt/.pbs directory migrated to a different triple multiset than the all-pbs baseline")
	}
	if mixed.Len() == 0 {
		t.Fatal("merge produced an empty graph")
	}
}

// TestCompactMigratesTextToBinary: compacting a text store rewrites the
// canonical files as .pbs — the codec layer's migration path.
func TestCompactMigratesTextToBinary(t *testing.T) {
	view := vfs.NewStore().NewView()
	text := layoutStoreOn(t, VFSBackend{View: view}, "/prov", "nt")
	cfg := DefaultConfig()
	cfg.Mode = ModePeriodic
	cfg.FlushEvery = 3
	trackInto(t, text, 0, cfg, true) // leaves un-compacted .nt segments
	if _, err := text.Merge(); !errors.Is(err, segcodec.ErrNeedsMigration) {
		t.Fatalf("text store merged before its migration: %v", err)
	}
	twin := newLayoutStore(t, "pbs") // the same records, written as pbs
	trackInto(t, twin, 0, cfg, true)
	before, err := twin.Merge()
	if err != nil {
		t.Fatal(err)
	}

	names, _ := text.backend.List("/prov")
	var hadSeg bool
	for _, n := range names {
		if strings.Contains(n, ".seg") {
			hadSeg = true
		}
	}
	if !hadSeg {
		t.Fatal("test setup: expected un-compacted .nt segments")
	}

	bin, err := NewStore(VFSBackend{View: view}, "/prov", FormatBinary)
	if err != nil {
		t.Fatal(err)
	}
	if err := bin.Compact(); err != nil {
		t.Fatal(err)
	}
	names, _ = bin.backend.List("/prov")
	for _, n := range names {
		if strings.Contains(n, ".seg") {
			t.Errorf("segment %s survived compaction", n)
		}
	}
	data, err := bin.backend.ReadFile("/prov/prov_p000000.pbs")
	if err != nil {
		t.Fatalf("compaction did not produce a .pbs canonical file: %v", err)
	}
	if segcodec.Detect(data) != segcodec.Binary {
		t.Error("compacted canonical file does not carry the pbs magic")
	}
	after, err := bin.Merge()
	if err != nil {
		t.Fatal(err)
	}
	if canonicalNT(t, after) != canonicalNT(t, before) {
		t.Error("text -> binary compaction changed the graph")
	}
}

// TestCompactMigratesCanonicalOnly: a text store with NO pending segments —
// the common provio-merge -compact input — must still have its canonical
// files rewritten as pbs, with the text files and their sidecars removed;
// and a second Compact must be a no-op (idempotent migration).
func TestCompactMigratesCanonicalOnly(t *testing.T) {
	view := vfs.NewStore().NewView()
	text := layoutStoreOn(t, VFSBackend{View: view}, "/prov", "ttl")
	twin := newLayoutStore(t, "pbs") // the same records, written as pbs
	for pid := 0; pid < 2; pid++ {
		trackInto(t, text, pid, DefaultConfig(), false) // Close: canonical only
		trackInto(t, twin, pid, DefaultConfig(), false)
	}
	before, err := twin.Merge()
	if err != nil {
		t.Fatal(err)
	}

	bin, err := NewStore(VFSBackend{View: view}, "/prov", FormatBinary)
	if err != nil {
		t.Fatal(err)
	}
	if err := bin.Compact(); err != nil {
		t.Fatal(err)
	}
	names, _ := bin.backend.List("/prov")
	for _, n := range names {
		if isTextOrSidecar(n) {
			t.Errorf("text store file %s survived migration", n)
		}
	}
	for pid := 0; pid < 2; pid++ {
		if _, err := bin.backend.ReadFile(fmt.Sprintf("/prov/prov_p%06d.pbs", pid)); err != nil {
			t.Errorf("pid %d: no migrated .pbs canonical file: %v", pid, err)
		}
	}
	after, err := bin.Merge()
	if err != nil {
		t.Fatal(err)
	}
	if canonicalNT(t, after) != canonicalNT(t, before) {
		t.Error("canonical-only migration changed the graph")
	}

	// Idempotence: the files must not change on a second Compact.
	snapshot := make(map[string][]byte)
	for _, n := range names {
		data, _ := bin.backend.ReadFile("/prov/" + n)
		snapshot[n] = data
	}
	if err := bin.Compact(); err != nil {
		t.Fatal(err)
	}
	names2, _ := bin.backend.List("/prov")
	if len(names2) != len(names) {
		t.Fatalf("second Compact changed the file set: %v -> %v", names, names2)
	}
	for _, n := range names2 {
		data, _ := bin.backend.ReadFile("/prov/" + n)
		if !bytes.Equal(data, snapshot[n]) {
			t.Errorf("second Compact rewrote %s", n)
		}
	}
}

// TestFormatAutoDetection: there is no format left to detect. Whatever a
// store directory holds — nothing, text or pbs canonical files or segments,
// foreign files — a tracker writes its canonical file as pbs.
func TestFormatAutoDetection(t *testing.T) {
	cases := []struct {
		name  string
		files []string
	}{
		{"empty", nil},
		{"canonical ttl", []string{"prov_p000000.ttl"}},
		{"canonical nt", []string{"prov_p000000.nt"}},
		{"canonical pbs", []string{"prov_p000000.pbs"}},
		{"segment only", []string{"prov_p000000.seg0000.pbs"}},
		{"canonical wins over segment", []string{"prov_p000000.seg0000.nt", "prov_p000001.pbs"}},
		{"foreign files ignored", []string{"README.txt", "prov_merged.ttl"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			view := vfs.NewStore().NewView()
			backend := VFSBackend{View: view}
			if err := backend.MkdirAll("/prov"); err != nil {
				t.Fatal(err)
			}
			for _, f := range tc.files {
				if err := backend.WriteFile("/prov/"+f, nil); err != nil {
					t.Fatal(err)
				}
			}
			store, err := NewStore(backend, "/prov", FormatBinary)
			if err != nil {
				t.Fatal(err)
			}
			tr := NewTracker(DefaultConfig(), store, 2)
			tr.RegisterUser("u")
			if err := tr.Close(); err != nil {
				t.Fatal(err)
			}
			if !view.Exists("/prov/prov_p000002.pbs") {
				t.Error("no pbs canonical file written")
			}
		})
	}
}

// TestGoldenMergedBinary pins the canonical .pbs bytes of the golden store:
// the binary serialization of the merged graph must stay stable, and the
// fixture must decode back to the identical graph.
func TestGoldenMergedBinary(t *testing.T) {
	store := buildGoldenStore(t)
	merged, _, err := store.MergePruned(nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	var pbs bytes.Buffer
	if err := segcodec.Binary.Encode(&pbs, merged, nil); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "golden_merged.pbs", pbs.Bytes())

	decoded := rdf.NewGraph()
	if err := segcodec.Binary.Decode(bytes.NewReader(pbs.Bytes()), decoded); err != nil {
		t.Fatalf("decoding our own golden fixture: %v", err)
	}
	if canonicalNT(t, decoded) != canonicalNT(t, merged) {
		t.Error("golden .pbs fixture does not round-trip to the merged graph")
	}
}

// TestCorruptBinarySegmentSurfacesError mirrors the fault tests for text
// segments: a bit-flipped .pbs file must fail the merge with a parse error
// naming the file, not crash or silently drop triples.
func TestCorruptBinarySegmentSurfacesError(t *testing.T) {
	view := vfs.NewStore().NewView()
	store, err := NewStore(VFSBackend{View: view}, "/prov", FormatBinary)
	if err != nil {
		t.Fatal(err)
	}
	trackInto(t, store, 0, DefaultConfig(), false)
	path := "/prov/prov_p000000.pbs"
	data, err := store.backend.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := store.backend.WriteFile(path, data); err != nil {
		t.Fatal(err)
	}
	_, err = store.Merge()
	if err == nil {
		t.Fatal("merge accepted a corrupt binary sub-graph")
	}
	if !strings.Contains(err.Error(), "prov_p000000.pbs") {
		t.Errorf("error %v does not name the corrupt file", err)
	}
}

// TestUnknownPBSVersionIsClassified: a .pbs file of a version this build does
// not know used to fail the magic match and fall through to the text parser,
// which told the operator about Turtle syntax in a binary file. Every reader
// — eager merge, out-of-core view, audit — now reports the codec's own
// classified error.
func TestUnknownPBSVersionIsClassified(t *testing.T) {
	store := newBinaryVFSStore(t)
	trackInto(t, store, 0, DefaultConfig(), false)
	path := "/prov/prov_p000000.pbs"
	data, err := store.backend.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[3] = segcodec.PBSVersion + 1
	if err := store.backend.WriteFile(path, data); err != nil {
		t.Fatal(err)
	}
	unsupported := fmt.Sprintf("unsupported pbs version %d", data[3])
	classified := func(what string, err error) {
		t.Helper()
		if !errors.Is(err, segcodec.ErrCorrupt) || !strings.Contains(err.Error(), unsupported) ||
			!strings.Contains(err.Error(), "prov_p000000.pbs") {
			t.Errorf("%s: %v, want ErrCorrupt naming the file and its version", what, err)
		}
	}
	_, err = store.Merge()
	classified("Merge", err)
	v, err := store.OpenLazy(CacheConfig{})
	if err == nil {
		_, _, err = v.MaterializeGraph(2)
	}
	classified("lazy view", err)
	rep := mustVerify(t, store)
	if len(rep.Defects) == 0 || rep.Worst() != DefectTampered || !strings.Contains(rep.Defects[0].Detail, unsupported) {
		t.Errorf("Verify: %v", rep.Defects)
	}
}
