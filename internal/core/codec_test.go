package core

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"path/filepath"
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
// store: it holds .pbs files only, each carrying its seal in-band, and its
// merged graph survives the Turtle round trip export makes.
func TestBinaryStoreRoundTrip(t *testing.T) {
	store := newBinaryVFSStore(t)
	for pid := 0; pid < 2; pid++ {
		trackInto(t, store, pid, DefaultConfig(), false)
	}
	names, err := store.backend.List("/prov")
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		if !strings.HasSuffix(n, segcodec.Binary.Ext()) {
			t.Errorf("pbs store left unexpected file %s", n)
		}
	}
	g, err := store.Merge()
	if err != nil {
		t.Fatal(err)
	}
	var ttl bytes.Buffer
	if err := segcodec.Turtle.Encode(&ttl, g, model.Namespaces()); err != nil {
		t.Fatal(err)
	}
	back := rdf.NewGraph()
	if err := segcodec.Turtle.Decode(&ttl, back); err != nil {
		t.Fatal(err)
	}
	if g.Len() == 0 || canonicalNT(t, back) != canonicalNT(t, g) {
		t.Error("the merged graph does not survive the Turtle round trip")
	}
}

// TestFormatAutoDetection: there is no format left to detect. Whatever a
// store directory holds — nothing, pbs canonical files or segments, foreign
// files — a tracker writes its canonical file as pbs; and a directory
// holding a text store's file refuses the write with ErrNeedsMigration.
func TestFormatAutoDetection(t *testing.T) {
	cases := []struct {
		name  string
		files []string
		text  bool
	}{
		{"empty", nil, false},
		{"canonical ttl", []string{"prov_p000000.ttl"}, true},
		{"canonical nt", []string{"prov_p000000.nt"}, true},
		{"canonical pbs", []string{"prov_p000000.pbs"}, false},
		{"segment only", []string{"prov_p000000.seg0000.pbs"}, false},
		{"canonical wins over segment", []string{"prov_p000000.seg0000.pbs", "prov_p000001.pbs"}, false},
		{"text segment beside pbs", []string{"prov_p000000.seg0000.nt", "prov_p000001.pbs"}, true},
		{"sidecar", []string{"prov_p000002.ttl.sum"}, true},
		{"foreign files ignored", []string{"README.txt", "prov_merged.ttl"}, false},
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
			err = tr.Close()
			if tc.text {
				if !errors.Is(err, segcodec.ErrNeedsMigration) || view.Exists("/prov/prov_p000002.pbs") {
					t.Errorf("a text store took a pbs canonical file: %v", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !view.Exists("/prov/prov_p000002.pbs") {
				t.Error("no pbs canonical file written")
			}
		})
	}
}

// TestMixedFormatMerge: a store directory holding .ttl, .nt and .pbs files
// at once — canonical sub-graphs AND un-compacted delta segments — is one
// an older build wrote, and every read of it refuses with ErrNeedsMigration
// naming the first text file and the migrating build rather than merge the
// pbs files alone; the same records written as pbs only merge to a
// non-empty graph.
func TestMixedFormatMerge(t *testing.T) {
	build := func(layouts []string) map[string][]byte {
		files := map[string][]byte{}
		for pid, layout := range layouts {
			store := newBinaryVFSStore(t)
			cfg, leaveSegments := DefaultConfig(), false
			if pid%2 == 1 {
				// Odd pids drain without closing: their delta segments stay
				// on disk in their store's segment format.
				cfg, leaveSegments = DefaultConfig(), true
				cfg.Mode, cfg.FlushEvery = ModePeriodic, 3
			}
			trackInto(t, store, pid, cfg, leaveSegments)
			maps.Copy(files, asLayout(t, storeFiles(t, store), layout))
		}
		return files
	}
	baseline := openDir(t, build([]string{"pbs", "pbs", "pbs"}))
	if g, _, err := baseline.MergePruned(nil, 4); err != nil || g.Len() == 0 {
		t.Fatalf("all-pbs directory: %v", err)
	}
	files := build([]string{"ttl", "nt", "pbs"})
	if !slices.ContainsFunc(fileNames(files), func(n string) bool { return strings.Contains(n, ".seg") && filepath.Ext(n) == ".nt" }) {
		t.Fatalf("premise: un-compacted .nt segments, got %v", fileNames(files))
	}
	mixed := openDir(t, files)
	_, _, err := mixed.MergePruned(nil, 4)
	if !errors.Is(err, segcodec.ErrNeedsMigration) || !strings.Contains(err.Error(), fileNames(files)[0]+": text store file") {
		t.Errorf("mixed directory: MergePruned returned %v, want ErrNeedsMigration naming %s", err, fileNames(files)[0])
	}
	checkRefused(t, "mixed .ttl/.nt/.pbs directory", mixed)
}

// TestCompactMigratesTextToBinary: Compact migrates no text store any more
// — that is the migrating build's provio-merge -compact. On an N-Triples
// store with un-compacted segments it refuses with ErrNeedsMigration naming
// that build, writes no .pbs file and leaves every byte as it was, and
// refuses again on a second run.
func TestCompactMigratesTextToBinary(t *testing.T) {
	src := newBinaryVFSStore(t)
	cfg := DefaultConfig()
	cfg.Mode = ModePeriodic
	cfg.FlushEvery = 3
	trackInto(t, src, 0, cfg, true) // leaves un-compacted segments
	files := asLayout(t, storeFiles(t, src), "nt")
	if !slices.Contains(fileNames(files), "prov_p000000.seg0000.nt") {
		t.Fatalf("premise: un-compacted .nt segments, got %v", fileNames(files))
	}
	store := openDir(t, files)
	for run := 1; run <= 2; run++ {
		err := store.Compact()
		if !errors.Is(err, segcodec.ErrNeedsMigration) || !strings.Contains(err.Error(), migratingBuild) {
			t.Errorf("Compact run %d returned %v, want ErrNeedsMigration naming %q", run, err, migratingBuild)
		}
		after := storeFiles(t, store)
		if !maps.EqualFunc(files, after, bytes.Equal) {
			t.Errorf("Compact run %d changed the store: %v", run, fileNames(after))
		}
	}
}

// TestCompactMigratesCanonicalOnly: a text store with NO pending segments
// — the common provio-merge -compact input — is refused like any other
// store an older build wrote: Compact neither rewrites its canonical files
// as pbs nor removes the text files or their .sum files, and every other
// path refuses it too.
func TestCompactMigratesCanonicalOnly(t *testing.T) {
	src := newBinaryVFSStore(t)
	for pid := 0; pid < 2; pid++ {
		trackInto(t, src, pid, DefaultConfig(), false) // Close: canonical only
	}
	files := asLayout(t, storeFiles(t, src), "ttl")
	want := []string{"prov_p000000.ttl", "prov_p000000.ttl.sum", "prov_p000001.ttl", "prov_p000001.ttl.sum"}
	if got := fileNames(files); !slices.Equal(got, want) {
		t.Fatalf("premise: a canonical-only text store, got %v", got)
	}
	checkRefused(t, "canonical-only text store", openDir(t, files))
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
	data[3] = 6 // the version after the one this build writes
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
