package core

import (
	"bytes"
	"errors"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"github.com/hpc-io/prov-io/internal/model"
	"github.com/hpc-io/prov-io/internal/rdf"
	"github.com/hpc-io/prov-io/internal/rdf/segcodec"
	"github.com/hpc-io/prov-io/internal/vfs"
)

// The fixtures under testdata/legacy_text are the text store the last build
// that wrote one wrote (internal/tools/mkstore -format ttl -records 24, and
// provio-merge -compact -level 1 on a copy, with provio-verify -write-heads
// beside each): a Turtle canonical file, N-Triples delta segments, and a .sum
// sidecar sealing each, loose and packed. legacyTextBackend writes the same
// bytes, which TestLegacyTextWriterIsTheFixture holds it to, so tests build
// text stores of any history through the tracker.

// legacyTextBackend writes a text store the way builds before pbs-only did:
// every sealed pbs store file the store hands it becomes the same triples as
// text — a canonical file in the canonical codec, a delta segment in
// N-Triples — followed by a .sum sidecar carrying the pbs seal's chain
// fields, its prev translated to the digest of the text file its predecessor
// became. Everything else passes through. Reads, listings and removals see
// the text files; Compact, which migrates them, must run on the inner
// backend (plainStore).
type legacyTextBackend struct {
	Backend
	canonical segcodec.Codec
	mu        sync.Mutex
	twin      map[[32]byte][32]byte // pbs file digest -> its text file's digest
}

func newLegacyTextBackend(inner Backend, canonical segcodec.Codec) *legacyTextBackend {
	return &legacyTextBackend{Backend: inner, canonical: canonical, twin: make(map[[32]byte][32]byte)}
}

func (b *legacyTextBackend) WriteFile(path string, data []byte) error {
	n, ok := parseStoreName(filepath.Base(path))
	if !ok || n.sum || n.text() {
		return b.Backend.WriteFile(path, data)
	}
	cols, err := segcodec.DecodeColumns(data)
	if err != nil {
		return err
	}
	g := rdf.NewGraph()
	cols.Materialize(g)
	codec := segcodec.NTriples
	if n.kind == kindCanonical {
		codec = b.canonical
	}
	var text bytes.Buffer
	if err := codec.Encode(&text, g, model.Namespaces()); err != nil {
		return err
	}
	seal := *cols.Chain
	digest := fileDigest(text.Bytes())
	b.mu.Lock()
	if d, ok := b.twin[seal.Prev]; ok {
		seal.Prev = d
	}
	b.twin[fileDigest(data)] = digest
	b.mu.Unlock()
	path = strings.TrimSuffix(path, segcodec.Binary.Ext()) + codec.Ext()
	if err := b.Backend.WriteFile(path, text.Bytes()); err != nil {
		return err
	}
	return b.Backend.WriteFile(path+".sum", marshalSidecar(seal, int64(text.Len()), digest))
}

// layouts are what a test store holds: "pbs", what the store writes, and
// "ttl" and "nt", the text stores older builds wrote (Turtle or N-Triples
// canonical files, N-Triples segments, sidecars).
var layouts = []string{"ttl", "nt", "pbs"}

// newLayoutStore returns an empty store on a fresh vfs view whose writes
// land in the layout.
func newLayoutStore(t testing.TB, layout string) *Store {
	t.Helper()
	return layoutStoreOn(t, VFSBackend{View: vfs.NewStore().NewView()}, "/prov", layout)
}

// layoutStoreOn opens a store on b whose writes land in the layout.
func layoutStoreOn(t testing.TB, b Backend, dir, layout string) *Store {
	t.Helper()
	switch layout {
	case "ttl":
		b = newLegacyTextBackend(b, segcodec.Turtle)
	case "nt":
		b = newLegacyTextBackend(b, segcodec.NTriples)
	}
	store, err := NewStore(b, dir, FormatBinary)
	if err != nil {
		t.Fatal(err)
	}
	return store
}

// plainStore reopens a store on its backend without the legacy text writer.
func plainStore(t testing.TB, s *Store) *Store {
	t.Helper()
	b := s.backend
	if lb, ok := b.(*legacyTextBackend); ok {
		b = lb.Backend
	}
	store, err := NewStore(b, s.dir, FormatBinary)
	if err != nil {
		t.Fatal(err)
	}
	return store
}

// mergeLayout merges a store of any layout the way it can be read: a text
// store after its migration (Compact, on the inner backend), which rewrites
// it in place, and a pbs store as it is.
func mergeLayout(t testing.TB, store *Store) (*rdf.Graph, error) {
	t.Helper()
	plain := plainStore(t, store)
	if _, text := store.backend.(*legacyTextBackend); text {
		if err := plain.Compact(); err != nil {
			return nil, err
		}
	}
	return plain.Merge()
}

// readFixtureStore reads one committed store under testdata and its recorded
// heads.
func readFixtureStore(t *testing.T, dir string) (files map[string][]byte, heads map[int][32]byte) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files = make(map[string][]byte, len(entries))
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = data
	}
	recorded, err := os.ReadFile(dir + ".heads")
	if err != nil {
		t.Fatal(err)
	}
	if heads, err = ParseHeads(recorded); err != nil {
		t.Fatal(err)
	}
	return files, heads
}

// legacyTextFiles reads the committed text store of a layout.
func legacyTextFiles(t *testing.T, layout string) (map[string][]byte, map[int][32]byte) {
	t.Helper()
	return readFixtureStore(t, filepath.Join("testdata", "legacy_text", layout))
}

// isTextOrSidecar reports whether a store file name is one only older builds
// wrote.
func isTextOrSidecar(name string) bool {
	switch filepath.Ext(name) {
	case ".ttl", ".nt", ".sum":
		return true
	}
	return false
}

// TestLegacyTextWriterIsTheFixture: the demo history written through
// legacyTextBackend is the committed loose text store byte for byte, so the
// stores tests build with it are the stores older builds wrote.
func TestLegacyTextWriterIsTheFixture(t *testing.T) {
	want, _ := legacyTextFiles(t, "loose")
	got := storeFiles(t, demoStore(t, newLegacyTextBackend(VFSBackend{View: vfs.NewStore().NewView()}, segcodec.Turtle)))
	if !slices.Equal(fileNames(got), fileNames(want)) {
		t.Fatalf("writer wrote %v, the fixture holds %v", fileNames(got), fileNames(want))
	}
	for name, data := range want {
		if !bytes.Equal(got[name], data) {
			t.Errorf("%s: the writer's %d bytes differ from the fixture's %d", name, len(got[name]), len(data))
		}
	}
}

// TestLegacyTextTakesFreshSegments: a fresh tracker chains pbs delta
// segments onto a text canonical file (its digest is their chain's anchor),
// the mixed store verifies clean and reads refuse it, naming the text file,
// and Compact leaves one pbs file per pid holding the union of the files'
// graphs.
func TestLegacyTextTakesFreshSegments(t *testing.T) {
	files, _ := legacyTextFiles(t, "loose")
	canonical := map[string][]byte{}
	for name, data := range files {
		if !strings.Contains(name, ".seg") {
			canonical[name] = data
		}
	}
	store := openDir(t, canonical)
	trackFreshSegments(t, store, 0)
	trackFreshSegments(t, store, 1)
	rep := mustVerify(t, store)
	if !rep.Clean() || rep.Sealed != rep.Files || rep.Segments == 0 {
		t.Fatalf("text canonical with fresh segments: defects %v, %d of %d files sealed, %d segments", rep.Defects, rep.Sealed, rep.Files, rep.Segments)
	}
	checkRefused(t, "text canonical with fresh segments", store, "prov_p000000.ttl")
	union := rdf.NewGraph()
	for name, data := range storeFiles(t, store) {
		codec := segcodec.Binary
		switch n, _ := parseStoreName(name); {
		case n.sum:
			continue
		case n.text():
			codec = segcodec.Turtle
		}
		if err := codec.Decode(bytes.NewReader(data), union); err != nil {
			t.Fatal(err)
		}
	}
	want := ntBytes(t, union)
	if err := store.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := fileNames(storeFiles(t, store)); !slices.Equal(got, []string{"prov_p000000.pbs", "prov_p000001.pbs"}) {
		t.Errorf("Compact left %v", got)
	}
	if rep := mustVerify(t, store); !rep.Clean() || rep.Sealed != 2 {
		t.Errorf("after Compact: defects %v, %d sealed", rep.Defects, rep.Sealed)
	}
	if !bytes.Equal(mergedNT(t, store), want) {
		t.Error("Compact changed the merged graph")
	}
}

// writeRecorder records the name of every file written through it.
type writeRecorder struct {
	Backend
	mu      sync.Mutex
	written map[string]bool
}

func (b *writeRecorder) WriteFile(path string, data []byte) error {
	b.mu.Lock()
	b.written[filepath.Base(path)] = true
	b.mu.Unlock()
	return b.Backend.WriteFile(path, data)
}

// TestStoreWritesOnlyPBS runs every store writer — a tracker's Close at end
// and periodically under each pipeline, Compact of both text stores,
// PackSegments and WriteMergedParallel — and finds .pbs and .psk files only.
func TestStoreWritesOnlyPBS(t *testing.T) {
	check := func(what string, rec *writeRecorder) {
		t.Helper()
		if len(rec.written) == 0 {
			t.Errorf("%s wrote nothing", what)
		}
		for name := range rec.written {
			if ext := filepath.Ext(name); ext != segcodec.Binary.Ext() && ext != segcodec.Pack.Ext() {
				t.Errorf("%s wrote %s", what, name)
			}
		}
	}
	record := func(files map[string][]byte) (*Store, *writeRecorder) {
		store := openDir(t, files)
		rec := &writeRecorder{Backend: store.backend, written: map[string]bool{}}
		store.backend = rec
		return store, rec
	}

	store, rec := record(nil)
	cfg := DefaultConfig()
	trackInto(t, store, 0, cfg, false)
	for i, p := range []Pipeline{PipelineAsync, PipelineDelta, PipelineInline} {
		cfg := DefaultConfig()
		cfg.Mode, cfg.FlushEvery, cfg.Pipeline = ModePeriodic, 2, p
		trackInto(t, store, 1+i, cfg, false)
		trackInto(t, store, 4+i, cfg, true)
	}
	check("tracker Close and periodic flushes", rec)
	pbsStore := storeFiles(t, store)

	store, rec = record(pbsStore)
	if _, err := store.PackSegments(1); err != nil {
		t.Fatal(err)
	}
	check("PackSegments", rec)
	store, rec = record(pbsStore)
	if _, err := store.WriteMergedParallel(2); err != nil {
		t.Fatal(err)
	}
	check("WriteMergedParallel", rec)
	for _, layout := range []string{"loose", "packed"} {
		files, _ := legacyTextFiles(t, layout)
		store, rec = record(files)
		if err := store.Compact(); err != nil {
			t.Fatal(err)
		}
		check("Compact of the "+layout+" text store", rec)
		for name := range storeFiles(t, store) {
			if isTextOrSidecar(name) {
				t.Errorf("Compact of the %s text store left %s", layout, name)
			}
		}
	}
}

// TestNewStoreRefusesOtherFormats: the store writes pbs only, and a caller
// asking for anything else hears where text stores go.
func TestNewStoreRefusesOtherFormats(t *testing.T) {
	for _, f := range []Format{1, 2, 0xFF} {
		_, err := NewStore(VFSBackend{View: vfs.NewStore().NewView()}, "/prov", f)
		if err == nil || !strings.Contains(err.Error(), "provio-merge -compact") {
			t.Errorf("NewStore with format %d: %v", f, err)
		}
	}
}

// TestConfigFormatKeyRefused: a configuration file naming a store format is
// an error that names the tool that writes text.
func TestConfigFormatKeyRefused(t *testing.T) {
	for _, val := range []string{"ttl", "nt", "pbs", "auto"} {
		_, err := LoadConfig(strings.NewReader("mode = at_end\nformat = " + val + "\n"))
		if err == nil || !strings.Contains(err.Error(), "line 2") || !strings.Contains(err.Error(), "provio-export") {
			t.Errorf("format = %s: %v", val, err)
		}
	}
}

// TestPackSegmentsRefusesText: a pack takes pbs files only, so a store
// holding text files, loose or in an older pack, is refused, naming its
// first text file and the migration, with every byte of the store left as
// it was.
func TestPackSegmentsRefusesText(t *testing.T) {
	for level, layout := range []string{1: "loose", 2: "packed"} {
		if layout == "" {
			continue
		}
		files, _ := legacyTextFiles(t, layout)
		store := openDir(t, files)
		_, err := store.PackSegments(level)
		if !errors.Is(err, segcodec.ErrNeedsMigration) || !strings.Contains(err.Error(), fileNames(files)[0]+": text store file") ||
			!strings.Contains(err.Error(), "run provio-merge -compact first") {
			t.Errorf("%s text store: PackSegments returned %v", layout, err)
		}
		if after := storeFiles(t, store); !maps.EqualFunc(files, after, bytes.Equal) {
			t.Errorf("%s text store: a refused PackSegments changed the store", layout)
		}
		if err := store.Compact(); err != nil {
			t.Fatal(err)
		}
		trackFreshSegments(t, store, 1)
		if _, err := store.PackSegments(level); err != nil {
			t.Errorf("%s text store after Compact: %v", layout, err)
		}
	}
}
