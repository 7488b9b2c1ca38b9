package core

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"maps"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"github.com/hpc-io/prov-io/internal/faultfs"
	"github.com/hpc-io/prov-io/internal/model"
	"github.com/hpc-io/prov-io/internal/rdf"
	"github.com/hpc-io/prov-io/internal/rdf/segcodec"
	"github.com/hpc-io/prov-io/internal/vfs"
)

// The fixtures under testdata/legacy_text are the text store the last build
// that wrote one wrote (internal/tools/mkstore -format ttl -records 24, and
// provio-merge -compact -level 1 on a copy, with provio-verify -write-heads
// beside each): a Turtle canonical file, N-Triples delta segments, and a .sum
// file sealing each, loose and packed. textLayout spells a pbs store the
// same way, which TestLegacyTextWriterIsTheFixture holds it to, so the
// matrices can hand this build a text store of any history and damage and
// hold every path to the refusal.

// layouts are what a test store holds: "pbs", what the store writes, and
// "ttl" and "nt", the text stores older builds wrote (Turtle or N-Triples
// canonical files, N-Triples segments, .sum files), which every path
// refuses.
var layouts = []string{"ttl", "nt", "pbs"}

// asLayout returns a pbs store snapshot as the layout holds the same
// history.
func asLayout(t testing.TB, files map[string][]byte, layout string) map[string][]byte {
	t.Helper()
	switch layout {
	case "ttl":
		return textLayout(t, files, segcodec.Turtle)
	case "nt":
		return textLayout(t, files, segcodec.NTriples)
	}
	return files
}

// textLayout returns a pbs store snapshot as the text store builds before
// pbs-only wrote for the same history: every canonical file and delta
// segment becomes the same triples as text — a canonical file in the
// canonical codec, a segment in N-Triples — beside a .sum file carrying the
// pbs seal's chain fields, its prev translated to the digest of the text
// file its predecessor became. Packs stay as they are.
func textLayout(t testing.TB, files map[string][]byte, canonical segcodec.Codec) map[string][]byte {
	t.Helper()
	type seal struct {
		name   string
		chain  segcodec.Chain
		size   int
		digest [32]byte
	}
	out := make(map[string][]byte, 2*len(files))
	twin := make(map[[32]byte][32]byte, len(files)) // pbs file digest -> its text file's digest
	var seals []seal
	for name, data := range files {
		n, ok := parseStoreName(name)
		if !ok || n.kind == kindPack {
			out[name] = data
			continue
		}
		cols, err := segcodec.DecodeColumns(data)
		if err != nil {
			t.Fatal(err)
		}
		g := rdf.NewGraph()
		if err := segcodec.Binary.Decode(bytes.NewReader(data), g); err != nil {
			t.Fatal(err)
		}
		codec := segcodec.NTriples
		if n.kind == kindCanonical {
			codec = canonical
		}
		var text bytes.Buffer
		if err := codec.Encode(&text, g, model.Namespaces()); err != nil {
			t.Fatal(err)
		}
		name = strings.TrimSuffix(name, segcodec.Binary.Ext()) + codec.Ext()
		out[name] = text.Bytes()
		digest := fileDigest(text.Bytes())
		twin[fileDigest(data)] = digest
		if cols.Chain != nil {
			seals = append(seals, seal{name, *cols.Chain, text.Len(), digest})
		}
	}
	for _, s := range seals {
		if d, ok := twin[s.chain.Prev]; ok {
			s.chain.Prev = d
		}
		out[s.name+".sum"] = marshalSidecar(s.chain, int64(s.size), s.digest)
	}
	return out
}

// marshalSidecar renders the .sum document older builds wrote beside a
// text file of n bytes: its chain fields, its digest, and a CRC32 of every
// line above the last.
func marshalSidecar(c segcodec.Chain, n int64, digest [32]byte) []byte {
	kind := "segment"
	if c.Root {
		kind = "root"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "provio-chain v1\n")
	fmt.Fprintf(&b, "kind: %s\n", kind)
	fmt.Fprintf(&b, "seq: %d\n", c.Seq)
	fmt.Fprintf(&b, "bytes: %d\n", n)
	fmt.Fprintf(&b, "sha256: %s\n", hex.EncodeToString(digest[:]))
	fmt.Fprintf(&b, "prev: %s\n", hex.EncodeToString(c.Prev[:]))
	fmt.Fprintf(&b, "check: %08x\n", crc32.ChecksumIEEE([]byte(b.String())))
	return []byte(b.String())
}

// legacyTextFiles reads the committed text store of a layout.
func legacyTextFiles(t *testing.T, layout string) (map[string][]byte, map[int][32]byte) {
	t.Helper()
	return readFixtureStore(t, filepath.Join("testdata", "legacy_text", layout))
}

// checkRefused holds every path over a store only an older build wrote, or
// one holding such a file, to one refusal — ErrNeedsMigration naming the
// build that migrates it, never damage — with every byte of the store left
// as it was: reads (eager, pruned, lazy), Verify and VerifyAgainst,
// Compact, PackSegments, and a tracker's first write.
func checkRefused(t *testing.T, what string, store *Store) {
	t.Helper()
	before := storeFiles(t, store)
	pruner := &SegmentPruner{Patterns: []PrunePattern{{P: termPtr(model.WasWrittenBy.IRI())}}}
	paths := []struct {
		op  string
		run func() error
	}{
		{"Merge", func() error { _, err := store.Merge(); return err }},
		{"MergePruned", func() error { _, _, err := store.MergePruned(pruner, 2); return err }},
		{"OpenLazy", func() error { _, err := store.OpenLazy(CacheConfig{}); return err }},
		{"Verify", func() error { _, err := store.Verify(); return err }},
		{"VerifyAgainst", func() error { _, err := store.VerifyAgainst(map[int][32]byte{0: {}}); return err }},
		{"Compact", store.Compact},
		{"PackSegments level 1", func() error { _, err := store.PackSegments(1); return err }},
		{"PackSegments level 3", func() error { _, err := store.PackSegments(3); return err }},
		{"first write", func() error {
			tr := NewTracker(DefaultConfig(), store, 0)
			tr.RegisterUser("late")
			return tr.Close()
		}},
	}
	for _, p := range paths {
		err := p.run()
		if !errors.Is(err, segcodec.ErrNeedsMigration) || errors.Is(err, segcodec.ErrCorrupt) ||
			!strings.Contains(err.Error(), migratingBuild) {
			t.Errorf("%s: %s returned %v, want ErrNeedsMigration naming %q", what, p.op, err, migratingBuild)
		}
	}
	if after := storeFiles(t, store); !maps.EqualFunc(before, after, bytes.Equal) {
		t.Errorf("%s: a refused path changed the store: %v", what, fileNames(after))
	}
}

// TestLegacyTextWriterIsTheFixture: the demo history spelled by textLayout
// is the committed loose text store byte for byte, so the text stores the
// matrices build are the stores older builds wrote.
func TestLegacyTextWriterIsTheFixture(t *testing.T) {
	want, _ := legacyTextFiles(t, "loose")
	got := asLayout(t, storeFiles(t, demoStore(t, VFSBackend{View: vfs.NewStore().NewView()})), "ttl")
	if !slices.Equal(fileNames(got), fileNames(want)) {
		t.Fatalf("writer wrote %v, the fixture holds %v", fileNames(got), fileNames(want))
	}
	for name, data := range want {
		if !bytes.Equal(got[name], data) {
			t.Errorf("%s: the writer's %d bytes differ from the fixture's %d", name, len(got[name]), len(data))
		}
	}
}

// TestLegacyTextTakesFreshSegments: a text canonical file takes no fresh
// segments any more. A periodic tracker opened on the text store's
// canonical file, for its own pid or a new one, fails its first flush with
// ErrNeedsMigration naming the migrating build, and its Close reports it,
// instead of chaining pbs files onto the text file; the store is left as it
// was.
func TestLegacyTextTakesFreshSegments(t *testing.T) {
	files, _ := legacyTextFiles(t, "loose")
	canonical := map[string][]byte{}
	for name, data := range files {
		if !strings.Contains(name, ".seg") {
			canonical[name] = data
		}
	}
	for _, pid := range []int{0, 1} {
		store := openDir(t, canonical)
		cfg := DefaultConfig()
		cfg.Mode, cfg.FlushEvery = ModePeriodic, 1
		tr := NewTracker(cfg, store, pid)
		prog := tr.RegisterProgram("late.exe", tr.RegisterUser("late"))
		tr.TrackIO(model.Read, "H5Dread", prog, rdf.Term{}, 0, 0)
		err := tr.Drain() // the periodic delta flush FlushEvery = 1 set off
		if !errors.Is(err, segcodec.ErrNeedsMigration) || !strings.Contains(err.Error(), migratingBuild) {
			t.Fatalf("pid %d: first flush returned %v, want ErrNeedsMigration naming %q", pid, err, migratingBuild)
		}
		if err := tr.Close(); !errors.Is(err, segcodec.ErrNeedsMigration) {
			t.Errorf("pid %d: Close returned %v, want ErrNeedsMigration", pid, err)
		}
		if after := storeFiles(t, store); !maps.EqualFunc(canonical, after, bytes.Equal) {
			t.Errorf("pid %d: the refused tracker changed the store: %v", pid, fileNames(after))
		}
	}
}

// TestPackSegmentsRefusesText: a pack takes pbs files only, so a store
// holding text files, loose or beside an older pack, is refused at every
// level, naming its first text file and the migrating build, with every
// byte of the store left as it was.
func TestPackSegmentsRefusesText(t *testing.T) {
	for _, layout := range []string{"loose", "packed"} {
		files, _ := legacyTextFiles(t, layout)
		for level := 1; level <= 2; level++ {
			store := openDir(t, files)
			_, err := store.PackSegments(level)
			if !errors.Is(err, segcodec.ErrNeedsMigration) || !strings.Contains(err.Error(), fileNames(files)[0]+": text store file") ||
				!strings.Contains(err.Error(), migratingBuild) {
				t.Errorf("%s text store, level %d: PackSegments returned %v", layout, level, err)
			}
			if after := storeFiles(t, store); !maps.EqualFunc(files, after, bytes.Equal) {
				t.Errorf("%s text store, level %d: a refused PackSegments changed the store", layout, level)
			}
		}
	}
}

// textCrashSweep crashes the writing of a text store of the layout — the
// files an older build wrote for two processes' histories, written one by
// one onto a substrate of the kind — at every mutating-operation boundary,
// torn variants included. Recovering such a store is the migrating build's
// work: whatever a crash left, every path of this build, Compact's recovery
// among them, refuses it with ErrNeedsMigration and changes no byte. Only a
// crash before the first file leaves a store they take, the empty one.
func textCrashSweep(t *testing.T, layout, kind string) {
	t.Helper()
	src := newBinaryVFSStore(t)
	smallHistory(t, src, 0)
	smallHistory(t, src, 1)
	files := asLayout(t, storeFiles(t, src), layout)
	names := fileNames(files)
	cfg := CrashSweepConfig{Backend: kind}

	// write writes the text store onto a fresh substrate under the fault
	// injector, and returns the injector and the reopened substrate.
	write := func(arm func(*faultfs.FS)) (*faultfs.FS, Backend) {
		inner, reopen, cleanup, err := cfg.newInner()
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(cleanup)
		fs := faultfs.New(inner, 1)
		arm(fs)
		if err := fs.MkdirAll("/prov"); err == nil {
			for _, name := range names {
				if fs.WriteFile("/prov/"+name, files[name]) != nil {
					break
				}
			}
		}
		after, err := reopen()
		if err != nil {
			t.Fatal(err)
		}
		return fs, after
	}
	probe, _ := write(func(*faultfs.FS) {})
	var muts []faultfs.Op
	for _, op := range probe.Trace() {
		switch op.Kind {
		case faultfs.OpMkdir, faultfs.OpWrite, faultfs.OpRemove:
			muts = append(muts, op)
		}
	}
	points, refused := 0, 0
	for k, op := range muts {
		torns := []int{0}
		if op.Kind == faultfs.OpWrite && op.Size > 1 {
			torns = append(torns, op.Size/2, op.Size-1)
		}
		for _, torn := range torns {
			points++
			fs, after := write(func(fs *faultfs.FS) { fs.CrashAt(k, torn) })
			if !fs.Crashed() {
				t.Fatalf("op %d torn %d: crash never fired", k, torn)
			}
			store, err := NewStore(after, "/prov", FormatBinary)
			if err != nil {
				t.Fatal(err)
			}
			if left, err := after.List("/prov"); err != nil || len(left) == 0 {
				continue // the crash came before the first file
			}
			checkRefused(t, fmt.Sprintf("op %d (%v %s) torn %d", k, op.Kind, op.Path, torn), store)
			refused++
		}
	}
	t.Logf("%s text store crash sweep on %s: %d ops, %d points: %d refused, %d empty", layout, kind, len(muts), points, refused, points-refused)
	if refused == 0 {
		t.Fatal("no crash point left a text file")
	}
}

// textDamage returns a copy of a text store with the file name damaged at
// byte i, or nil where the damage does not apply.
type textDamage func(files map[string][]byte, name string, i int) map[string][]byte

var (
	flipped textDamage = func(files map[string][]byte, name string, i int) map[string][]byte {
		data := append([]byte(nil), files[name]...)
		data[i] ^= 1 << (i % 8)
		return withFile(files, name, data)
	}
	truncated textDamage = func(files map[string][]byte, name string, i int) map[string][]byte {
		return withFile(files, name, files[name][:i:i])
	}
	deleted textDamage = func(files map[string][]byte, name string, i int) map[string][]byte {
		if i != 0 {
			return nil
		}
		return withFile(files, name, nil)
	}
	// tornTail cuts the newest segment, the torn write Compact recovers
	// from in a pbs store.
	tornTail textDamage = func(files map[string][]byte, name string, i int) map[string][]byte {
		if name != "prov_p000000.seg0002.nt" {
			return nil
		}
		return withFile(files, name, files[name][:i:i])
	}
)

// checkTextDamageRefused damages smallHistory's store in the ttl layout,
// held by a backend of the kind — every file at its first, middle and last
// byte — and holds each damaged copy to checkRefused: a store an older
// build wrote is refused as needing migration whatever happened to its
// bytes, never judged as damage.
func checkTextDamageRefused(t *testing.T, kind string, damage textDamage) {
	t.Helper()
	src := newBinaryVFSStore(t)
	smallHistory(t, src, 0)
	clean := asLayout(t, storeFiles(t, src), "ttl")
	damaged := 0
	for _, name := range fileNames(clean) {
		n := len(clean[name])
		for _, i := range []int{0, n / 2, n - 1} {
			if files := damage(clean, name, i); files != nil {
				checkRefused(t, fmt.Sprintf("%s at byte %d", name, i), openSnapshotOn(t, kind, files))
				damaged++
			}
		}
	}
	if damaged == 0 {
		t.Fatal("the damage applied to no file")
	}
}
