package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"maps"
	"os"
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

// The fixtures under testdata/legacy_pbs_vN are the only version N bytes
// there are: the last commit whose encoder wrote version N wrote them
// (internal/tools/mkstore -format pbs -records 24, and provio-merge -compact
// -level 1 on a copy, with provio-verify -write-heads beside each), and
// nothing in this repository can write those layouts again.

// legacyVersions lists every pbs version older than the one this build
// writes, each of which has a committed store.
func legacyVersions() []byte {
	var vs []byte
	for v := byte(1); v < segcodec.PBSVersion; v++ {
		vs = append(vs, v)
	}
	return vs
}

// legacyStoreFiles reads one committed store of an older version and its
// recorded heads.
func legacyStoreFiles(t *testing.T, version byte, layout string) (files map[string][]byte, heads map[int][32]byte) {
	t.Helper()
	dir := filepath.Join("testdata", fmt.Sprintf("legacy_pbs_v%d", version), layout)
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

// trackFreshSegments leaves a few sealed delta segments of a new process in
// the store — what a tracker of this build adds to a store of any generation.
func trackFreshSegments(t *testing.T, store *Store, pid int) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Mode = ModePeriodic
	cfg.FlushEvery = 5
	cfg.Duration = true
	tr := NewTracker(cfg, store, pid)
	prog := tr.RegisterProgram("fresh.exe", tr.RegisterUser("demo-user"))
	for i := 0; i < 10; i++ {
		obj := tr.TrackDataObject(model.File, fmt.Sprintf("/data/f%d", i%8), "", rdf.Term{}, prog)
		tr.TrackIO(model.Read, "H5Dread", obj, prog, time.Duration(i)*time.Millisecond, time.Microsecond)
	}
	if err := tr.Drain(); err != nil {
		t.Fatal(err)
	}
}

// storeAnswers is everything a reader can ask of a store, as bytes: the eager
// merge, the out-of-core view at three budgets (queries and materialization),
// a Table 5 select, an aggregate, and a 2-hop lineage reduction.
func storeAnswers(t *testing.T, store *Store) map[string][]byte {
	t.Helper()
	queries := map[string]string{
		"select": `SELECT ?obj ?api ?prog WHERE {
			?obj provio:wasWrittenBy ?api .
			?api prov:wasAssociatedWith ?prog .
		}`,
		"aggregate": `SELECT ?class (COUNT(?api) AS ?n) WHERE {
			?api a ?class ; prov:wasMemberOf prov:Activity .
		} GROUP BY ?class ORDER BY ?class`,
	}
	root := []rdf.Term{rdf.IRI(model.NodeIRI(model.File, "/data/f0"))}

	out := map[string][]byte{}
	merged, _, err := store.MergePruned(nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	out["merge"] = ntBytes(t, merged)
	for name, q := range queries {
		out["eager "+name] = queryBytes(t, merged.Snapshot(), q, 2)
	}
	out["eager lineage"] = ntBytes(t, ReduceLineage(merged, root, 2))

	unbounded, err := store.OpenLazy(CacheConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := unbounded.MaterializeGraph(2); err != nil {
		t.Fatal(err)
	}
	total := unbounded.Stats().ResidentBytes
	for _, view := range []struct {
		tag    string
		budget int64
	}{{"lazy@1B", 1}, {"lazy@half", total / 2}, {"lazy@inf", 0}} {
		v, err := store.OpenLazy(CacheConfig{MaxBytes: view.budget})
		if err != nil {
			t.Fatal(err)
		}
		tag := view.tag
		src := v.Source(nil)
		for name, q := range queries {
			out[tag+" "+name] = queryBytes(t, src, q, 2)
			if err := src.Err(); err != nil {
				t.Fatalf("%s %s: %v", tag, name, err)
			}
		}
		g, _, err := v.MaterializeGraph(2)
		if err != nil {
			t.Fatal(err)
		}
		out[tag+" merge"] = ntBytes(t, g)
		hops, _, err := v.ReduceLineagePruned(root, 2, 2)
		if err != nil {
			t.Fatal(err)
		}
		out[tag+" lineage"] = ntBytes(t, hops)
	}
	return out
}

func sameAnswers(t *testing.T, what string, got, want map[string][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d answers, want %d", what, len(got), len(want))
	}
	for k, w := range want {
		if len(w) == 0 {
			t.Fatalf("%s: reference answer %q is empty", what, k)
		}
		if !bytes.Equal(got[k], w) {
			t.Errorf("%s: %q differs (%d bytes, want %d)", what, k, len(got[k]), len(w))
		}
	}
}

// pbsSegments returns every binary segment of a store snapshot, pack members
// included, by file or "pack!member" name; a segment's byte 3 is its format
// version.
func pbsSegments(t *testing.T, files map[string][]byte) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	for name, data := range files {
		switch filepath.Ext(name) {
		case segcodec.Binary.Ext():
			out[name] = data
		case segcodec.Pack.Ext():
			h, err := segcodec.DecodePackHeader(data)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range h.Members {
				out[name+"!"+m.Name] = data[m.Off : m.Off+m.Size]
			}
		}
	}
	return out
}

func fileNames(files map[string][]byte) []string {
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	slices.Sort(names)
	return names
}

func totalBytes(files map[string][]byte) (n int) {
	for _, data := range files {
		n += len(data)
	}
	return n
}

// TestLegacyReadable: a store written in any older pbs version reads,
// verifies and answers exactly like the same history written today — loose
// or packed, eagerly or out of core — and so does its Compact rewrite (which
// is the migration, and at least 40 % smaller) and a pack an older build
// wrote with the generations mixed inside it, on every backend.
func TestLegacyReadable(t *testing.T) {
	for _, v := range legacyVersions() {
		for _, layout := range []string{"loose", "packed"} {
			t.Run(fmt.Sprintf("v%d/%s", v, layout), func(t *testing.T) { checkLegacyReadable(t, v, layout) })
		}
	}
}

func checkLegacyReadable(t *testing.T, legacyVersion byte, layout string) {
	files, heads := legacyStoreFiles(t, legacyVersion, layout)
	segments := pbsSegments(t, files)
	for name, seg := range segments {
		if seg[3] != legacyVersion {
			t.Fatalf("fixture %s is version %d, want %d", name, seg[3], legacyVersion)
		}
	}

	// The same history, written by this build.
	twin := demoStore(t, VFSBackend{View: vfs.NewStore().NewView()})
	if layout == "packed" {
		if _, err := twin.PackSegments(1); err != nil {
			t.Fatal(err)
		}
	}
	twinFiles := storeFiles(t, twin)
	if !slices.Equal(fileNames(files), fileNames(twinFiles)) {
		t.Fatalf("fixture holds %v, its twin %v", fileNames(files), fileNames(twinFiles))
	}
	for name, data := range files {
		old, cur := rdf.NewGraph(), rdf.NewGraph()
		if err := segcodec.Detect(data).Decode(bytes.NewReader(data), old); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := segcodec.Detect(twinFiles[name]).Decode(bytes.NewReader(twinFiles[name]), cur); err != nil {
			t.Fatalf("twin %s: %v", name, err)
		}
		if old.Len() == 0 || !bytes.Equal(ntBytes(t, old), ntBytes(t, cur)) {
			t.Errorf("%s decodes to %d triples, its version %d twin to %d, or to others", name, old.Len(), segcodec.PBSVersion, cur.Len())
		}
	}
	// Every segment, loose or packed, shrinks, and so does the store. (The
	// demo's delta segments hold no literal, so a version 4 dictionary spent
	// one byte more on them than version 3, its run count 0; the version 5
	// stats frame more than makes up for it.)
	twinSegments := pbsSegments(t, twinFiles)
	if !slices.Equal(fileNames(segments), fileNames(twinSegments)) {
		t.Fatalf("fixture holds segments %v, its twin %v", fileNames(segments), fileNames(twinSegments))
	}
	for name, seg := range segments {
		if n := len(twinSegments[name]); n >= len(seg) {
			t.Errorf("%s: %d bytes in version %d, %d in version %d", name, len(seg), legacyVersion, n, segcodec.PBSVersion)
		}
	}
	if before, now := totalBytes(files), totalBytes(twinFiles); now >= before {
		t.Errorf("%d bytes in version %d, %d in version %d", before, legacyVersion, now, segcodec.PBSVersion)
	}

	store := openDir(t, files)
	rep, err := store.VerifyAgainst(heads)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("version %d store against its recorded heads: %v", legacyVersion, rep.Defects)
	}
	if rep.LegacyPBS() != 3 || rep.PBSVersions[legacyVersion] != 3 || len(rep.PBSVersions) != 1 {
		t.Errorf("audit counted versions %v, want 3 files of version %d", rep.PBSVersions, legacyVersion)
	}
	if twinRep := mustVerify(t, twin); twinRep.LegacyPBS() != 0 || twinRep.PBSVersions[segcodec.PBSVersion] != 3 {
		t.Errorf("twin's audit counted versions %v", twinRep.PBSVersions)
	}
	want := storeAnswers(t, twin)
	sameAnswers(t, fmt.Sprintf("version %d store", legacyVersion), storeAnswers(t, store), want)

	// Compact is the migration: same answers, current version, smaller.
	rewrite := openDir(t, files)
	if err := rewrite.Compact(); err != nil {
		t.Fatal(err)
	}
	rewritten := storeFiles(t, rewrite)
	for name, seg := range pbsSegments(t, rewritten) {
		if seg[3] != segcodec.PBSVersion {
			t.Errorf("Compact left %s in version %d", name, seg[3])
		}
	}
	if rep := mustVerify(t, rewrite); !rep.Clean() || rep.LegacyPBS() != 0 {
		t.Errorf("rewrite: defects %v, %d legacy file(s)", rep.Defects, rep.LegacyPBS())
	}
	sameAnswers(t, "Compact rewrite", storeAnswers(t, rewrite), want)
	if before, after := totalBytes(files), totalBytes(rewritten); after*10 > before*6 {
		t.Errorf("rewrite is %d bytes of %d: less than 40 %% smaller", after, before)
	}

	// Both generations in one store, then in one pack as the build before
	// PackSegments refused older members wrote it: the fixture plus segments
	// this build tracks, against the twin plus the same packed by this build.
	mixed := openDir(t, files)
	trackFreshSegments(t, mixed, 1)
	trackFreshSegments(t, twin, 1)
	before, err := mixed.Verify()
	if err != nil || !before.Clean() {
		t.Fatalf("mixed store: %v %v", err, before.Defects)
	}
	level := 1
	if layout == "packed" {
		level = 2 // the fixture's segments already sit in a level-1 pack
	}
	mixedFiles, pack := encodeMixedPack(t, storeFiles(t, mixed), level)
	if _, err := twin.PackSegments(level); err != nil {
		t.Fatal(err)
	}
	members := map[byte]int{}
	for name, seg := range pbsSegments(t, mixedFiles) {
		if strings.HasPrefix(name, pack+"!") {
			members[seg[3]]++
		}
	}
	if members[legacyVersion] != 2 || members[segcodec.PBSVersion] < 2 {
		t.Fatalf("pack %s holds members by version %v, want both generations", pack, members)
	}
	want = storeAnswers(t, twin)

	// The mixed pack on every substrate: verbatim copies keep the heads
	// recorded before packing. Folding it one level up is refused until
	// Compact rewrites its older members.
	for _, kind := range []string{"vfs", "mem", "file", "mount"} {
		moved := openSnapshotOn(t, kind, mixedFiles)
		rep, err := moved.VerifyAgainst(before.Heads)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Clean() || rep.LegacyPBS() != 3 || !maps.Equal(rep.PBSVersions, before.PBSVersions) {
			t.Fatalf("%s: defects %v, versions %v (were %v)", kind, rep.Defects, rep.PBSVersions, before.PBSVersions)
		}
		if kind == "mount" {
			sameAnswers(t, "mixed pack on "+kind, storeAnswers(t, moved), want)
		}
		if _, err := moved.PackSegments(level + 1); err == nil || !strings.Contains(err.Error(), "provio-merge -compact") {
			t.Fatalf("%s: re-pack of older members returned %v", kind, err)
		}
	}
	moved := openSnapshotOn(t, "vfs", mixedFiles)
	sameAnswers(t, "mixed pack", storeAnswers(t, moved), want)
	if err := moved.Compact(); err != nil {
		t.Fatal(err)
	}
	if rep := mustVerify(t, moved); !rep.Clean() || rep.LegacyPBS() != 0 {
		t.Fatalf("Compact of the mixed pack: defects %v, %d legacy file(s)", rep.Defects, rep.LegacyPBS())
	}
	sameAnswers(t, "Compact of the mixed pack", storeAnswers(t, moved), want)
}

// encodeMixedPack folds every delta segment of a store snapshot, loose or in
// a pack, into one new pack of the level, as PackSegments did before it
// refused older members: each member's own stats frame in the header, and
// the generation 2 union of the members' contents. It returns the snapshot
// with the pack in the segments' place, and the pack's name.
func encodeMixedPack(t *testing.T, files map[string][]byte, level int) (map[string][]byte, string) {
	t.Helper()
	out, segs := map[string][]byte{}, map[string][]byte{}
	for name, data := range files {
		switch _, seg, _, _ := parseStoreName(name); {
		case filepath.Ext(name) == segcodec.Pack.Ext():
		case seg >= 0:
			segs[name] = data
		default:
			out[name] = data
		}
	}
	for name, seg := range pbsSegments(t, files) {
		if _, member, inPack := strings.Cut(name, "!"); inPack {
			segs[member] = seg
		}
	}
	var entries []segcodec.PackEntry
	var contents []*segcodec.Columns
	for _, name := range fileNames(segs) {
		c, err := segcodec.DecodeColumns(segs[name])
		if err != nil {
			t.Fatal(err)
		}
		entries = append(entries, segcodec.PackEntry{Name: name, Data: segs[name], Stats: c.Stats})
		contents = append(contents, c)
	}
	union := segcodec.UnionStats(contents, 2)
	pack, err := segcodec.EncodePack(level, entries, &union)
	if err != nil {
		t.Fatal(err)
	}
	name := packName(level, 0)
	out[name] = pack
	return out, name
}

// TestPackSegmentsRefusesOlderMembers: PackSegments writes packs of current
// members only. On a store of any older version, loose or packed, with
// segments this build tracked beside it, it names an older file and the
// migration, and leaves every byte of the store as it was; once Compact has
// rewritten the store, it packs.
func TestPackSegmentsRefusesOlderMembers(t *testing.T) {
	for _, v := range legacyVersions() {
		for level, layout := range []string{1: "loose", 2: "packed"} {
			if layout == "" {
				continue
			}
			files, _ := legacyStoreFiles(t, v, layout)
			store := openDir(t, files)
			trackFreshSegments(t, store, 1)
			before := storeFiles(t, store)
			_, err := store.PackSegments(level)
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("prov_p000000.seg0000.pbs is pbs v%d", v)) ||
				!strings.Contains(err.Error(), "run provio-merge -compact first") {
				t.Errorf("version %d %s store: PackSegments returned %v", v, layout, err)
			}
			if after := storeFiles(t, store); !maps.EqualFunc(before, after, bytes.Equal) {
				t.Errorf("version %d %s store: a refused PackSegments changed the store", v, layout)
			}
			if err := store.Compact(); err != nil {
				t.Fatal(err)
			}
			trackFreshSegments(t, store, 2)
			if _, err := store.PackSegments(level); err != nil {
				t.Errorf("version %d %s store after Compact: %v", v, layout, err)
			}
			if rep := mustVerify(t, store); !rep.Clean() || rep.LegacyPBS() != 0 {
				t.Errorf("version %d %s store packed after Compact: defects %v, %d legacy file(s)", v, layout, rep.Defects, rep.LegacyPBS())
			}
		}
	}
}

// TestLegacyGoldensAreTheFixtures: the golden segment each older encoder
// wrote stays in testdata as a read fixture, golden_merged_vN.pbs, and
// decodes to the graph its successor decodes to. (Each older encoder's demo
// pack and heads are the packed legacy_pbs_vN store's, which
// TestLegacyReadable reads.)
func TestLegacyGoldensAreTheFixtures(t *testing.T) {
	read := func(name string) []byte {
		data, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	cur := rdf.NewGraph()
	if err := segcodec.Binary.Decode(bytes.NewReader(read("golden_merged.pbs")), cur); err != nil {
		t.Fatal(err)
	}
	for _, v := range legacyVersions() {
		golden := func(base, ext string) string { return fmt.Sprintf("%s_v%d%s", base, v, ext) }
		old := rdf.NewGraph()
		if err := segcodec.Binary.Decode(bytes.NewReader(read(golden("golden_merged", ".pbs"))), old); err != nil {
			t.Fatal(err)
		}
		if old.Len() == 0 || !bytes.Equal(ntBytes(t, old), ntBytes(t, cur)) {
			t.Errorf("%s and golden_merged.pbs decode to different graphs", golden("golden_merged", ".pbs"))
		}
		if !bytes.Equal(ntBytes(t, old), read("golden_merged.nt")) {
			t.Errorf("%s does not decode to golden_merged.nt", golden("golden_merged", ".pbs"))
		}
	}
}

// TestEncoderWritesCurrentVersion: no path writes the old layout — the three
// codec entry points, a tracker's Close, a delta flush, PackSegments (whose
// members are the flushes' bytes) and Compact, on a fresh store and on top of
// a store of every older version.
func TestEncoderWritesCurrentVersion(t *testing.T) {
	g := rdf.NewGraph()
	g.Add(rdf.Triple{S: rdf.IRI("urn:s"), P: rdf.IRI("urn:p"), O: rdf.TypedLiteral("1", rdf.XSDInteger)})
	refs, _ := g.RefsSince(0)
	var enc, encRefs bytes.Buffer
	if err := segcodec.Binary.Encode(&enc, g, nil); err != nil {
		t.Fatal(err)
	}
	if err := segcodec.Binary.(segcodec.RefsEncoder).EncodeRefs(&encRefs, refs, g); err != nil {
		t.Fatal(err)
	}
	for name, b := range map[string]*bytes.Buffer{"Encode": &enc, "EncodeRefs": &encRefs} {
		if b.Bytes()[3] != segcodec.PBSVersion {
			t.Errorf("%s wrote version %d", name, b.Bytes()[3])
		}
	}

	check := func(what string, store *Store, skip map[string][]byte) {
		t.Helper()
		files := storeFiles(t, store)
		for name, data := range skip {
			if bytes.Equal(files[name], data) {
				delete(files, name) // a fixture file nothing has rewritten yet
			}
		}
		segments := pbsSegments(t, files)
		if len(segments) == 0 {
			t.Fatalf("%s: no binary file to look at", what)
		}
		for name, seg := range segments {
			if seg[3] != segcodec.PBSVersion {
				t.Errorf("%s: %s is version %d", what, name, seg[3])
			}
		}
	}
	fresh := newBinaryVFSStore(t)
	smallHistory(t, fresh, 0) // a Close and three delta flushes
	check("Close and delta flushes", fresh, nil)
	if _, err := fresh.PackSegments(1); err != nil {
		t.Fatal(err)
	}
	check("PackSegments", fresh, nil)
	if err := fresh.Compact(); err != nil {
		t.Fatal(err)
	}
	check("Compact", fresh, nil)

	for _, v := range legacyVersions() {
		legacy, _ := legacyStoreFiles(t, v, "loose")
		onTop := openDir(t, legacy)
		trackFreshSegments(t, onTop, 1)
		if err := onTop.WriteDeltaSegmentRefs(2, 0, refs, rdf.NewTermRenderer(g)); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("tracking into a version %d store", v), onTop, legacy)
		if err := onTop.Compact(); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("Compact of a version %d store", v), onTop, nil)

		// An older canonical file with nothing to fold is still rewritten.
		alone := openDir(t, map[string][]byte{"prov_p000000.pbs": legacy["prov_p000000.pbs"]})
		if err := alone.Compact(); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("Compact of a lone version %d canonical file", v), alone, nil)
		if rep := mustVerify(t, alone); !rep.Clean() {
			t.Errorf("rewritten version %d canonical file: %v", v, rep.Defects)
		}
	}
}

// statsFrameAt returns where a binary segment's stats frame starts and ends:
// the frame after the dictionary and triple blocks.
func statsFrameAt(t *testing.T, data []byte) (start, end int) {
	t.Helper()
	end = 4 // magic and version byte
	var payload []byte
	for range 3 {
		n, k := binary.Uvarint(data[end:])
		start, end = end, end+k+int(n)+4
		payload = data[start+k : end-4]
	}
	if !bytes.HasPrefix(payload, []byte("STA")) {
		t.Fatal("the segment carries no stats frame")
	}
	return start, end
}
