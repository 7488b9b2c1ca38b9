package core

import (
	"bytes"
	"fmt"
	"io/fs"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"github.com/hpc-io/prov-io/internal/model"
	"github.com/hpc-io/prov-io/internal/rdf"
	"github.com/hpc-io/prov-io/internal/rdf/segcodec"
	"github.com/hpc-io/prov-io/internal/vfs"
)

// provFiles returns the backend paths of the store's provenance files —
// canonical files, segments and packs — in listing order.
func provFiles(t testing.TB, s *Store) []string {
	t.Helper()
	l, err := s.listLayout()
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, f := range l.files {
		out = append(out, s.path(f.name))
	}
	return out
}

// TestStoreNameRoundTrip: the grammar's parser inverts its formatter for
// every value, past each number's padding width too, and rejects the near
// misses of every form.
func TestStoreNameRoundTrip(t *testing.T) {
	var names []storeName
	for _, pid := range []int{0, 999_999, 1_000_000} {
		names = append(names, storeName{kind: kindCanonical, pid: pid, seg: -1})
		for _, seg := range []int{0, 9_999, 10_000, 123_456} {
			names = append(names, storeName{kind: kindSegment, pid: pid, seg: seg})
		}
	}
	for _, level := range []int{1, 99, 100} {
		for _, seq := range []int{0, 10_000} {
			names = append(names, storeName{kind: kindPack, level: level, seq: seq})
		}
	}
	for _, want := range names {
		got, ok := parseStoreName(want.String())
		if !ok || got != want {
			t.Errorf("parse(%q) = %+v, %v; want %+v", want.String(), got, ok, want)
		}
	}
	for name, want := range map[string]string{
		canonicalName(1_000_000).String(): "prov_p1000000.pbs",
		segmentName(7, 10_000).String():   "prov_p000007.seg10000.pbs",
		packName(100, 10_000):             "prov_pack.l100.10000.psk",
		packName(1, 0):                    "prov_pack.l01.0000.psk",
	} {
		if name != want {
			t.Errorf("formatted %q, want %q", name, want)
		}
	}
	for _, name := range []string{
		"prov_p1.pbs", "prov_p0000001.pbs", "prov_p000001.seg1.pbs", "prov_pack.l1.0.psk",
		"prov_p000001.pbs.pbs", "prov_p000001.psk", "prov_p000001.seg00001.pbs", "prov_pack.l01.0000.psk.sum",
		"prov_pack.l001.0000.psk", "prov_pack.l01.0000.pbs", "prov_p000001.sum", "prov_p000001", "prov_p-00001.pbs", "prov_p000001.pbs.sum",
		"prov_p000001.seg.pbs", "prov_merged.pbs", "prov_p000000.pbs.tmp3", "prov_p+00001.pbs",
		"prov_p000001.ttl", "prov_p000001.seg0000.nt", "prov_p000001.ttl.sum",
	} {
		if n, ok := parseStoreName(name); ok {
			t.Errorf("parse(%q) accepted %+v", name, n)
		}
	}
}

// TestStoreNameFormatsLikeSprintf: the formatter spells every number the
// way %0<width>d does, at and past its width and below zero.
func TestStoreNameFormatsLikeSprintf(t *testing.T) {
	for _, v := range []int{0, 1, 9, 10, 99, 100, 9_999, 10_000, 999_999, 1_000_000, 123_456_789, -1, -10, -99_999, -100_000, -1_234_567} {
		for _, c := range []struct {
			name storeName
			want string
		}{
			{storeName{kind: kindCanonical, pid: v, seg: -1}, fmt.Sprintf("prov_p%06d.pbs", v)},
			{storeName{kind: kindSegment, pid: v, seg: v}, fmt.Sprintf("prov_p%06d.seg%04d.pbs", v, v)},
			{storeName{kind: kindPack, level: v, seq: v}, fmt.Sprintf("prov_pack.l%02d.%04d.psk", v, v)},
		} {
			if got := c.name.String(); got != c.want {
				t.Errorf("%+v formats as %q, want %q", c.name, got, c.want)
			}
		}
	}
	s := &Store{prefix: "/prov/"}
	if got, want := s.namePath(storeName{kind: kindSegment, pid: 3, seg: 12}), "/prov/prov_p000003.seg0012.pbs"; got != want {
		t.Errorf("namePath = %q, want %q", got, want)
	}
}

// TestStorePathIsJoin: a store's path of a file name is filepath.Join of its
// directory and the name, slash-separated, for every directory spelling.
func TestStorePathIsJoin(t *testing.T) {
	for _, dir := range []string{"", ".", "/", "/prov", "/prov/", "prov", "./prov", "a/../prov", "//prov//x/", ".."} {
		s := &Store{prefix: dirPrefix(dir)}
		for _, name := range []string{"prov_p000001.pbs", "prov_pack.l01.0000.psk", "x"} {
			if got, want := s.path(name), filepath.ToSlash(filepath.Join(dir, name)); got != want {
				t.Errorf("dir %q: path(%q) = %q, want %q", dir, name, got, want)
			}
		}
	}
}

// The patterns the listing's name tests replaced, which they must match
// name for name.
var (
	claimedRE = regexp.MustCompile(`^prov_p.*\.(?:pbs|psk)$`)
	olderRE   = regexp.MustCompile(`^prov_p.*\.(?:ttl|nt)(?:\.sum)?$`)
)

// TestNameTestsMatchPatterns: olderName refuses, and claimedName claims,
// exactly the names the patterns match — every file of the committed older
// stores, the grammar's names, and their near misses.
func TestNameTestsMatchPatterns(t *testing.T) {
	names := []string{
		"prov_px.nt", "prov_p000001.ttl.sum.x", "prov_p000001.seg0000.pbs",
		"prov_p.nt", "prov_p.ttl.sum", "prov_p.sum", "prov_p", "prov_.nt", "xprov_p1.nt",
		"prov_p1.NT", "prov_p1.ttl.sum.sum", "prov_p1.nt.sum\n", "prov_p\n1.nt", "prov_p1\n.ttl.sum",
		"prov_p1.sum.nt", "prov_p1.ttlx", "prov_p1.xnt", "prov_p\xff\xfe.nt", "prov_p1\r.nt",
		"prov_p.pbs", "prov_p.psk", "prov_p1\n.pbs", "prov_p1.pbs.sum", "prov_pack.l01.0000.psk",
		"prov_merged.pbs", "prov_p000000.pbs.tmp3", "prov_p\xff.psk",
	}
	for _, dir := range []string{"legacy_pbs_v1", "legacy_pbs_v2", "legacy_pbs_v3", "legacy_pbs_v4", "legacy_text"} {
		err := filepath.WalkDir(filepath.Join("testdata", dir), func(path string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() {
				names = append(names, d.Name())
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	older := 0
	for _, name := range names {
		if got, want := olderName(name) != nil, olderRE.MatchString(name); got != want {
			t.Errorf("olderName(%q) refuses: %v, pattern matches: %v", name, got, want)
		} else if got {
			older++
		}
		if got, want := claimedName(name), claimedRE.MatchString(name); got != want {
			t.Errorf("claimedName(%q) = %v, pattern matches: %v", name, got, want)
		}
	}
	if older < 10 {
		t.Errorf("only %d of %d names are a text store's: the older stores went missing", older, len(names))
	}
}

// FuzzStoreName: a name the parser accepts formats back to itself, and a
// name it rejects is one no formatter call produced.
func FuzzStoreName(f *testing.F) {
	for _, seed := range []string{
		"prov_p000000.pbs", "prov_p1000000.seg10000.nt.sum", "prov_pack.l01.0000.psk",
		"prov_pack.l100.10000.psk", "prov_p1.pbs", "prov_p0000001.pbs", "prov_p000001.pbs.pbs",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, name string) {
		if (olderName(name) != nil) != olderRE.MatchString(name) || claimedName(name) != claimedRE.MatchString(name) {
			t.Fatalf("%q: the name tests and the patterns disagree", name)
		}
		n, ok := parseStoreName(name)
		if !ok {
			return
		}
		if got := n.String(); got != name {
			t.Fatalf("parse(%q) = %+v, which formats as %q", name, n, got)
		}
		if !claimedName(name) {
			t.Fatalf("%q parses but does not claim to be a store name", name)
		}
	})
}

// TestParseHeadsRoundTrip: every pid FormatHeads writes parses back, the
// seven-digit ones included.
func TestParseHeadsRoundTrip(t *testing.T) {
	rep := &VerifyReport{Heads: map[int][32]byte{}}
	for i, pid := range []int{0, 7, 999_999, 1_000_000} {
		rep.Heads[pid] = [32]byte{byte(i + 1), 0xab}
	}
	heads, err := ParseHeads(rep.FormatHeads())
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(heads) != fmt.Sprint(rep.Heads) {
		t.Fatalf("ParseHeads(FormatHeads()) = %v, want %v", heads, rep.Heads)
	}
	for _, bad := range []string{"p1 00", "p0000001 00", "q000001 00", "p000001"} {
		if _, err := ParseHeads([]byte(bad)); err == nil {
			t.Errorf("ParseHeads(%q) accepted", bad)
		}
	}
}

// trackFreshSegments leaves a few sealed delta segments of a new process in
// the store.
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

// TestLayoutAgreement: the audit, the eager and lazy reads, Levels and
// TotalBytes see one file and unit set on the golden demo-pack store and a
// fresh store with packs and loose segments.
func TestLayoutAgreement(t *testing.T) {
	stores := map[string]map[string][]byte{}
	demo := demoStore(t, VFSBackend{View: vfs.NewStore().NewView()})
	if _, err := demo.PackSegments(1); err != nil {
		t.Fatal(err)
	}
	stores["golden demo pack"] = storeFiles(t, demo)
	fresh := newBinaryVFSStore(t)
	for pid := 0; pid < 3; pid++ {
		smallHistory(t, fresh, pid)
	}
	if _, err := fresh.PackSegments(1); err != nil {
		t.Fatal(err)
	}
	trackFreshSegments(t, fresh, 3)
	if _, err := fresh.PackSegments(2); err != nil {
		t.Fatal(err)
	}
	trackFreshSegments(t, fresh, 4)
	stores["fresh packed"] = storeFiles(t, fresh)

	for what, files := range stores {
		store := openDir(t, files)
		rep := mustVerify(t, store)
		if !rep.Clean() {
			t.Fatalf("%s: %v", what, rep.Defects)
		}
		_, st, err := store.MergePruned(nil, 2)
		if err != nil {
			t.Fatal(err)
		}
		view, err := store.OpenLazy(CacheConfig{})
		if err != nil {
			t.Fatal(err)
		}
		levels, err := store.Levels()
		if err != nil {
			t.Fatal(err)
		}
		levelUnits, levelBytes := 0, int64(0)
		for _, l := range levels {
			levelUnits += l.Units
			levelBytes += l.Bytes
		}
		total, err := store.TotalBytes()
		if err != nil {
			t.Fatal(err)
		}
		var fileBytes int64 // what a plain extension match calls provenance
		for n, data := range files {
			switch filepath.Ext(n) {
			case ".pbs", ".psk":
				fileBytes += int64(len(data))
			}
		}
		if rep.Files != st.Units || len(view.layout.units) != st.Units || levelUnits != st.Units {
			t.Errorf("%s: Verify %d files, merge %d units, lazy view %d units, Levels %d units",
				what, rep.Files, st.Units, len(view.layout.units), levelUnits)
		}
		if total != fileBytes || levelBytes != fileBytes {
			t.Errorf("%s: TotalBytes %d, Levels %d bytes, files %d bytes", what, total, levelBytes, fileBytes)
		}
		if what == "golden demo pack" && rep.Packs != 1 {
			t.Errorf("%s: %d packs", what, rep.Packs)
		}
	}
}

// TestOutOfGrammarNamesAreOrphans: a valid pbs file planted under a name the
// grammar rejects — loose, or as a pack member — is decoded by no read and
// reported by Verify as orphaned.
func TestOutOfGrammarNamesAreOrphans(t *testing.T) {
	planted := rdf.Triple{S: rdf.IRI("urn:planted"), P: rdf.IRI("urn:p"), O: rdf.IRI("urn:o")}
	g := rdf.NewGraph()
	g.Add(planted)
	var buf bytes.Buffer
	if err := segcodec.Binary.Encode(&buf, g, nil); err != nil {
		t.Fatal(err)
	}
	pbs := buf.Bytes()
	cols, err := segcodec.DecodeColumns(pbs)
	if err != nil {
		t.Fatal(err)
	}
	packOf := func(member string) []byte {
		t.Helper()
		union := segcodec.UnionStats([]*segcodec.Columns{cols}, 1)
		pack, err := segcodec.EncodePack(1, []segcodec.PackEntry{{Name: member, Data: pbs, Stats: cols.Stats}}, &union)
		if err != nil {
			t.Fatal(err)
		}
		return pack
	}
	base := newBinaryVFSStore(t)
	smallHistory(t, base, 0)
	clean := storeFiles(t, base)

	type plant struct{ name, file string }
	var plants []plant
	for _, n := range []string{"prov_p1.pbs", "prov_p0000001.pbs", "prov_p000001.seg1.pbs", "prov_p000001.pbs.pbs", "prov_p000000.seg10000.pbs.pbs"} {
		plants = append(plants, plant{name: n, file: n}, plant{name: n, file: packName(1, 0)})
	}
	plants = append(plants, plant{name: segmentName(1, 0).String(), file: "prov_pack.l1.0.psk"})
	for _, p := range plants {
		what, data := p.name, pbs
		if p.file != p.name {
			what, data = p.file+"!"+p.name, packOf(p.name)
		}
		store := openDir(t, withFile(clean, p.file, data))
		for _, merged := range []func() (*rdf.Graph, error){
			store.Merge,
			func() (*rdf.Graph, error) {
				v, err := store.OpenLazy(CacheConfig{})
				if err != nil {
					return nil, err
				}
				g, _, err := v.MaterializeGraph(2)
				return g, err
			},
		} {
			g, err := merged()
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			if g.Has(planted) {
				t.Errorf("%s: a read decoded the planted file", what)
			}
		}
		rep := mustVerify(t, store)
		if rep.Worst() != DefectOrphaned || len(rep.Defects) != 1 || rep.Defects[0].Name != p.file {
			t.Errorf("%s: Verify defects %v, want one orphaned finding on %s", what, rep.Defects, p.file)
		}
		if err := store.Compact(); err == nil {
			t.Errorf("%s: Compact ran over an orphaned store file", what)
		}
	}
}

// TestSegmentsPastTenThousand: an unclosed tracker that wrote more than 10 000
// delta segments is audited, compacted and merged whole by a fresh store —
// segment numbers grow past their four-digit padding.
func TestSegmentsPastTenThousand(t *testing.T) {
	const records = 10_006
	backend := VFSBackend{View: vfs.NewStore().NewView()}
	store, err := NewStore(backend, "/prov", FormatBinary)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Mode = ModePeriodic
	cfg.FlushEvery = 1
	cfg.Pipeline = PipelineDelta
	tr := NewTracker(cfg, store, 0)
	for i := 0; i < records; i++ {
		tr.TrackIO(model.Write, "H5Dwrite", rdf.Term{}, rdf.Term{}, 0, 0)
	}
	if err := tr.Drain(); err != nil {
		t.Fatal(err)
	}
	want := ntBytes(t, tr.Graph())

	fresh, err := NewStore(backend, "/prov", FormatBinary)
	if err != nil {
		t.Fatal(err)
	}
	rep := mustVerify(t, fresh)
	if !rep.Clean() || rep.Segments != tr.segSeq || rep.Segments <= 10_000 {
		t.Fatalf("Verify: %d segments of %d written, defects %v", rep.Segments, tr.segSeq, rep.Defects)
	}
	if err := fresh.Compact(); err != nil {
		t.Fatal(err)
	}
	got, err := fresh.Merge()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ntBytes(t, got), want) {
		t.Fatalf("Compact then Merge kept %d of %d tracked triples", got.Len(), tr.Graph().Len())
	}
}
