package core

import (
	"bytes"
	"fmt"
	"path/filepath"
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
		canonicalName(1_000_000): "prov_p1000000.pbs",
		segmentName(7, 10_000):   "prov_p000007.seg10000.pbs",
		packName(100, 10_000):    "prov_pack.l100.10000.psk",
		packName(1, 0):           "prov_pack.l01.0000.psk",
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
		n, ok := parseStoreName(name)
		if !ok {
			return
		}
		if got := n.String(); got != name {
			t.Fatalf("parse(%q) = %+v, which formats as %q", name, n, got)
		}
		if !claimedRE.MatchString(name) {
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
	plants = append(plants, plant{name: segmentName(1, 0), file: "prov_pack.l1.0.psk"})
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
