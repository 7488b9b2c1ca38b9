package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"github.com/hpc-io/prov-io/internal/rdf"
	"github.com/hpc-io/prov-io/internal/rdf/segcodec"
)

// The fixtures under testdata/legacy_pbs_vN and testdata/legacy_text, and the
// goldens testdata/golden_merged_vN.pbs, are the only bytes of the layouts
// older builds wrote: the last commit whose encoder wrote each wrote them
// (internal/tools/mkstore -records 24, and provio-merge -compact -level 1 on
// a copy, with provio-verify -write-heads beside each). This build reads and
// audits none of them: they stay, byte for byte, as the corpus every path
// refuses.

// migratingBuild is what every refusal names: the commit whose
// provio-merge -compact migrates an older store.
const migratingBuild = "provio-merge -compact built from commit 93a6ed8"

// olderFixtures returns every committed store an older build wrote, by
// name: each legacy store, loose and packed ("v1/loose" … "text/packed"),
// and each older golden as the one canonical file of a store.
func olderFixtures(t *testing.T) map[string]map[string][]byte {
	t.Helper()
	out := map[string]map[string][]byte{}
	for _, layout := range []string{"loose", "packed"} {
		for v := 1; v <= 4; v++ {
			out[fmt.Sprintf("v%d/%s", v, layout)], _ = legacyStoreFiles(t, v, layout)
		}
		out["text/"+layout], _ = legacyTextFiles(t, layout)
	}
	for v := 1; v <= 4; v++ {
		out[fmt.Sprintf("golden_merged_v%d", v)] = map[string][]byte{canonicalName(0).String(): olderGolden(t, v)}
	}
	return out
}

// legacyStoreFiles reads the committed store pbs version v wrote in a
// layout, and its recorded heads.
func legacyStoreFiles(t *testing.T, v int, layout string) (map[string][]byte, map[int][32]byte) {
	t.Helper()
	return readFixtureStore(t, filepath.Join("testdata", fmt.Sprintf("legacy_pbs_v%d", v), layout))
}

// olderGolden reads the golden segment pbs version v wrote.
func olderGolden(t *testing.T, v int) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", fmt.Sprintf("golden_merged_v%d.pbs", v)))
	if err != nil {
		t.Fatal(err)
	}
	return data
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

// TestLegacyReadable: every store an older build wrote — each older pbs
// version and text, loose and packed, on every backend, and each older
// golden — is refused by every path with ErrNeedsMigration naming the build
// that migrates it, never as damage, and left byte for byte as it was
// (checkRefused).
func TestLegacyReadable(t *testing.T) {
	for name, files := range olderFixtures(t) {
		t.Run(name, func(t *testing.T) {
			for _, kind := range []string{"vfs", "mem", "file", "mount"} {
				checkRefused(t, kind, openSnapshotOn(t, kind, files))
			}
		})
	}
}

// TestPackSegmentsRefusesOlderMembers: PackSegments writes packs of current
// members only. On a store of any older version, loose or packed, with
// segments this build wrote beside it, it names the first older file (the
// canonical one) and the migrating build at every level, and leaves every
// byte of the store as it was.
func TestPackSegmentsRefusesOlderMembers(t *testing.T) {
	fresh := newBinaryVFSStore(t)
	trackFreshSegments(t, fresh, 1)
	for v := 1; v <= 4; v++ {
		for _, layout := range []string{"loose", "packed"} {
			files, _ := legacyStoreFiles(t, v, layout)
			maps.Copy(files, storeFiles(t, fresh))
			for level := 1; level <= 2; level++ {
				store := openDir(t, files)
				_, err := store.PackSegments(level)
				if !errors.Is(err, segcodec.ErrNeedsMigration) || !strings.Contains(err.Error(), fmt.Sprintf("prov_p000000.pbs: pbs v%d file", v)) ||
					!strings.Contains(err.Error(), migratingBuild) {
					t.Errorf("version %d %s store, level %d: PackSegments returned %v", v, layout, level, err)
				}
				if after := storeFiles(t, store); !maps.EqualFunc(files, after, bytes.Equal) {
					t.Errorf("version %d %s store, level %d: a refused PackSegments changed the store", v, layout, level)
				}
			}
		}
	}
}

// TestLegacyGoldensAreTheFixtures: the golden segment each older encoder
// wrote stays in testdata, golden_merged_vN.pbs, as a refusal fixture: the
// graph decode, the columnar decode and the stats probe each refuse it with
// ErrNeedsMigration naming the migrating build, never as damage, while the
// current golden decodes to golden_merged.nt. (Each older encoder's demo
// pack and heads are the packed legacy_pbs_vN store's, which
// TestLegacyReadable refuses.)
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
	if !bytes.Equal(ntBytes(t, cur), read("golden_merged.nt")) {
		t.Error("golden_merged.pbs does not decode to golden_merged.nt")
	}
	for v := 1; v <= 4; v++ {
		data := olderGolden(t, v)
		if data[3] != byte(v) {
			t.Fatalf("golden_merged_v%d.pbs carries version byte %d", v, data[3])
		}
		_, cerr := segcodec.DecodeColumns(data)
		_, serr := segcodec.StatsOf(data)
		for op, err := range map[string]error{
			"Binary.Decode": segcodec.Binary.Decode(bytes.NewReader(data), rdf.NewGraph()),
			"DecodeColumns": cerr,
			"StatsOf":       serr,
		} {
			if !errors.Is(err, segcodec.ErrNeedsMigration) || errors.Is(err, segcodec.ErrCorrupt) ||
				!strings.Contains(err.Error(), migratingBuild) {
				t.Errorf("golden_merged_v%d.pbs: %s returned %v, want ErrNeedsMigration naming %q", v, op, err, migratingBuild)
			}
		}
	}
}

// TestEncoderWritesCurrentVersion: no path writes an older layout — the two
// codec entry points, a tracker's Close, a delta flush, PackSegments (whose
// members are the flushes' bytes) and Compact.
func TestEncoderWritesCurrentVersion(t *testing.T) {
	const current = 5
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
		if b.Bytes()[3] != current {
			t.Errorf("%s wrote version %d", name, b.Bytes()[3])
		}
	}

	check := func(what string, store *Store) {
		t.Helper()
		segments := pbsSegments(t, storeFiles(t, store))
		if len(segments) == 0 {
			t.Fatalf("%s: no binary file to look at", what)
		}
		for name, seg := range segments {
			if seg[3] != current {
				t.Errorf("%s: %s is version %d", what, name, seg[3])
			}
		}
	}
	fresh := newBinaryVFSStore(t)
	smallHistory(t, fresh, 0) // a Close and three delta flushes
	check("Close and delta flushes", fresh)
	if _, err := fresh.PackSegments(1); err != nil {
		t.Fatal(err)
	}
	check("PackSegments", fresh)
	if err := fresh.Compact(); err != nil {
		t.Fatal(err)
	}
	check("Compact", fresh)
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

// stripChain returns a binary segment without its trailing chain frame, the
// file a write cut before its seal leaves; other bytes come back unchanged.
func stripChain(data []byte) []byte {
	if !bytes.HasPrefix(data, []byte("PBS")) {
		return data
	}
	for off, frame := 4, 0; off < len(data); frame++ {
		n, k := binary.Uvarint(data[off:])
		end := off + k + int(n) + 4
		if k <= 0 || end > len(data) {
			return data
		}
		if frame >= 2 && end == len(data) && bytes.HasPrefix(data[off+k:], []byte("CHN\x01")) {
			return data[:off]
		}
		off = end
	}
	return data
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
