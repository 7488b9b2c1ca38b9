package segcodec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"github.com/hpc-io/prov-io/internal/rdf"
)

// buildPack encodes n small member segments plus an opaque member (bytes
// that are not a segment) and returns the pack bytes, the member graphs' union, and entries.
func buildPack(t testing.TB, n int) ([]byte, *rdf.Graph, []PackEntry) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(n)))
	union := rdf.NewGraph()
	var entries []PackEntry
	for i := 0; i < n; i++ {
		g := randomGraph(rng, 4+rng.Intn(20))
		union.Merge(g)
		var buf bytes.Buffer
		if err := Binary.Encode(&buf, g, nil); err != nil {
			t.Fatal(err)
		}
		st, err := StatsOf(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		entries = append(entries, PackEntry{
			Name:  "prov_p000000.seg000" + string(rune('0'+i)) + ".pbs",
			Data:  buf.Bytes(),
			Stats: st,
		})
	}
	entries = append(entries, PackEntry{
		Name: "prov_p000000.seg0000.pbs.sum",
		Data: []byte("opaque bytes, not RDF"),
	})
	packStats := ComputeGraphStats(union)
	pack, err := EncodePack(1, entries, &packStats)
	if err != nil {
		t.Fatal(err)
	}
	return pack, union, entries
}

// readPack reads a pack the way the store does: its header, the file's size
// against it, then every pbs member through DecodeColumns, into one graph.
// Opaque members are skipped.
func readPack(data []byte) (*rdf.Graph, error) {
	h, err := DecodePackHeader(data)
	if err != nil {
		return nil, err
	}
	if err := h.CheckSize(int64(len(data))); err != nil {
		return nil, err
	}
	g := rdf.NewGraph()
	for _, m := range h.Members {
		if filepath.Ext(m.Name) != Binary.Ext() {
			continue
		}
		c, err := DecodeColumns(data[m.Off : m.Off+m.Size])
		if err != nil {
			return nil, fmt.Errorf("pack member %s: %w", m.Name, err)
		}
		c.materialize(g)
	}
	return g, nil
}

// TestPackRoundTrip: a pack read through its header and its members' own
// decode is the union of its RDF members, opaque members skipped; the
// header reports verbatim member extents.
func TestPackRoundTrip(t *testing.T) {
	pack, union, entries := buildPack(t, 5)

	got, err := readPack(pack)
	if err != nil {
		t.Fatal(err)
	}
	if sortedNT(t, got) != sortedNT(t, union) {
		t.Fatal("pack decode does not reproduce the member union")
	}

	h, err := DecodePackHeader(pack)
	if err != nil {
		t.Fatal(err)
	}
	if h.Level != 1 || len(h.Members) != len(entries) {
		t.Fatalf("header: level %d, %d members; want 1, %d", h.Level, len(h.Members), len(entries))
	}
	if h.Stats.Gen == 0 {
		t.Fatal("pack-level stats missing")
	}
	if h.WantSize != int64(len(pack)) {
		t.Fatalf("WantSize %d, file is %d bytes", h.WantSize, len(pack))
	}
	for i, m := range h.Members {
		if m.Name != entries[i].Name {
			t.Fatalf("member %d name %q, want %q", i, m.Name, entries[i].Name)
		}
		if !bytes.Equal(pack[m.Off:m.Off+m.Size], entries[i].Data) {
			t.Fatalf("member %d bytes are not verbatim", i)
		}
		if (entries[i].Stats != nil) != (m.Stats.Gen != 0) {
			t.Fatalf("member %d stats presence mismatch", i)
		}
	}
}

// TestPackHeaderFromPrefix: the lazy-read path parses the header from a
// prefix of the file; too-short prefixes classify as truncated.
func TestPackHeaderFromPrefix(t *testing.T) {
	pack, _, _ := buildPack(t, 4)
	full, err := DecodePackHeader(pack)
	if err != nil {
		t.Fatal(err)
	}
	if full.BodyOff >= int64(len(pack)) {
		t.Fatal("pack has no body")
	}
	h, err := DecodePackHeader(pack[:full.BodyOff])
	if err != nil {
		t.Fatalf("header-only prefix rejected: %v", err)
	}
	if len(h.Members) != len(full.Members) || h.WantSize != full.WantSize {
		t.Fatal("prefix-parsed header differs from full parse")
	}
	for n := 0; n < int(full.BodyOff); n++ {
		if _, err := DecodePackHeader(pack[:n]); err == nil {
			t.Fatalf("header prefix %d/%d accepted", n, full.BodyOff)
		} else if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("prefix %d: error %v does not wrap ErrCorrupt", n, err)
		}
	}
}

// TestPackCorruption: structural damage anywhere in the pack yields a
// classified error from its header, its size check or a member's decode,
// never wrong answers or panics.
func TestPackCorruption(t *testing.T) {
	pack, _, _ := buildPack(t, 3)
	if _, err := readPack(pack[:len(pack)-3]); !errors.Is(err, ErrTruncated) {
		t.Fatalf("truncated pack: %v, want ErrTruncated", err)
	}
	if _, err := readPack(append(append([]byte{}, pack...), 1)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("trailing byte: %v, want ErrCorrupt", err)
	}
	for _, off := range []int{5, 9, 20, len(pack) / 2, len(pack) - 8} {
		mut := append([]byte{}, pack...)
		mut[off] ^= 0xFF
		_, err := readPack(mut)
		if err == nil {
			// A flip inside an opaque member's bytes is invisible to a read
			// (those bytes are skipped); anywhere else it must fail.
			h, herr := DecodePackHeader(pack)
			if herr != nil {
				t.Fatal(herr)
			}
			opaque := false
			for _, m := range h.Members {
				if m.Name == "prov_p000000.seg0000.pbs.sum" &&
					int64(off) >= m.Off && int64(off) < m.Off+m.Size {
					opaque = true
				}
			}
			if !opaque {
				t.Fatalf("flip at %d accepted", off)
			}
			continue
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flip at %d: error %v does not wrap ErrCorrupt", off, err)
		}
	}
}

// TestPackRejectsNestedPack: packs cannot contain packs.
func TestPackRejectsNestedPack(t *testing.T) {
	inner, _, _ := buildPack(t, 2)
	_, err := EncodePack(2, []PackEntry{{Name: "prov_pack.l01.0000.psk", Data: inner}}, nil)
	if err == nil {
		t.Fatal("nested pack accepted")
	}
}

// TestPackEncodeRejectsLevelZero: L0 is by definition the loose-segment
// tier; encoding a pack claiming it is invalid.
func TestPackEncodeRejectsLevelZero(t *testing.T) {
	if _, err := EncodePack(0, nil, nil); err == nil {
		t.Fatal("level-0 pack accepted")
	}
}

// wrappingPack is the regression of member sizes that wrap the running int64
// offset: 2⁶³ and 2⁶³+4 bring it back to 4 bytes past the header, so until
// the header rejected them it promised exactly the length of this file, and
// every reader that sliced a member by its extent panicked.
func wrappingPack() []byte {
	h := binary.AppendUvarint(nil, 1) // level
	h = binary.AppendUvarint(h, 2)
	for i, size := range []uint64{1 << 63, 1<<63 + 4} {
		name := fmt.Sprintf("prov_p000000.seg%04d.pbs", i)
		h = binary.AppendUvarint(h, uint64(len(name)))
		h = append(h, name...)
		h = binary.AppendUvarint(h, size)
		h = binary.AppendUvarint(h, 0) // no member stats
	}
	h = binary.AppendUvarint(h, 0) // no pack stats
	return append(appendFrame(slices.Clone(pskMagic), h), 1, 2, 3, 4)
}

// TestPackHeaderRejectsWrappingSizes: a member size that carries the running
// offset past int64 is ErrCorrupt, from the header parse.
func TestPackHeaderRejectsWrappingSizes(t *testing.T) {
	pack := wrappingPack()
	if _, err := DecodePackHeader(pack); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "member 0 size 9223372036854775808 overflows") {
		t.Fatalf("DecodePackHeader returned %v, want ErrCorrupt naming member 0's size", err)
	}
}

// FuzzPackHeader: parsing a pack header never panics, and neither does
// reading the pack through it; an accepted header's extents are non-negative and
// contiguous from BodyOff to WantSize; and an accepted header is what
// EncodePack writes — given the members' bytes, their stats and the level it
// reports, EncodePack reproduces the file byte for byte.
func FuzzPackHeader(f *testing.F) {
	pack, _, _ := buildPack(f, 3)
	f.Add(pack)
	h, err := DecodePackHeader(pack)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(pack[:h.BodyOff]) // the lazy path's prefix
	for _, name := range []string{"golden_demo_pack.psk", "legacy_pbs_v1/packed/prov_pack.l01.0000.psk", "legacy_pbs_v4/packed/prov_pack.l01.0000.psk"} {
		f.Add(coreGolden(f, name))
	}
	f.Add(wrappingPack())
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = readPack(data)
		h, err := DecodePackHeader(data)
		if err != nil {
			return
		}
		off := h.BodyOff
		for i, m := range h.Members {
			if m.Off != off || m.Size < 0 {
				t.Fatalf("member %d at [%d, +%d), want it to start at %d", i, m.Off, m.Size, off)
			}
			off += m.Size
		}
		if off != h.WantSize || off < h.BodyOff {
			t.Fatalf("members end at %d, WantSize %d, body at %d", off, h.WantSize, h.BodyOff)
		}
		if h.WantSize > int64(len(data)) {
			return // a prefix: the members are not here to re-encode
		}
		entries := make([]PackEntry, len(h.Members))
		for i, m := range h.Members {
			entries[i] = PackEntry{Name: m.Name, Data: data[m.Off : m.Off+m.Size]}
			if m.Stats.Gen != 0 {
				entries[i].Stats = &h.Members[i].Stats
			}
		}
		var union *SegStats
		if h.Stats.Gen != 0 {
			union = &h.Stats
		}
		re, err := EncodePack(h.Level, entries, union)
		if err != nil {
			t.Fatalf("EncodePack refuses an accepted header: %v", err)
		}
		if !bytes.Equal(re, data[:h.WantSize]) {
			t.Fatal("EncodePack of an accepted header's members writes other bytes")
		}
	})
}

// TestCheckPackStats: a pack header's stats are held to its members'
// contents: each member's own frame, and the union of the contents. Any
// header that says other than the contents do is refused, naming what it
// says; a header whose stats are generation 1, which only an older build
// wrote, does not decode: it needs migration, and is no damage.
func TestCheckPackStats(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var members []*Columns
	var entries []PackEntry
	for i := 0; i < 4; i++ {
		g := randomGraph(rng, 4+rng.Intn(20))
		g.Add(rdf.Triple{S: rdf.IRI("urn:s"), P: rdf.IRI("urn:at"), O: rdf.Integer(int64(i) - 2)})
		var buf bytes.Buffer
		if err := Binary.Encode(&buf, g, nil); err != nil {
			t.Fatal(err)
		}
		c, err := DecodeColumns(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		members = append(members, c)
		entries = append(entries, PackEntry{Name: fmt.Sprintf("prov_p000000.seg%04d.pbs", i), Data: buf.Bytes(), Stats: c.Stats})
	}
	encode := func(entries []PackEntry, union *SegStats) []byte {
		t.Helper()
		pack, err := EncodePack(1, entries, union)
		if err != nil {
			t.Fatal(err)
		}
		return pack
	}
	check := func(what string, entries []PackEntry, union *SegStats, want string) *PackHeader {
		t.Helper()
		h, err := DecodePackHeader(encode(entries, union))
		if err != nil {
			t.Fatal(err)
		}
		err = CheckPackStats(h, members, 2)
		if want == "" && err != nil || want != "" && (err == nil || !strings.Contains(err.Error(), want)) {
			t.Errorf("%s: CheckPackStats returned %v, want %q", what, err, want)
		}
		return h
	}
	union := UnionStats(members, 2)
	h := check("as packed", entries, &union, "")
	if h.Stats.Gen != staGenRange || !h.Stats.NumOK || h.Stats.NumMin != -2 || h.Stats.NumMax != 1 {
		t.Errorf("union: generation %d, range %v [%d, %d]; want generation 2 over [-2, 1]", h.Stats.Gen, h.Stats.NumOK, h.Stats.NumMin, h.Stats.NumMax)
	}

	edited := func(edit func(es []PackEntry)) []PackEntry {
		es := slices.Clone(entries)
		edit(es)
		return es
	}
	empty := union
	empty.Triples = 0
	check("union that holds no triples", entries, &empty, "pack-level stats differ from the union")
	blind := union
	blind.NumMax = 0
	check("union whose range stops short", entries, &blind, "pack-level stats differ from the union")
	check("no union", entries, nil, "no pack-level stats")
	check("member stats of another member", edited(func(es []PackEntry) { es[0].Stats = es[2].Stats }), &union,
		"member prov_p000000.seg0000.pbs: header stats differ")
	check("member stats dropped", edited(func(es []PackEntry) { es[1].Stats = nil }), &union,
		"member prov_p000000.seg0001.pbs carries no stats")

	older := union
	older.Gen = staGenBloom
	olderMember := *entries[2].Stats
	olderMember.Gen = staGenBloom
	for what, pack := range map[string][]byte{
		"generation 1 union":  encode(entries, &older),
		"generation 1 member": encode(edited(func(es []PackEntry) { es[2].Stats = &olderMember }), &union),
	} {
		if _, err := DecodePackHeader(pack); !errors.Is(err, ErrNeedsMigration) || errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: DecodePackHeader returned %v, want ErrNeedsMigration", what, err)
		}
	}
}
