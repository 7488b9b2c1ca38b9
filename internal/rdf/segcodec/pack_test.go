package segcodec

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"github.com/hpc-io/prov-io/internal/rdf"
)

// buildPack encodes n small member segments plus an opaque sidecar-like
// member and returns the pack bytes, the member graphs' union, and entries.
func buildPack(t *testing.T, n int) ([]byte, *rdf.Graph, []PackEntry) {
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
		st, ok := StatsOf(buf.Bytes())
		if !ok {
			t.Fatal("member has no stats")
		}
		entries = append(entries, PackEntry{
			Name:  "prov_p000000.seg000" + string(rune('0'+i)) + ".pbs",
			Data:  buf.Bytes(),
			Stats: &st,
		})
	}
	entries = append(entries, PackEntry{
		Name: "prov_p000000.seg0000.pbs.sum",
		Data: []byte("opaque sidecar bytes, not RDF"),
	})
	packStats := ComputeGraphStats(union)
	pack, err := EncodePack(1, entries, &packStats)
	if err != nil {
		t.Fatal(err)
	}
	return pack, union, entries
}

// TestPackRoundTrip: a pack decodes (through the registered codec machinery)
// to the union of its RDF members, opaque members skipped; the header
// reports verbatim member extents.
func TestPackRoundTrip(t *testing.T) {
	pack, union, entries := buildPack(t, 5)

	if c := Detect(pack); c.Name() != "psk" {
		t.Fatalf("Detect(pack) = %s, want psk", c.Name())
	}
	got := rdf.NewGraph()
	if err := Pack.Decode(bytes.NewReader(pack), got); err != nil {
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
	if !h.HasStats {
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
		if (entries[i].Stats != nil) != m.HasStats {
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
// classified error from Decode, never wrong answers or panics.
func TestPackCorruption(t *testing.T) {
	pack, _, _ := buildPack(t, 3)
	if err := Pack.Decode(bytes.NewReader(pack[:len(pack)-3]), rdf.NewGraph()); !errors.Is(err, ErrTruncated) {
		t.Fatalf("truncated pack: %v, want ErrTruncated", err)
	}
	if err := Pack.Decode(bytes.NewReader(append(append([]byte{}, pack...), 1)), rdf.NewGraph()); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("trailing byte: %v, want ErrCorrupt", err)
	}
	for _, off := range []int{5, 9, 20, len(pack) / 2, len(pack) - 8} {
		mut := append([]byte{}, pack...)
		mut[off] ^= 0xFF
		err := Pack.Decode(bytes.NewReader(mut), rdf.NewGraph())
		if err == nil {
			// A flip inside an opaque member's bytes is invisible to Decode
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
