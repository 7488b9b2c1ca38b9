package segcodec

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"

	"github.com/hpc-io/prov-io/internal/model"
	"github.com/hpc-io/prov-io/internal/rdf"
)

// TestRegistry: each codec owns its extension, and the pack container
// neither encodes nor decodes a graph — a pack is read through its header.
func TestRegistry(t *testing.T) {
	for _, want := range []struct {
		c   Codec
		ext string
	}{
		{NTriples, ".nt"}, {Turtle, ".ttl"}, {Binary, ".pbs"}, {Pack, ".psk"},
	} {
		if want.c.Ext() != want.ext {
			t.Errorf("codec %T: ext %q, want %q", want.c, want.c.Ext(), want.ext)
		}
	}
	pack, union, _ := buildPack(t, 2)
	if err := Pack.Encode(io.Discard, union, nil); err == nil {
		t.Error("Pack.Encode wrote a graph")
	}
	if err := Pack.Decode(bytes.NewReader(pack), rdf.NewGraph()); err == nil {
		t.Error("Pack.Decode read a pack as a graph")
	}
}

// TestUnknownVersionIsClassified: a segment of a version this build does not
// know is reported as exactly that — by the columnar decode, by the codec,
// and by the stats probe, while the seal probe sees no frame — and never
// read as another layout.
func TestUnknownVersionIsClassified(t *testing.T) {
	good := validSegment(t)
	for _, v := range []byte{0, pbsVersion + 1, 0x7f, 0xff} {
		data := append([]byte{}, good...)
		data[3] = v
		want := fmt.Sprintf("unsupported pbs version %d", v)
		_, err := DecodeColumns(data)
		if !errors.Is(err, ErrCorrupt) || errors.Is(err, ErrTruncated) || !strings.Contains(err.Error(), want) {
			t.Errorf("version %d: DecodeColumns returned %v, want ErrCorrupt: %s", v, err, want)
		}
		into := rdf.NewGraph()
		err = Binary.Decode(bytes.NewReader(data), into)
		if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), want) {
			t.Errorf("version %d: Binary.Decode returned %v, want ErrCorrupt: %s", v, err, want)
		}
		if into.Len() != 0 {
			t.Errorf("version %d: %d triples decoded", v, into.Len())
		}
		sealed := AppendChain(good, Chain{Root: true})
		sealed[3] = v
		if _, ok := chainOf(sealed); ok {
			t.Errorf("version %d: chainOf read a seal", v)
		}
		if _, err := StatsOf(data); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), want) {
			t.Errorf("version %d: StatsOf returned %v, want ErrCorrupt: %s", v, err, want)
		}
	}
}

// TestVersionByteSwapIsRejected: no CRC covers the version byte, so a
// current segment under an older version byte is refused as damage only
// because it carries the generation 2 stats frame no older version carries:
// readFrames refuses it before the version is looked at, so it never reads
// as a file that needs migration. And every golden an older encoder wrote,
// under any version byte, is refused by the read.
func TestVersionByteSwapIsRejected(t *testing.T) {
	ab := []rdf.Term{rdf.IRI("urn:a"), rdf.IRI("urn:b")}
	samples := map[string][]byte{
		"two-triple segment":   validSegment(t),
		"empty segment":        handBuiltSegment(t, nil, nil),
		"literal-free segment": handBuiltSegment(t, ab, [][3]uint32{{0, 1, 1}}),
		"integer-only segment": handBuiltSegment(t, append(ab, rdf.TypedLiteral("7", rdf.XSDInteger)), [][3]uint32{{0, 1, 2}}),
		"golden":               coreGolden(t, "golden_merged.pbs"),
	}
	for name, data := range samples {
		for v := byte(1); v < pbsVersion; v++ {
			swapped := append([]byte{}, data...)
			swapped[3] = v
			_, err := DecodeColumns(swapped)
			if !errors.Is(err, ErrCorrupt) || errors.Is(err, ErrNeedsMigration) || !strings.Contains(err.Error(), "stats frame: a pbs v") {
				t.Errorf("%s under version byte %d: DecodeColumns returned %v, want the stats frame's generation rule", name, v, err)
			}
		}
	}
	for v := 1; v < pbsVersion; v++ {
		data := coreGolden(t, fmt.Sprintf("golden_merged_v%d.pbs", v))
		for w := byte(1); w <= pbsVersion; w++ {
			swapped := append([]byte{}, data...)
			swapped[3] = w
			if _, err := DecodeColumns(swapped); err == nil {
				t.Errorf("golden v%d under version byte %d decoded", v, w)
			}
		}
	}
}

// sortedNT renders the canonical N-Triples bytes of a graph — the multiset
// fingerprint the round-trip assertions compare.
func sortedNT(t *testing.T, g *rdf.Graph) string {
	t.Helper()
	var buf bytes.Buffer
	if err := rdf.WriteNTriples(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// randomGraph builds a graph with adversarial term shapes: shared IRI
// prefixes (exercising front-coding), literals with quotes, escapes,
// newlines, unicode, language tags, and datatypes.
func randomGraph(rng *rand.Rand, n int) *rdf.Graph {
	g := rdf.NewGraph()
	values := []string{"plain", `with "quotes"`, "tab\there", "nl\nthere", "back\\slash", "ünïcødé 数据", ""}
	langs := []string{"", "en", "en-US"}
	dts := []string{"", rdf.XSDInteger, rdf.XSDDouble, "urn:custom:dt"}
	subj := func() rdf.Term {
		if rng.Intn(5) == 0 {
			return rdf.Blank(fmt.Sprintf("b%d", rng.Intn(8)))
		}
		return rdf.IRI(fmt.Sprintf("http://provio.example/node/%c/%d", 'a'+rng.Intn(3), rng.Intn(16)))
	}
	pred := func() rdf.Term {
		return rdf.IRI(fmt.Sprintf("http://www.w3.org/ns/prov#p%d", rng.Intn(6)))
	}
	obj := func() rdf.Term {
		switch rng.Intn(3) {
		case 0:
			return subj()
		case 1:
			return rdf.LangLiteral(values[rng.Intn(len(values))], langs[rng.Intn(len(langs))])
		default:
			return rdf.TypedLiteral(values[rng.Intn(len(values))], dts[rng.Intn(len(dts))])
		}
	}
	for i := 0; i < n; i++ {
		g.Add(rdf.Triple{S: subj(), P: pred(), O: obj()})
	}
	return g
}

// TestBinaryRoundTripProperty is the parity property of the acceptance
// criteria: for randomized graphs, the chain nt -> pbs -> nt reproduces the
// identical triple multiset (canonical N-Triples bytes are equal).
func TestBinaryRoundTripProperty(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 5+rng.Intn(120))
		want := sortedNT(t, g)

		// nt -> graph (the text leg).
		fromText := rdf.NewGraph()
		if err := NTriples.Decode(strings.NewReader(want), fromText); err != nil {
			t.Fatalf("seed %d: nt decode: %v", seed, err)
		}

		// graph -> pbs -> graph (the binary leg).
		var bin bytes.Buffer
		if err := Binary.Encode(&bin, fromText, nil); err != nil {
			t.Fatalf("seed %d: pbs encode: %v", seed, err)
		}
		fromBin := rdf.NewGraph()
		if err := Binary.Decode(bytes.NewReader(bin.Bytes()), fromBin); err != nil {
			t.Fatalf("seed %d: pbs decode: %v", seed, err)
		}

		if got := sortedNT(t, fromBin); got != want {
			t.Fatalf("seed %d: nt -> pbs -> nt changed the graph\nwant %d bytes\ngot  %d bytes", seed, len(want), len(got))
		}
		// Determinism: re-encoding yields identical bytes.
		var bin2 bytes.Buffer
		if err := Binary.Encode(&bin2, fromBin, nil); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(bin.Bytes(), bin2.Bytes()) {
			t.Fatalf("seed %d: pbs encoding is not deterministic", seed)
		}
	}
}

// TestEncodeRefsMatchesEncode pins that the ID-space fast path produces
// byte-identical segments to the term-space encoder.
func TestEncodeRefsMatchesEncode(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	g := randomGraph(rng, 200)
	refs, _ := g.RefsSince(0)

	var viaRefs, viaGraph bytes.Buffer
	if err := Binary.(RefsEncoder).EncodeRefs(&viaRefs, refs, g); err != nil {
		t.Fatal(err)
	}
	if err := Binary.Encode(&viaGraph, g, nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(viaRefs.Bytes(), viaGraph.Bytes()) {
		t.Fatalf("EncodeRefs (%d bytes) differs from Encode (%d bytes)", viaRefs.Len(), viaGraph.Len())
	}
}

// TestEncodeRefsDuplicates: refs may repeat a triple (remove + re-add keeps
// both surviving log entries); the segment must still hold the set.
func TestEncodeRefsDuplicates(t *testing.T) {
	g := rdf.NewGraph()
	tr := rdf.Triple{S: rdf.IRI("urn:s"), P: rdf.IRI("urn:p"), O: rdf.Literal("o")}
	g.Add(tr)
	refs, _ := g.RefsSince(0)
	refs = append(refs, refs[0], refs[0])

	var buf bytes.Buffer
	if err := Binary.(RefsEncoder).EncodeRefs(&buf, refs, g); err != nil {
		t.Fatal(err)
	}
	out := rdf.NewGraph()
	if err := Binary.Decode(bytes.NewReader(buf.Bytes()), out); err != nil {
		t.Fatal(err)
	}
	if out.Len() != 1 || !out.Has(tr) {
		t.Fatalf("decoded %d triples, want the 1 original", out.Len())
	}
}

func TestBinaryEmptySegment(t *testing.T) {
	var buf bytes.Buffer
	if err := Binary.Encode(&buf, rdf.NewGraph(), nil); err != nil {
		t.Fatal(err)
	}
	out := rdf.NewGraph()
	if err := Binary.Decode(bytes.NewReader(buf.Bytes()), out); err != nil {
		t.Fatal(err)
	}
	if out.Len() != 0 {
		t.Fatalf("empty segment decoded %d triples", out.Len())
	}
}

// TestBinarySmallerThanText sanity-checks the size motivation on a
// realistic record workload: front-coded dictionary + ID columns should
// undercut rendered N-Triples substantially.
func TestBinarySmallerThanText(t *testing.T) {
	g := rdf.NewGraph()
	for i := 0; i < 500; i++ {
		rec := model.IOActivityRecord{
			Class: model.Write, API: "H5Dwrite", PID: 7, Seq: i,
			Object: rdf.IRI(model.NodeIRI(model.Dataset, fmt.Sprintf("/f.h5/d%d", i))),
			Agent:  rdf.IRI(model.NodeIRI(model.Program, "prog")),
		}
		ts, _ := rec.AppendTriples(nil)
		g.AddBatch(ts)
	}
	var nt, pbs bytes.Buffer
	if err := NTriples.Encode(&nt, g, nil); err != nil {
		t.Fatal(err)
	}
	if err := Binary.Encode(&pbs, g, nil); err != nil {
		t.Fatal(err)
	}
	if pbs.Len()*2 >= nt.Len() {
		t.Errorf("pbs %d bytes vs nt %d bytes: expected at least 2x smaller", pbs.Len(), nt.Len())
	}
}

// validSegment returns an encoded two-triple segment for corruption tests.
func validSegment(t *testing.T) []byte {
	t.Helper()
	g := rdf.NewGraph()
	g.Add(rdf.Triple{S: rdf.IRI("urn:a"), P: rdf.IRI("urn:p"), O: rdf.Literal("x")})
	g.Add(rdf.Triple{S: rdf.IRI("urn:b"), P: rdf.IRI("urn:p"), O: rdf.IRI("urn:a")})
	var buf bytes.Buffer
	if err := Binary.Encode(&buf, g, nil); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestBinaryDecodeCorruption: every structural mutilation must surface
// ErrCorrupt — never a panic, never silent acceptance.
func TestBinaryDecodeCorruption(t *testing.T) {
	good := validSegment(t)
	cases := map[string][]byte{
		"empty":           {},
		"bad magic":       append([]byte("XXXX"), good[4:]...),
		"magic only":      good[:4],
		"truncated dict":  good[:6],
		"truncated mid":   good[: len(good)/2 : len(good)/2],
		"missing crc":     good[:len(good)-2],
		"trailing bytes":  append(append([]byte{}, good...), 0x00),
		"unknown version": append([]byte{'P', 'B', 'S', pbsVersion + 1}, good[4:]...),
	}
	// Flip a byte inside the dictionary payload so the CRC no longer holds.
	crcFlip := append([]byte{}, good...)
	crcFlip[8] ^= 0xFF
	cases["crc mismatch"] = crcFlip

	ab := []rdf.Term{rdf.IRI("urn:a"), rdf.IRI("urn:b")}

	// Well-framed, CRCs and stats frame consistent, rows not strictly
	// ascending (TestDecodeRejectsUnsortedRows has the variants).
	cases["rows out of order"] = handBuiltSegment(t, ab, [][3]uint32{{0, 1, 1}, {0, 1, 0}})
	cases["row repeated"] = handBuiltSegment(t, ab, [][3]uint32{{0, 1, 1}, {0, 1, 1}})

	for name, data := range cases {
		g := rdf.NewGraph()
		err := Binary.Decode(bytes.NewReader(data), g)
		if err == nil {
			t.Errorf("%s: decode accepted corrupt input", name)
			continue
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: error %v does not wrap ErrCorrupt", name, err)
		}
		if g.Len() != 0 && name != "trailing bytes" {
			// Partial state in the scratch graph is acceptable only when the
			// damage is detected after the triple block (trailing bytes).
			t.Logf("%s: note: %d triples were staged before the error", name, g.Len())
		}
	}
}

// TestBinaryTruncationExhaustive: EVERY strict prefix of a binary segment —
// sealed or unsealed — must be rejected with an error wrapping ErrCorrupt.
// The one exception is a structural frame boundary: cutting a sealed segment
// at its payload/seal boundary yields the valid unsealed payload, which the
// store auditor reports as truncated (internal/core verify). The
// cut at the end of the triple block is torn: the stats frame is part of
// the format, so it is ErrTruncated, and the seal right after the triple
// block is damage.
func TestBinaryTruncationExhaustive(t *testing.T) {
	payload := validSegment(t)
	blocks := len(stripStats(payload))
	if blocks == len(payload) {
		t.Fatal("validSegment carries no stats frame")
	}
	if _, err := DecodeColumns(payload[:blocks]); !errors.Is(err, ErrTruncated) || !strings.Contains(err.Error(), "ends before its stats frame") {
		t.Errorf("cut after the triple block: %v, want ErrTruncated", err)
	}
	noStats := AppendChain(payload[:blocks], Chain{Seq: 3, Prev: [32]byte{9}})
	if _, err := DecodeColumns(noStats); !errors.Is(err, ErrCorrupt) || errors.Is(err, ErrTruncated) || !strings.Contains(err.Error(), "carries no stats frame") {
		t.Errorf("seal after the triple block: %v, want ErrCorrupt", err)
	}
	sealed := AppendChain(payload, Chain{Seq: 3, Prev: [32]byte{9}})
	cases := []struct {
		name       string
		data       []byte
		boundaries map[int]bool // prefix lengths that legitimately decode
	}{
		{"unsealed", payload, nil},
		{"sealed", sealed, map[int]bool{len(payload): true}},
	}
	for _, tc := range cases {
		for n := 0; n < len(tc.data); n++ {
			err := Binary.Decode(bytes.NewReader(tc.data[:n]), rdf.NewGraph())
			if tc.boundaries[n] {
				if err != nil {
					t.Errorf("%s: frame-boundary prefix %d must decode as the unsealed segment: %v", tc.name, n, err)
				}
				continue
			}
			if err == nil {
				t.Fatalf("%s: prefix %d/%d accepted", tc.name, n, len(tc.data))
			}
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%s: prefix %d: error does not wrap ErrCorrupt: %v", tc.name, n, err)
			}
		}
	}
}

// TestTextTruncationExhaustive: the text codecs have no framing, so a torn
// line-oriented file may parse as a smaller valid graph. The codec-level
// contract is only: never panic, and any accepted prefix decodes to a subset
// of the full graph.
func TestTextTruncationExhaustive(t *testing.T) {
	g := rdf.NewGraph()
	g.Add(rdf.Triple{S: rdf.IRI("urn:a"), P: rdf.IRI("urn:p"), O: rdf.Literal("x")})
	g.Add(rdf.Triple{S: rdf.IRI("urn:b"), P: rdf.IRI("urn:p"), O: rdf.IRI("urn:a")})
	for _, codec := range []Codec{NTriples, Turtle} {
		var buf bytes.Buffer
		if err := codec.Encode(&buf, g, nil); err != nil {
			t.Fatal(err)
		}
		data := buf.Bytes()
		for n := 0; n < len(data); n++ {
			into := rdf.NewGraph()
			if err := codec.Decode(bytes.NewReader(data[:n]), into); err != nil {
				continue
			}
			if into.Len() > g.Len() {
				t.Fatalf("%s: prefix %d decoded MORE triples (%d) than the full file (%d)",
					codec.Ext(), n, into.Len(), g.Len())
			}
		}
	}
}

// TestBinaryDecodeRejectsInvalidTriple frames a structurally valid segment
// whose triple is not valid RDF (literal subject) and expects an error.
func TestBinaryDecodeRejectsInvalidTriple(t *testing.T) {
	// A canonical dictionary whose literal entry is used in subject position,
	// crafted through writeSegment.
	terms := []rdf.Term{rdf.IRI("urn:p"), rdf.Literal("lit")}
	var buf bytes.Buffer
	if err := writeSegment(&buf, terms, [][3]uint32{{1, 0, 0}}); err != nil {
		t.Fatal(err)
	}
	err := Binary.Decode(bytes.NewReader(buf.Bytes()), rdf.NewGraph())
	if err == nil {
		t.Fatal("decode accepted a literal-subject triple")
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("error %v does not wrap ErrCorrupt", err)
	}
}

// TestTextCodecsRoundTrip exercises the nt and ttl codecs through the same
// Codec interface the store uses.
func TestTextCodecsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomGraph(rng, 60)
	want := sortedNT(t, g)
	for _, c := range []Codec{NTriples, Turtle} {
		var buf bytes.Buffer
		if err := c.Encode(&buf, g, model.Namespaces()); err != nil {
			t.Fatalf("%s encode: %v", c.Ext(), err)
		}
		out := rdf.NewGraph()
		if err := c.Decode(bytes.NewReader(buf.Bytes()), out); err != nil {
			t.Fatalf("%s decode: %v", c.Ext(), err)
		}
		if got := sortedNT(t, out); got != want {
			t.Errorf("%s round trip changed the graph", c.Ext())
		}
	}
}
