package segcodec

import (
	"bytes"
	"errors"
	"slices"
	"strings"
	"testing"

	"github.com/hpc-io/prov-io/internal/rdf"
)

func sealedSegment(t *testing.T, c Chain) []byte {
	t.Helper()
	g := rdf.NewGraph()
	g.Add(rdf.Triple{S: rdf.IRI("urn:a"), P: rdf.IRI("urn:p"), O: rdf.Literal("x")})
	g.Add(rdf.Triple{S: rdf.IRI("urn:b"), P: rdf.IRI("urn:p"), O: rdf.Literal("y")})
	var buf bytes.Buffer
	if err := Binary.Encode(&buf, g, nil); err != nil {
		t.Fatal(err)
	}
	return AppendChain(buf.Bytes(), c)
}

func TestChainRoundTrip(t *testing.T) {
	want := Chain{Root: true, Seq: 7}
	for i := range want.Prev {
		want.Prev[i] = byte(i * 3)
	}
	data := sealedSegment(t, want)

	got, ok := chainOf(data)
	if !ok {
		t.Fatal("chainOf: no chain found in sealed segment")
	}
	if got != want {
		t.Fatalf("chainOf = %+v, want %+v", got, want)
	}
	if want.PrevIsZero() {
		t.Fatal("PrevIsZero true for non-zero prev")
	}
	if !(Chain{}).PrevIsZero() {
		t.Fatal("PrevIsZero false for zero prev")
	}

	// A sealed file must still decode, and stripping the seal must recover
	// the exact unsealed bytes.
	into := rdf.NewGraph()
	if err := Binary.Decode(bytes.NewReader(data), into); err != nil {
		t.Fatalf("Decode of sealed segment: %v", err)
	}
	if into.Len() != 2 {
		t.Fatalf("sealed segment decoded %d triples, want 2", into.Len())
	}
	stripped := stripChain(data)
	var re bytes.Buffer
	if err := Binary.Encode(&re, into, nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stripped, re.Bytes()) {
		t.Fatal("stripChain does not recover the canonical encoding")
	}
	if _, ok := chainOf(stripped); ok {
		t.Fatal("chainOf found a chain in a stripped segment")
	}
	if !bytes.Equal(stripChain(stripped), stripped) {
		t.Fatal("stripChain of an unsealed segment must be the identity")
	}
}

func TestChainFrameDamage(t *testing.T) {
	data := sealedSegment(t, Chain{Seq: 3})

	// Flipping any byte of the chain frame must make the file unreadable or
	// the seal unreadable — never silently yield a different seal.
	body := stripChain(data)
	for i := len(body); i < len(data); i++ {
		mut := append([]byte{}, data...)
		mut[i] ^= 0x40
		c, ok := chainOf(mut)
		if ok && c == (Chain{Seq: 3}) {
			t.Fatalf("byte %d: flipped chain frame still reads as the original seal", i)
		}
		// Decode must reject damaged chain frames (CRC or structure).
		if err := Binary.Decode(bytes.NewReader(mut), rdf.NewGraph()); err == nil {
			t.Fatalf("byte %d: Decode accepted a damaged chain frame", i)
		} else if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("byte %d: error does not wrap ErrCorrupt: %v", i, err)
		}
	}

	// Two chain frames are one too many.
	double := AppendChain(data, Chain{Seq: 4})
	if err := Binary.Decode(bytes.NewReader(double), rdf.NewGraph()); err == nil {
		t.Fatal("Decode accepted two chain frames")
	}
	// chainOf must also refuse: the walk expects the chain frame to be final.
	if _, ok := chainOf(double); ok {
		t.Fatal("chainOf accepted a double-sealed segment")
	}
}

func TestChainTruncationClassified(t *testing.T) {
	data := sealedSegment(t, Chain{Seq: 1})
	for _, n := range []int{0, 1, 3, len(data) / 2, len(data) - 5, len(data) - 1} {
		err := Binary.Decode(bytes.NewReader(data[:n]), rdf.NewGraph())
		if err == nil {
			t.Fatalf("prefix %d/%d accepted", n, len(data))
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("prefix %d: error does not wrap ErrCorrupt: %v", n, err)
		}
	}
	// Prefixes that cut inside a frame must carry the finer truncation class.
	if err := Binary.Decode(bytes.NewReader(data[:len(data)-1]), rdf.NewGraph()); !errors.Is(err, ErrTruncated) {
		t.Fatalf("one-byte truncation not classified as ErrTruncated: %v", err)
	}
	if err := Binary.Decode(bytes.NewReader(data[:2]), rdf.NewGraph()); !errors.Is(err, ErrTruncated) {
		t.Fatalf("magic truncation not classified as ErrTruncated: %v", err)
	}
}

// TestChainSeqHasOneSpelling: a seal whose seq is a zero-padded varint (7 as
// 0x87 0x00) behind a valid CRC is damage, not a second spelling of seq 7 —
// AppendChain of what it would decode to writes other bytes.
func TestChainSeqHasOneSpelling(t *testing.T) {
	canonical := sealedSegment(t, Chain{Seq: 7})
	body := stripChain(canonical)
	payload := append(append(slices.Clone(chainMagic), 0, 0x87, 0x00), make([]byte, 32)...)
	padded := appendFrame(slices.Clone(body), payload)
	if bytes.Equal(padded, canonical) {
		t.Fatal("premise: the padded seal should spell seq 7 otherwise")
	}
	if _, err := DecodeColumns(padded); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "chain frame: seq: bad uvarint") {
		t.Fatalf("DecodeColumns returned %v, want ErrCorrupt naming the seq", err)
	}
	if c, ok := chainOf(padded); ok {
		t.Fatalf("chainOf read the padded seal as %+v", c)
	}
	if c, err := DecodeColumns(canonical); err != nil || c.Chain == nil || c.Chain.Seq != 7 {
		t.Fatalf("the canonical seal: %v", err)
	}
}

// chainSplit locates the embedded chain frame of a binary segment: it walks
// the magic and the two data frames and, if a structurally valid chain frame
// follows, returns the byte offset where it starts. ok is false when the
// file carries no (valid, final) chain frame.
func chainSplit(data []byte) (off int, c Chain, ok bool) {
	_, rest, err := pbsBody(data)
	if err != nil {
		return 0, Chain{}, false
	}
	if _, rest, _ = readFrame(rest); rest == nil {
		return 0, Chain{}, false
	}
	if _, rest, _ = readFrame(rest); rest == nil {
		return 0, Chain{}, false
	}
	// Skip the optional stats frame so the seal stays the final frame.
	if fp, after, err := readFrame(rest); err == nil && bytes.HasPrefix(fp, staTag) {
		rest = after
	}
	off = len(data) - len(rest)
	if len(rest) == 0 {
		return 0, Chain{}, false
	}
	payload, rest, err := readFrame(rest)
	if err != nil || len(rest) != 0 {
		return 0, Chain{}, false
	}
	c, perr := parseChainPayload(payload)
	if perr != nil {
		return 0, Chain{}, false
	}
	return off, c, true
}

// chainOf extracts the embedded chain seal of a binary segment file.
// ok is false for unsealed, non-binary, or damaged files.
func chainOf(data []byte) (Chain, bool) {
	_, c, ok := chainSplit(data)
	return c, ok
}

// stripChain returns data without its embedded chain frame (data itself when
// no valid trailing chain frame is present). The result is the canonical
// frame sequence Encode produces.
func stripChain(data []byte) []byte {
	if off, _, ok := chainSplit(data); ok {
		return data[:off]
	}
	return data
}
