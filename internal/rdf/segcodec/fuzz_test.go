package segcodec

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"github.com/hpc-io/prov-io/internal/rdf"
)

// FuzzSegcodecDecode hammers the binary decoder with arbitrary bytes. The
// contract under test: Decode returns an error for anything that is not a
// well-formed segment and never panics, over-allocates on lying counts, or
// loops. Valid encodings must round-trip. DecodeColumns accepts pbs v5
// only, with its stats, which StatsOf reads alike, and both refuse an older
// version's file alike.
func FuzzSegcodecDecode(f *testing.F) {
	// Seed with valid segments of increasing shape complexity...
	empty := &bytes.Buffer{}
	if err := Binary.Encode(empty, rdf.NewGraph(), nil); err != nil {
		f.Fatal(err)
	}
	f.Add(empty.Bytes())

	g := rdf.NewGraph()
	g.Add(rdf.Triple{S: rdf.IRI("urn:a"), P: rdf.IRI("urn:p"), O: rdf.Literal("x")})
	g.Add(rdf.Triple{S: rdf.IRI("urn:abc"), P: rdf.IRI("urn:p"), O: rdf.LangLiteral("héllo", "en")})
	g.Add(rdf.Triple{S: rdf.Blank("b0"), P: rdf.IRI("urn:q"), O: rdf.TypedLiteral("42", rdf.XSDInteger)})
	one := &bytes.Buffer{}
	if err := Binary.Encode(one, g, nil); err != nil {
		f.Fatal(err)
	}
	f.Add(one.Bytes())

	// ...with a chain-sealed segment and prefixes of it (torn-write shapes)...
	sealed := AppendChain(one.Bytes(), Chain{Root: true, Seq: 0, Prev: [32]byte{1, 2, 3}})
	f.Add(sealed)
	f.Add(sealed[:len(one.Bytes())+3]) // cut inside the chain frame
	f.Add(sealed[:len(sealed)-1])

	// ...and with targeted corruptions of those seeds.
	f.Add([]byte{})
	f.Add(pbsMagic)
	f.Add(append(append([]byte{}, pbsMagic...), 0xFF, 0xFF, 0xFF, 0xFF, 0xFF)) // huge frame length
	trunc := append([]byte{}, one.Bytes()...)
	f.Add(trunc[:len(trunc)/2])
	flip := append([]byte{}, one.Bytes()...)
	flip[len(flip)/2] ^= 0x80
	f.Add(flip)
	// A dictionary out of order behind valid CRCs and a self-consistent stats
	// frame: accepted, it would re-encode to different bytes.
	f.Add(handBuiltSegment(f, zMP, [][3]uint32{{0, 2, 1}, {1, 2, 0}}))
	// Likewise rows out of order, and a row twice.
	mPZ := []rdf.Term{rdf.IRI("urn:m"), rdf.IRI("urn:p"), rdf.IRI("urn:z")}
	f.Add(handBuiltSegment(f, mPZ, [][3]uint32{{0, 1, 2}, {0, 1, 0}}))
	f.Add(handBuiltSegment(f, mPZ, [][3]uint32{{0, 1, 2}, {2, 1, 0}, {2, 1, 0}}))
	// The dictionary block's head with one rule broken at a time (and once
	// with none), and a tag table as long as the literal run. The long
	// table has 10³ pairs here: it takes the same paths as
	// TestManyTagsStayCheap's 10⁵, and a 1.6 MB seed cuts the engine's
	// executions per second to a third.
	for _, tc := range tagTableCases() {
		f.Add(tc.data)
	}
	many := &bytes.Buffer{}
	if err := Binary.Encode(many, manyTagsGraph(1_000), nil); err != nil {
		f.Fatal(err)
	}
	f.Add(many.Bytes())
	// The triple block and the dictionary block with one rule broken at a
	// time (and once with none), a dictionary entry no row names, the golden
	// segment and every older generation of it, sealed, and under each other
	// generation's version byte.
	for _, tc := range append(runsCases(), dictCases()...) {
		f.Add(tc.data)
	}
	withZZ, _, _ := unnamedEntry()
	f.Add(segmentOf(withZZ, [][3]uint32{{0, 1, 3}}))
	seeds := [][]byte{one.Bytes(), coreGolden(f, "golden_merged.pbs")}
	for v := 1; v < pbsVersion; v++ {
		seeds = append(seeds, coreGolden(f, fmt.Sprintf("golden_merged_v%d.pbs", v)))
	}
	for _, data := range seeds {
		f.Add(data)
		f.Add(AppendChain(data, Chain{Seq: 7, Prev: [32]byte{4, 5, 6}}))
		for v := byte(1); v <= pbsVersion; v++ {
			if v != data[3] {
				swapped := append([]byte{}, data...)
				swapped[3] = v
				f.Add(swapped)
			}
		}
	}
	// Every unit of the committed older loose stores as an older build wrote
	// it: the pbs v1–v4 files, refused as needing migration, and the text
	// store's files, which are no segment at all.
	for _, store := range []string{"legacy_pbs_v1", "legacy_pbs_v2", "legacy_pbs_v3", "legacy_pbs_v4", "legacy_text"} {
		dir := filepath.Join(store, "loose")
		entries, err := os.ReadDir(filepath.Join("..", "..", "core", "testdata", dir))
		if err != nil {
			f.Fatal(err)
		}
		for _, e := range entries {
			if filepath.Ext(e.Name()) != ".sum" {
				f.Add(coreGolden(f, filepath.Join(dir, e.Name())))
			}
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		cur, err := DecodeColumns(data)
		if err == nil && cur.Stats == nil {
			t.Fatal("DecodeColumns accepted a file without stats")
		}
		if st, serr := StatsOf(data); err == nil && (serr != nil || !bytes.Equal(st.encode(), cur.Stats.encode())) ||
			errors.Is(err, ErrNeedsMigration) && !errors.Is(serr, ErrNeedsMigration) {
			t.Fatalf("StatsOf returned %v, DecodeColumns %v", serr, err)
		}
		if err != nil {
			if errors.Is(err, ErrNeedsMigration) == errors.Is(err, ErrCorrupt) {
				t.Fatalf("DecodeColumns refused with %v: neither damage nor an older version, or both", err)
			}
			return
		}
		into := rdf.NewGraph()
		if err := Binary.Decode(bytes.NewReader(data), into); err != nil {
			t.Fatalf("Decode refused what DecodeColumns accepts: %v", err)
		}
		var re bytes.Buffer
		if err := Binary.Encode(&re, into, nil); err != nil {
			t.Fatalf("re-encode of accepted input failed: %v", err)
		}
		canon := re.Bytes()
		// Accepted current input must re-encode to the identical bytes once
		// any chain seal is stripped: the payload format is canonical, its
		// stats frame included (Decode rejects a missing or mismatched one),
		// so encode(decode(x)) == stripChain(x) for any accepted x, and a
		// seal survives a decode/strip round-trip unchanged.
		if sc := stripChain(data); !bytes.Equal(canon, sc) {
			t.Fatalf("accepted input is not canonical: %d payload bytes in, %d bytes re-encoded", len(sc), re.Len())
		}
		if ch, ok := chainOf(data); ok {
			resealed := AppendChain(canon, ch)
			if !bytes.Equal(resealed, data) {
				t.Fatal("seal did not survive the decode/re-seal round-trip")
			}
		}
	})
}

// FuzzRunsBlock hands arbitrary bytes to decodeBlocks as the triple block behind the dictionary of runsCases, with no CRC and no stats
// frame to match, so the fuzzer works on the block's rules instead of on the
// checksum that guards them in FuzzSegcodecDecode. The block is canonical by
// rejection: an accepted one is what the encoder writes for the rows it
// decodes to.
func FuzzRunsBlock(f *testing.F) {
	var dict []byte
	for _, tc := range runsCases() {
		_, rest, _ := pbsBody(tc.data)
		dict, rest, _ = readFrame(rest)
		cols, _, _ := readFrame(rest)
		f.Add(cols)
	}
	f.Fuzz(func(t *testing.T, cols []byte) {
		if !blocksCanonical(t, dict, cols) {
			t.Fatalf("accepted triple block %x is not canonical", cols)
		}
	})
}

// FuzzDictBlock is FuzzRunsBlock for the dictionary block: it
// takes arbitrary bytes as the block in front of the triple block of
// dictCases, which names fourteen terms — the first two as predicate and
// subject, so they are IRIs or blank nodes, and the rest as objects of any
// kind. An accepted block is what the encoder writes for the terms it
// decodes to.
func FuzzDictBlock(f *testing.F) {
	var cols []byte
	for _, tc := range dictCases() {
		_, rest, _ := pbsBody(tc.data)
		dict, rest, _ := readFrame(rest)
		cols, _, _ = readFrame(rest)
		f.Add(dict)
	}
	f.Fuzz(func(t *testing.T, dict []byte) {
		if !blocksCanonical(t, dict, cols) {
			t.Fatalf("accepted dictionary block %x is not canonical", dict)
		}
	})
}

// blocksCanonical reports whether the two blocks are what the encoder writes
// for what they decode to, or do not decode at all.
func blocksCanonical(t *testing.T, dict, cols []byte) bool {
	terms, tris, err := decodeBlocks(dict, cols)
	if err != nil {
		return true
	}
	var re bytes.Buffer
	if err := writeSegment(&re, terms, tris); err != nil {
		t.Fatal(err)
	}
	return bytes.HasPrefix(re.Bytes(), appendFrame(appendFrame(append(slices.Clone(pbsMagic), pbsVersion), dict), cols))
}

// fuzzTriples reads arbitrary bytes as a triple list of valid RDF shape: per
// term one selector byte (kind, value length, literal tags) followed by the
// value's bytes, short values from few bytes so that terms recur, prefix one
// another and tie on Value. Triples may repeat and arrive in any order.
func fuzzTriples(data []byte) []rdf.Triple {
	tags := []string{"", "en", rdf.XSDInteger, "\x80"}
	term := func(kinds []rdf.TermKind) rdf.Term {
		if len(data) == 0 {
			return rdf.Term{Kind: kinds[0]}
		}
		sel := data[0]
		data = data[1:]
		n := min(int(sel>>2&7), len(data))
		t := rdf.Term{Kind: kinds[int(sel&3)%len(kinds)], Value: string(data[:n])}
		data = data[n:]
		if t.Kind == rdf.LiteralTerm {
			t.Lang, t.Datatype = tags[sel>>5&3], tags[sel>>6&3]
		}
		return t
	}
	var ts []rdf.Triple
	for len(data) > 0 {
		ts = append(ts, rdf.Triple{
			S: term([]rdf.TermKind{rdf.IRITerm, rdf.BlankTerm}),
			P: term([]rdf.TermKind{rdf.IRITerm}),
			O: term([]rdf.TermKind{rdf.IRITerm, rdf.BlankTerm, rdf.LiteralTerm}),
		})
	}
	return ts
}

// FuzzSegcodecEncode drives the encoder's kernels with arbitrary triple
// lists. The decoder is the oracle: it accepts only a strictly ascending
// dictionary, strictly ascending rows and the stats frame the contents
// derive, so whatever EncodeRefs writes must decode, hold exactly the input's
// triple set, and re-encode from the decoded columns to the same bytes — and
// must equal what the reference encoder (oracle_test.go) writes.
func FuzzSegcodecEncode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x04, 'a', 0x04, 'p', 0x06, 'x'})
	// A value that prefixes another, bytes above 0x7f, and a repeated triple.
	f.Add([]byte("\x08ab\x04p\x0a\xff\x80" + "\x04a\x04p\x04a" + "\x08ab\x04p\x0a\xff\x80"))
	// One literal value under three Lang/Datatype pairs.
	f.Add([]byte{0x04, 's', 0x04, 'p', 0x06, 'v', 0x04, 's', 0x04, 'p', 0x26, 'v', 0x04, 's', 0x04, 'p', 0x86, 'v'})
	// Six literal values whose pairs alternate among four, so the tag table
	// is searched as well as carried over from the previous literal.
	var alternating []byte
	for i, sel := range []byte{0x06, 0x86, 0x06, 0x26, 0x86, 0xC6} {
		alternating = append(alternating, 0x04, 's', 0x04, 'p', sel, 'a'+byte(i))
	}
	f.Add(alternating)
	// xsd:integer values (selector 0x82 | length<<2), numeric and not, whose
	// lexicographic order is not their numeric one, around a text literal.
	var integers []byte
	for _, v := range []string{"-10", "-2", "0", "007", "+5", "-0", "1", "19", "123"} {
		integers = append(integers, 0x04, 's', 0x04, 'p', 0x82|byte(len(v))<<2)
		integers = append(integers, v...)
	}
	f.Add(append(integers, 0x04, 's', 0x04, 'p', 0x06, '1'))
	f.Fuzz(func(t *testing.T, data []byte) {
		ts := fuzzTriples(data)
		g := rdf.NewGraph()
		refs := make([]rdf.TripleID, len(ts))
		for i, x := range ts {
			refs[i] = rdf.TripleID{S: g.Intern(x.S), P: g.Intern(x.P), O: g.Intern(x.O)}
		}
		var enc, ref, re bytes.Buffer
		if err := Binary.(RefsEncoder).EncodeRefs(&enc, refs, g); err != nil {
			t.Fatal(err)
		}
		c, err := DecodeColumns(enc.Bytes())
		if err != nil {
			t.Fatalf("decoder rejects the encoder's output: %v", err)
		}
		if err := writeSegment(&re, c.Terms, c.Tris); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(re.Bytes(), enc.Bytes()) {
			t.Fatal("re-encoding the decoded columns does not reproduce the bytes")
		}
		if err := oracleEncodeRefs(&ref, refs, g); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ref.Bytes(), enc.Bytes()) {
			t.Fatal("bytes differ from the reference encoder's")
		}
		want := rdf.NewGraph()
		want.AddBatch(ts)
		got := rdf.NewGraph()
		c.materialize(got)
		if got.Len() != want.Len() {
			t.Fatalf("decoded %d triples, input holds %d distinct", got.Len(), want.Len())
		}
		for _, x := range ts {
			if !got.Has(x) {
				t.Fatalf("decoded segment lacks %v", x)
			}
		}
	})
}
