package segcodec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"github.com/hpc-io/prov-io/internal/rdf"
)

// dictBlock is a version 4 dictionary block field by field, every field
// written as given: runs holds each (tagIndex<<1 | numeric, count), entries
// each term's front-coded value or numeric delta, in dictionary order.
type dictBlock struct {
	counts  [3]uint64 // IRIs, blank nodes, literals
	tags    []tagPair
	runs    [][2]uint64
	entries []v4Entry
}

// v4Entry is one entry of a dictBlock: a front-coded value, or when delta is
// set the raw varint of a numeric literal's delta.
type v4Entry struct {
	shared int
	suffix string
	delta  []byte
}

func text(shared int, suffix string) v4Entry { return v4Entry{shared: shared, suffix: suffix} }
func delta(d int64) v4Entry                  { return v4Entry{delta: binary.AppendVarint(nil, d)} }

func (b dictBlock) bytes() []byte {
	var out []byte
	for _, c := range b.counts {
		out = binary.AppendUvarint(out, c)
	}
	out = binary.AppendUvarint(out, uint64(len(b.tags)))
	for _, tag := range b.tags {
		out = appendTag(out, tag)
	}
	out = binary.AppendUvarint(out, uint64(len(b.runs)))
	for _, r := range b.runs {
		out = binary.AppendUvarint(out, r[0])
		out = binary.AppendUvarint(out, r[1])
	}
	for _, e := range b.entries {
		if e.delta != nil {
			out = append(out, e.delta...)
			continue
		}
		out = binary.AppendUvarint(out, uint64(e.shared))
		out = binary.AppendUvarint(out, uint64(len(e.suffix)))
		out = append(out, e.suffix...)
	}
	return out
}

// dictCases are the tamper shapes of the version 4 dictionary block over
// <urn:p> <urn:s> and twelve literals, each the object of one (s p) row:
//
//	"+5" "-0"                                   text under xsd:integer: not canonical
//	"-2" "-9223372036854775808"                 numeric: the lower bound, after a value lexicographic order puts first
//	"-9223372036854775809" "007"                text: one past the bound, a leading zero
//	"1"                                         numeric
//	"1"@en                                      text under another pair
//	"10" "9223372036854775807"                  numeric: the upper bound
//	"9223372036854775808"                       text: one past it
//	"x"                                         plain
//
// spelled canonically once and then with one rule broken at a time.
func dictCases() []blockCase {
	integer, en := tagPair{"", rdf.XSDInteger}, tagPair{"en", ""}
	num := func(v string) rdf.Term { return rdf.TypedLiteral(v, rdf.XSDInteger) }
	terms := []rdf.Term{rdf.IRI("urn:p"), rdf.IRI("urn:s"),
		num("+5"), num("-0"), num("-2"), num("-9223372036854775808"), num("-9223372036854775809"), num("007"),
		num("1"), rdf.LangLiteral("1", "en"), num("10"), num("9223372036854775807"), num("9223372036854775808"),
		rdf.Literal("x")}
	var tris [][3]uint32
	for o := range uint32(len(terms) - 2) {
		tris = append(tris, [3]uint32{1, 0, o + 2})
	}
	cols := new(encScratch).appendCols(nil, tris)
	canon := func() dictBlock {
		return dictBlock{
			counts: [3]uint64{2, 0, 12},
			tags:   []tagPair{{}, integer, en},
			runs:   [][2]uint64{{2, 2}, {3, 2}, {2, 2}, {3, 1}, {4, 1}, {3, 2}, {2, 1}, {0, 1}},
			entries: []v4Entry{text(0, "urn:p"), text(4, "s"),
				text(0, "+5"), text(0, "-0"), delta(-2), delta(math.MinInt64 + 2), text(19, "9"), text(0, "007"),
				delta(math.MinInt64 + 1), // 1 - (-2⁶³), modulo 2⁶⁴
				text(1, ""), delta(9), delta(math.MaxInt64 - 10), text(18, "8"), text(0, "x")},
		}
	}
	framed := func(name, want string, dict []byte) blockCase {
		return blockCase{name, want, handFramedSegment(PBSVersion, dict, cols, terms, tris)}
	}
	build := func(name, want string, edit func(b *dictBlock)) blockCase {
		b := canon()
		edit(&b)
		return framed(name, want, b.bytes())
	}
	// A block that ends at a run count, which lies.
	lying := func(name, want string, count uint64) blockCase {
		b := canon()
		b.runs, b.entries = nil, nil
		dict := b.bytes()
		return framed(name, want, binary.AppendUvarint(dict[:len(dict)-1], count))
	}
	return []blockCase{
		build("canonical", "", func(*dictBlock) {}),
		build("run with count 0", "literal run 1: count 0", func(b *dictBlock) {
			b.runs = slices.Insert(b.runs, 1, [2]uint64{4, 0})
		}),
		build("adjacent runs with one head", "literal run 2 has the head of run 1", func(b *dictBlock) {
			b.runs = slices.Insert(b.runs, 1, [2]uint64{3, 1})
			b.runs[2][1] = 1
		}),
		build("runs hold fewer literals than counted", "literal runs hold 11 literals, count says 12", func(b *dictBlock) {
			b.runs = b.runs[:7]
		}),
		build("runs hold more literals than counted", "literal run 7: runs hold more than 12 literals", func(b *dictBlock) {
			b.runs[7][1] = 2
		}),
		lying("more runs than literals", "1099511627776 literal runs for 12 literals exceed payload", 1<<40),
		lying("run count past the payload", "12 literal runs for 12 literals exceed payload", 12),
		build("numeric run under the plain pair", "literal run 7: numeric run under tag 0", func(b *dictBlock) {
			b.runs[7][0] = 1
		}),
		build("numeric run under a language tag", "literal run 4: numeric run under tag 2", func(b *dictBlock) {
			b.runs[4][0] = 5
		}),
		build("tag index past the table", "literal run 4: tag index 3 out of range (3 tags)", func(b *dictBlock) {
			b.runs[4][0] = 6
		}),
		build("pair no run names", "tag 3: no literal uses it", func(b *dictBlock) {
			b.tags = append(b.tags, tagPair{"fr", ""})
		}),
		build("canonical integer in a text run", `term 8: "1" is a canonical xsd:integer in a text run`, func(b *dictBlock) {
			b.runs = slices.Replace(b.runs, 2, 4, [2]uint64{2, 3})
			b.entries[8] = text(0, "1")
		}),
		build("int64 bound in a text run", `term 5: "-9223372036854775808" is a canonical xsd:integer in a text run`, func(b *dictBlock) {
			b.runs = slices.Replace(b.runs, 1, 3, [2]uint64{3, 1}, [2]uint64{2, 3})
			b.entries[5] = text(1, "9223372036854775808")
			b.entries[8] = delta(3) // from -2
		}),
		build("delta overflows int64", "term 4 numeric delta: bad varint", func(b *dictBlock) {
			b.entries[4] = v4Entry{delta: []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02}}
		}),
		build("numeric literals in numeric order", "term 5: "+errDictOrder, func(b *dictBlock) {
			b.entries[4], b.entries[5] = delta(math.MinInt64), delta(-2-math.MinInt64)
		}),
		build("numeric literal repeats", "term 5: "+errDictOrder, func(b *dictBlock) {
			b.entries[5] = delta(0)
		}),
		build("shared prefix shorter than the longest", "term 12: shared prefix 17 is not the longest", func(b *dictBlock) {
			b.entries[12] = text(17, "08")
		}),
		build("entries cut short", "14 terms, 5 of them numeric, exceed payload", func(b *dictBlock) {
			b.entries = b.entries[:2]
		}),
		build("trailing bytes", "2 trailing bytes", func(b *dictBlock) {
			b.entries = append(b.entries, text(0, ""))
		}),
	}
}

// TestDecodeRejectsHostileDictBlock: the version 4 dictionary block is
// canonical by rejection, and the reference encoder writes its canonical
// spelling too.
func TestDecodeRejectsHostileDictBlock(t *testing.T) {
	cases := dictCases()
	checkBlockCases(t, "dictionary block", cases)
	c, err := DecodeColumns(cases[0].data)
	if err != nil {
		t.Fatal(err)
	}
	var ref bytes.Buffer
	if err := oracleWriteSegment(&ref, c.Terms, c.Tris); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ref.Bytes(), cases[0].data) {
		t.Fatal("the reference encoder spells the canonical block otherwise")
	}
}

// TestCanonicalInt: the digit scan says yes exactly where strconv reads a
// value back to the same text, and allocates on neither answer.
func TestCanonicalInt(t *testing.T) {
	inputs := []string{"", "-", "+", "0", "-0", "00", "007", "+5", "5", "-5", "12a", " 1", "1 ", "1e3", "0x10",
		"9223372036854775807", "9223372036854775808", "-9223372036854775808", "-9223372036854775809",
		"18446744073709551615", "18446744073709551616", "99999999999999999999", "-99999999999999999999",
		"10000000000000000000", "-10000000000000000000", "1234567890123456789", "--1", "٣"}
	rng := rand.New(rand.NewSource(1))
	for range 5000 {
		b := make([]byte, rng.Intn(22))
		for i := range b {
			b[i] = "-0123456789+a"[rng.Intn(13)]
		}
		inputs = append(inputs, string(b))
	}
	for _, s := range inputs {
		v, err := strconv.ParseInt(s, 10, 64)
		want := err == nil && strconv.FormatInt(v, 10) == s
		got, ok := canonicalInt(s)
		if ok != want || ok && got != v {
			t.Fatalf("canonicalInt(%q) = %d, %v; strconv reads %d, %v", s, got, ok, v, err)
		}
	}
	if n := testing.AllocsPerRun(100, func() { canonicalInt("12a"); canonicalInt("-9223372036854775809") }); n != 0 {
		t.Fatalf("canonicalInt allocates %v times per call", n)
	}
}

// segmentOf frames a dictionary and rows, canonical or not, in the layout of
// any version, with the stats frame they derive in that version's generation:
// version 5 as the encoder writes it, the older ones as their encoders did.
func segmentOf(version byte, terms []rdf.Term, tris [][3]uint32) []byte {
	var dict []byte
	switch {
	case version >= 4:
		dict = encodeDict(terms)
	case version >= 2:
		var counts [4]uint64 // IRIs, blank nodes, literals, tags
		for _, t := range terms {
			counts[t.Kind-rdf.IRITerm]++
		}
		tags := collectTags(nil, terms[counts[0]+counts[1]:])
		counts[3] = uint64(len(tags))
		entries := make([]dictEntry, len(terms))
		prev := ""
		for i, t := range terms {
			shared := commonPrefixLen(prev, t.Value)
			entries[i] = dictEntry{shared, t.Value[shared:], -1}
			if t.Kind == rdf.LiteralTerm {
				entries[i].tag, _ = slices.BinarySearchFunc(tags, tagOf(&t), tagPair.compare)
			}
			prev = t.Value
		}
		dict = handBuiltDict(counts, tags, entries)
	default: // version 1: each term's kind byte, each literal's pair inline
		dict = binary.AppendUvarint(dict, uint64(len(terms)))
		prev := ""
		for i := range terms {
			t := &terms[i]
			shared := commonPrefixLen(prev, t.Value)
			dict = append(dict, byte(t.Kind))
			dict = binary.AppendUvarint(dict, uint64(shared))
			dict = binary.AppendUvarint(dict, uint64(len(t.Value)-shared))
			dict = append(dict, t.Value[shared:]...)
			if t.Kind == rdf.LiteralTerm {
				dict = appendTag(dict, tagOf(t))
			}
			prev = t.Value
		}
	}
	var cols []byte
	if version >= 3 {
		cols = new(encScratch).appendCols(nil, tris)
	} else {
		cols = binary.AppendUvarint(nil, uint64(len(tris)))
		var s uint32
		for _, t := range tris {
			cols = binary.AppendUvarint(cols, uint64(t[0]-s))
			s = t[0]
		}
		for c := 1; c < 3; c++ {
			var prev int64
			for _, t := range tris {
				cols = binary.AppendVarint(cols, int64(t[c])-prev)
				prev = int64(t[c])
			}
		}
	}
	return handFramedSegment(version, dict, cols, terms, tris)
}

// unnamedEntry is the regression of a dictionary entry no row names:
// <urn:zz> among <urn:a> <urn:p> "x" and the one row (a p "x"). Its stats
// frame is self-consistent, so until the decoder checked the names the
// segment decoded, and re-encoded without <urn:zz> to other bytes.
func unnamedEntry() (withZZ, without []rdf.Term, tris [][3]uint32) {
	without = []rdf.Term{rdf.IRI("urn:a"), rdf.IRI("urn:p"), rdf.Literal("x")}
	withZZ = slices.Insert(slices.Clone(without), 2, rdf.IRI("urn:zz"))
	return withZZ, without, [][3]uint32{{0, 1, 2}}
}

// TestDecodeRejectsUnnamedDictEntry: in every version, a dictionary entry no
// row names is an ErrCorrupt naming the entry, with nothing left in the
// caller's graph; the same segment without it decodes.
func TestDecodeRejectsUnnamedDictEntry(t *testing.T) {
	withZZ, without, tris := unnamedEntry()
	for v := byte(1); v <= PBSVersion; v++ {
		if _, err := DecodeAnyVersion(segmentOf(v, without, tris)); err != nil {
			t.Fatalf("version %d without the unnamed entry: %v", v, err)
		}
		into := rdf.NewGraph()
		err := decodeAny(segmentOf(v, withZZ, [][3]uint32{{0, 1, 3}}), into)
		if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "dictionary block: term 2: no triple names it") {
			t.Errorf("version %d: Decode returned %v, want ErrCorrupt naming term 2", v, err)
		}
		if into.Len() != 0 || into.TermCount() != 0 {
			t.Errorf("version %d: rejected segment left %d triples, %d terms behind", v, into.Len(), into.TermCount())
		}
	}
}
