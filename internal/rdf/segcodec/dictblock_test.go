package segcodec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
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

// dictFixture returns dictCases' block: its canonical fields, and the
// segment that frames a dictionary block over its rows.
func dictFixture() (canon func() dictBlock, framed func(name, want string, dict []byte) blockCase) {
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
	canon = func() dictBlock {
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
	framed = func(name, want string, dict []byte) blockCase {
		return blockCase{name, want, handFramedSegment(dict, cols, terms, tris)}
	}
	return canon, framed
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
	canon, framed := dictFixture()
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

// tagTableCases are the tamper shapes of the dictionary block's head over
// dictCases' block: the kind counts and the tag table before the literal
// runs, spelled canonically once and then with one rule broken at a time.
func tagTableCases() []blockCase {
	canon, framed := dictFixture()
	build := func(name, want string, edit func(b *dictBlock)) blockCase {
		b := canon()
		edit(&b)
		return framed(name, want, b.bytes())
	}
	// The block with its tag count, one byte after the three kind counts,
	// replaced by a lie.
	lyingTags := func(name, want string, count uint64) blockCase {
		dict := canon().bytes()
		return framed(name, want, append(binary.AppendUvarint(dict[:3:3], count), dict[4:]...))
	}
	return []blockCase{
		build("canonical", "", func(*dictBlock) {}),
		build("tag table unsorted", "tag 2: tag table is not strictly ascending", func(b *dictBlock) {
			b.tags[1], b.tags[2] = b.tags[2], b.tags[1]
		}),
		build("tag table repeats a pair", "tag 2: tag table is not strictly ascending", func(b *dictBlock) {
			b.tags[2] = b.tags[1]
		}),
		build("nTags beyond the literals", "13 tags for 12 literals", func(b *dictBlock) {
			for i := range 10 {
				b.tags = append(b.tags, tagPair{fmt.Sprintf("f%d", i), ""})
			}
		}),
		lyingTags("nTags beyond the payload", "count 1099511627776 exceeds payload", 1<<40),
		build("kind counts overflow", "count 9223372036854775808 exceeds payload", func(b *dictBlock) {
			b.counts = [3]uint64{1 << 63, 1 << 63, 12}
		}),
		build("kind counts sum past the payload", "exceed payload", func(b *dictBlock) { b.counts[0] = 60 }),
		build("one entry fewer than counted", "", func(b *dictBlock) { b.counts[0] = 3 }),
		build("one entry more than counted", "", func(b *dictBlock) { b.counts[0] = 1 }),
	}
}

// TestDecodeRejectsNonCanonicalDictBlock: the dictionary block's head is
// canonical by rejection — an unsorted or repeating tag table, more pairs
// than literals, counts that lie about the payload or about the entries.
func TestDecodeRejectsNonCanonicalDictBlock(t *testing.T) {
	checkBlockCases(t, "dictionary block", tagTableCases())
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

// segmentOf frames a dictionary and rows, canonical or not, with the stats
// frame they derive, as the encoder writes them.
func segmentOf(terms []rdf.Term, tris [][3]uint32) []byte {
	return handFramedSegment(encodeDict(terms), new(encScratch).appendCols(nil, tris), terms, tris)
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

// TestDecodeRejectsUnnamedDictEntry: a dictionary entry no row names is an
// ErrCorrupt naming the entry, with nothing left in the caller's graph; the
// same segment without it decodes.
func TestDecodeRejectsUnnamedDictEntry(t *testing.T) {
	withZZ, without, tris := unnamedEntry()
	if _, err := DecodeColumns(segmentOf(without, tris)); err != nil {
		t.Fatalf("without the unnamed entry: %v", err)
	}
	into := rdf.NewGraph()
	err := Binary.Decode(bytes.NewReader(segmentOf(withZZ, [][3]uint32{{0, 1, 3}})), into)
	if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "dictionary block: term 2: no triple names it") {
		t.Errorf("Decode returned %v, want ErrCorrupt naming term 2", err)
	}
	if into.Len() != 0 || into.TermCount() != 0 {
		t.Errorf("rejected segment left %d triples, %d terms behind", into.Len(), into.TermCount())
	}
}
