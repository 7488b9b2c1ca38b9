package segcodec

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
	"sort"
	"strconv"
	"strings"

	"github.com/hpc-io/prov-io/internal/rdf"
)

// binCodec is the PROV-IO binary segment format (.pbs): a dictionary-encoded
// ID-space layout so encoding from insertion-log refs renders no term text
// and decoding interns terms without tokenizing or unescaping.
//
// On-disk layout (all integers are unsigned varints unless noted):
//
//	magic      4 bytes  'P' 'B' 'S' <version>
//	dict frame          frame{ term dictionary block }
//	triple frame        frame{ triple block }
//	stats frame         frame{ 'S' 'T' 'A' 0x02 ... }   (see stats.go)
//	chain frame         frame{ 'C' 'H' 'N' 0x01 ... }   optional (see chain.go)
//
//	frame{payload} = uvarint(len(payload)) | payload | crc32-IEEE(payload), LE
//
// The stats frame is part of the format: a file that ends after its triple
// block is torn, and one whose seal follows the triple block is damaged. It
// must byte-match the stats recomputed from the decoded contents, so a
// decodable segment can never carry stats that would prune wrongly.
//
// The dictionary block is the segment's delta of newly seen terms: every
// distinct term the segment's triples use, exactly once, sorted in the
// canonical term order and front-coded (each value stores only the byte length
// shared with its predecessor plus the differing suffix — PROV-IO IRIs share
// long namespace prefixes). The canonical order is kind-first, so the kinds
// are three run lengths; a literal's (lang, datatype) pair is an index into a
// table of the distinct pairs the segment's literals carry, and the literals
// are runs of one pair each. A literal is numeric when its pair is
// ("", xsd:integer) and its value the canonical spelling of an int64 ("0" or
// -?[1-9][0-9]*): it is stored as its difference from the previous numeric
// literal, since a timestamp's decimal text shares little with its
// predecessor's:
//
//	uvarint nIRI | uvarint nBlank | uvarint nLiteral
//	uvarint nTags    | per tag: uvarint langLen | lang | uvarint dtLen | dt
//	uvarint nLitRuns | per run: uvarint (tagIndex<<1 | numeric), uvarint count
//	per IRI, blank node and text literal: uvarint sharedPrefix | uvarint suffixLen | suffix
//	per numeric literal: zig-zag varint delta from the previous numeric literal's value
//
// The prefix is shared with the previous term, numeric or not; the first
// numeric delta is taken from 0, and deltas wrap modulo 2⁶⁴ (-2⁶³ followed
// by 1 is a pair whose difference int64 does not hold). The run count is
// written even when it is 0: no CRC covers the version byte, so a block
// without literals must not read the same as a version 3 block.
//
// The block is canonical by rejection, so a segment's bytes stay a function
// of its triple set: the tag table is strictly ascending in (lang, datatype)
// order and every pair is named by a run; runs have a count of at least one,
// no two adjacent runs share a head, and their counts sum to nLiteral; a
// numeric run is under ("", xsd:integer), and a text run under that pair
// holds no canonical int64; every prefix shared is the longest there is.
//
// Local IDs are positional: the i-th dictionary entry is ID i. Segments are
// self-contained — a segment never references terms from an earlier
// segment's dictionary, because Flush and Compact delete earlier segments
// and a cross-segment delta chain would be unreadable after crash recovery.
//
// The triple block holds the local-ID rows strictly ascending in (s, p, o)
// order (sorted, no triple twice), a subject once per run of its rows and the
// predicates of a run as the index of its shape (see triples.go):
//
//	uvarint tripleCount
//	uvarint nPreds  | per predicate: uvarint local-ID delta
//	uvarint nShapes | per shape: uvarint nPairs | per pair: uvarint predIndexDelta, uvarint count
//	uvarint nRuns   | per subject run: uvarint subjectDelta, uvarint shapeIndex
//	O column        | per row: zig-zag delta from the previous object of the same predicate
//
// That is version 5, the only one written and the only one read; a file of
// versions 1 to 4 is refused with ErrNeedsMigration (currentFrames). Each
// dictionary entry is named by some row.
type binCodec struct{}

// pbsMagic identifies a binary segment; the byte after it is the format
// version.
var pbsMagic = []byte{'P', 'B', 'S'}

// pbsVersion is the format version every encoder entry point writes and
// every reader takes.
const pbsVersion = 5

// pbsBody splits a binary segment into its format version and the frames
// after the magic. Every reader of the format enters through it, so an
// unknown version is one classified error and never another layout's parse.
func pbsBody(data []byte) (version byte, rest []byte, err error) {
	if len(data) <= len(pbsMagic) && bytes.HasPrefix(pbsMagic, data) {
		return 0, nil, fmt.Errorf("%w inside PBS magic", ErrTruncated)
	}
	if !bytes.HasPrefix(data, pbsMagic) {
		return 0, nil, fmt.Errorf("%w: missing PBS magic", ErrCorrupt)
	}
	version = data[len(pbsMagic)]
	if version == 0 || version > pbsVersion {
		return 0, nil, fmt.Errorf("%w: unsupported pbs version %d", ErrCorrupt, version)
	}
	return version, data[len(pbsMagic)+1:], nil
}

func (binCodec) Ext() string { return ".pbs" }

// Encode serializes g from its insertion log, read in place: the refs go
// through the same integer-ID dictionary builder as a delta flush, so
// closing a tracker builds no snapshot index and hashes no term.
func (c binCodec) Encode(w io.Writer, g *rdf.Graph, _ *rdf.Namespaces) error {
	refs, _ := g.LogSince(0)
	return c.EncodeRefs(w, refs, g)
}

// EncodeRefs is the ID-space fast path: the segment-local dictionary is
// deduplicated on integer graph IDs (no term hashing), and terms are
// fetched from the source dictionary once per distinct ID. Rows are sorted
// and deduplicated, so the output is a function of the triple set alone,
// whichever entry point and whatever log order produced it.
func (binCodec) EncodeRefs(w io.Writer, refs []rdf.TripleID, src TermSource) error {
	_, err := w.Write(AppendSegment(nil, refs, src))
	return err
}

// AppendSegment appends to dst the file EncodeRefs writes for refs, with
// room left after it for the chain frame Seal appends: a store builds, seals
// and writes a segment in one buffer. Everything else the build needs is
// the pooled scratch's, so with a dst large enough it allocates nothing.
func AppendSegment(dst []byte, refs []rdf.TripleID, src TermSource) []byte {
	sc := encPool.Get().(*encScratch)
	terms, tris := sc.refTriples(refs, src)
	tris = sc.sortDedup(tris, len(terms))
	dst = sc.appendSegment(dst, terms, tris, terms[len(terms):len(terms)])
	sc.release()
	return dst
}

// tagPair is the (Lang, Datatype) pair of a literal: one entry of a
// dictionary block's tag table.
type tagPair struct{ lang, datatype string }

func tagOf(t *rdf.Term) tagPair { return tagPair{t.Lang, t.Datatype} }

// compare orders pairs the way rdf.TermLess orders two literals of one value.
func (a tagPair) compare(b tagPair) int {
	if c := strings.Compare(a.lang, b.lang); c != 0 {
		return c
	}
	return strings.Compare(a.datatype, b.datatype)
}

// collectTags appends the distinct pairs of the literals to tags, strictly
// ascending. A literal whose pair is its predecessor's costs two string
// compares (a dictionary is sorted by value, so typed runs are long); the
// rest are sorted and compacted, so a dictionary with as many pairs as
// literals costs n log n and nothing more.
func collectTags(tags []tagPair, literals []rdf.Term) []tagPair {
	for i := range literals {
		if tag := tagOf(&literals[i]); i == 0 || tag != tagOf(&literals[i-1]) {
			tags = append(tags, tag)
		}
	}
	slices.SortFunc(tags, tagPair.compare)
	return slices.Compact(tags)
}

// appendSegment appends the framed segment of a canonical dictionary and
// its sorted, distinct local-ID rows (indexes into terms), exactly as given,
// and leaves room for a chain frame after it. A stats frame summarizing the
// segment (see SegStats) follows the triple block; its predicate list is
// appended to preds. The three payloads are built end to end in the
// scratch, so the file is framed from them in one copy. The triple block
// goes first: the room it takes covers the other two.
func (sc *encScratch) appendSegment(dst []byte, terms []rdf.Term, tris [][3]uint32, preds []rdf.Term) []byte {
	blocks := sc.appendCols(sc.blocks[:0], tris)
	cols := len(blocks)
	blocks = sc.appendDict(blocks, terms)
	dict := len(blocks)
	blocks = sc.appendStats(blocks, terms, tris, preds)
	sc.blocks = blocks

	dst = grow(dst, len(pbsMagic)+1+3*frameOverhead+len(blocks)+chainFrameRoom)
	dst = append(append(dst, pbsMagic...), pbsVersion)
	dst = appendFrame(dst, blocks[cols:dict])
	dst = appendFrame(dst, blocks[:cols])
	return appendFrame(dst, blocks[dict:])
}

// integerTag is the pair of the literals a dictionary block may store as
// numbers.
var integerTag = tagPair{"", rdf.XSDInteger}

// canonicalInt reports whether s is the canonical decimal spelling of an
// int64 — "0" or -?[1-9][0-9]*, in range — and its value. It decides which
// xsd:integer literals are numeric, on both sides of the format, and
// allocates on neither answer (strconv.ParseInt's error does, and accepts
// "+5" and "007").
func canonicalInt(s string) (int64, bool) {
	digits := s
	neg := len(s) > 0 && s[0] == '-'
	if neg {
		digits = s[1:]
	}
	// Nineteen digits hold every int64 and cannot overflow a uint64.
	if len(digits) == 0 || len(digits) > 19 || digits[0] == '0' && (neg || len(digits) > 1) {
		return 0, false
	}
	var u uint64
	for i := 0; i < len(digits); i++ {
		d := digits[i] - '0'
		if d > 9 {
			return 0, false
		}
		u = 10*u + uint64(d)
	}
	if neg && u <= 1<<63 {
		return int64(-u), true
	}
	return int64(u), !neg && u < 1<<63
}

// numericValue reports whether t is a numeric literal — its pair is
// ("", xsd:integer) and canonicalInt accepts its value — and the value. The
// dictionary block stores such a literal as a number, and a generation 2
// stats frame keeps it in its range instead of its Bloom filter.
func numericValue(t *rdf.Term) (int64, bool) {
	if t.Kind != rdf.LiteralTerm || t.Lang != "" || t.Datatype != rdf.XSDInteger {
		return 0, false
	}
	return canonicalInt(t.Value)
}

// appendDict appends the dictionary block of a dictionary in the canonical
// order. Room for the block is made up front so a flush does not double it
// up: tracked provenance measures 3.7–8.1 bytes per term (front-coded IRIs,
// an integer literal's delta in a few bytes) after a tag table of some 50
// bytes; a richer dictionary grows the slice.
func (sc *encScratch) appendDict(dict []byte, terms []rdf.Term) []byte {
	// Sorted kind-first, so the kinds are two boundaries.
	nonLiterals := sort.Search(len(terms), func(i int) bool { return terms[i].Kind > rdf.BlankTerm })
	iris := sort.Search(nonLiterals, func(i int) bool { return terms[i].Kind > rdf.IRITerm })
	literals := terms[nonLiterals:]

	tags := collectTags(sc.tags[:0], literals)
	integer, ok := slices.BinarySearchFunc(tags, integerTag, tagPair.compare)
	if !ok {
		integer = -1
	}
	// The run table: a literal's head is its tag index and whether it is
	// numeric, and the literals of one head in a row are one run.
	runs := sc.runs[:0]
	at := -1 // the previous literal's index in tags
	for i := range literals {
		t := &literals[i]
		if tag := tagOf(t); at < 0 || tag != tags[at] {
			at, _ = slices.BinarySearchFunc(tags, tag, tagPair.compare)
		}
		head := uint32(at) << 1
		if at == integer {
			if _, numeric := canonicalInt(t.Value); numeric {
				head |= 1
			}
		}
		if n := len(runs); n > 0 && runs[n-1][0] == head {
			runs[n-1][1]++
		} else {
			runs = append(runs, [2]uint32{head, 1})
		}
	}

	dict = grow(dict, 10*len(terms)+64)
	dict = binary.AppendUvarint(dict, uint64(iris))
	dict = binary.AppendUvarint(dict, uint64(nonLiterals-iris))
	dict = binary.AppendUvarint(dict, uint64(len(literals)))
	dict = binary.AppendUvarint(dict, uint64(len(tags)))
	for _, tag := range tags {
		dict = appendTag(dict, tag)
	}
	dict = binary.AppendUvarint(dict, uint64(len(runs)))
	for _, r := range runs {
		dict = binary.AppendUvarint(dict, uint64(r[0]))
		dict = binary.AppendUvarint(dict, uint64(r[1]))
	}
	prev := ""
	var num int64 // the previous numeric literal's value
	run, left := 0, uint32(0)
	for i := range terms {
		t := &terms[i]
		if i >= nonLiterals {
			if left == 0 {
				run, left = run+1, runs[run][1]
			}
			left--
			if runs[run-1][0]&1 != 0 {
				v, _ := canonicalInt(t.Value)
				dict = binary.AppendVarint(dict, v-num) // wraps like the decoder's sum
				num, prev = v, t.Value
				continue
			}
		}
		dict = appendFrontCoded(dict, prev, t.Value)
		prev = t.Value
	}
	// The pairs point at the source dictionary's strings: drop them before the
	// scratch goes back, so the pool never keeps a graph's memory alive.
	clear(tags)
	sc.tags, sc.runs = tags, runs
	return dict
}

// Decode is DecodeColumns followed by materialize: the segment is validated
// whole before the first insert, so a rejected segment leaves into untouched.
func (binCodec) Decode(r io.Reader, into *rdf.Graph) error {
	data, err := io.ReadAll(r)
	if err != nil {
		return err
	}
	c, err := DecodeColumns(data)
	if err != nil {
		return err
	}
	c.materialize(into)
	return nil
}

// Columns is a binary segment decoded into its own shape and fully validated:
// the interchange value of the bulk paths (decode, audit, packing), none of
// which needs an rdf.Graph to do its work.
type Columns struct {
	// Terms is the segment's dictionary, strictly ascending under
	// rdf.TermLess; a local ID is an index into it.
	Terms []rdf.Term
	// Tris holds the local-ID triples in file order, every one of valid RDF
	// shape. In a decoded segment they are strictly ascending in (s, p, o)
	// order (DecodeColumns rejects any other file); the tests' graphColumns
	// returns them in log order.
	Tris [][3]uint32
	// Stats is the segment's stats frame, verified equal to the stats its
	// contents derive; nil for columns that were not decoded (graphColumns).
	Stats *SegStats
	// Chain is the embedded seal; nil when the file is unsealed, which
	// decodes but is a defect to the audit (a prefix of its sealed form).
	Chain *Chain
}

// DecodeColumns parses and validates one pbs v5 file: magic, every frame's
// CRC, the footer frames and their order, the chain seal, the dictionary's
// strict order, every ID's range, the rows' strict order, the stats frame
// against the contents, and the RDF shape of every triple. An error wraps
// ErrCorrupt (or its ErrTruncated sub-class for a torn write), or is
// ErrNeedsMigration for a file of an older version.
func DecodeColumns(data []byte) (*Columns, error) {
	f, err := currentFrames(data)
	if err != nil {
		return nil, err
	}
	c := &Columns{Chain: f.chain}
	if c.Terms, c.Tris, err = decodeBlocks(f.dict, f.cols); err != nil {
		return nil, err
	}
	st := ComputeStats(c.Terms, c.Tris)
	if err := checkStats(f.stats, &st); err != nil {
		return nil, err
	}
	c.Stats = &st
	return c, nil
}

// currentFrames splits a pbs v5 file into its frames: the one entry of every
// read, through DecodeColumns and StatsOf.
func currentFrames(data []byte) (f segFrames, err error) {
	version, rest, err := pbsBody(data)
	if err != nil {
		return f, err
	}
	gen := byte(staGenRange)
	if version < pbsVersion {
		gen = staGenBloom
	}
	// A current file whose version byte was damaged carries the generation 2
	// stats frame no older version has: readFrames refuses it as damage.
	f, err = readFrames(rest, version, gen)
	switch {
	case err != nil:
		return f, err
	case version < pbsVersion:
		return f, fmt.Errorf("pbs v%d file: %w", version, ErrNeedsMigration)
	case f.stats == nil && f.chain == nil:
		return f, fmt.Errorf("%w: pbs v%d file ends before its stats frame", ErrTruncated, version)
	case f.stats == nil:
		return f, fmt.Errorf("%w: pbs v%d file carries no stats frame", ErrCorrupt, version)
	}
	return f, nil
}

// segFrames are a segment's frames after the magic; stats and chain are nil
// when the file carries no such frame.
type segFrames struct {
	dict, cols, stats []byte
	chain             *Chain
}

// readFrames splits a segment's frames: the dictionary and triple blocks,
// then a stats frame, then a chain frame, in that order; anything else is
// structural damage. A stats frame must be of generation gen, the version's
// only one, so no two versions spell a segment that carries stats alike.
func readFrames(rest []byte, version, gen byte) (f segFrames, err error) {
	if f.dict, rest, err = readFrame(rest); err != nil {
		return f, fmt.Errorf("%w: dictionary block: %w", ErrCorrupt, err)
	}
	if f.cols, rest, err = readFrame(rest); err != nil {
		return f, fmt.Errorf("%w: triple block: %w", ErrCorrupt, err)
	}
	for len(rest) != 0 {
		if f.chain != nil {
			return f, fmt.Errorf("%w: %d trailing bytes after chain frame", ErrCorrupt, len(rest))
		}
		var fp []byte
		if fp, rest, err = readFrame(rest); err != nil {
			return f, fmt.Errorf("%w: footer frame: %w", ErrCorrupt, err)
		}
		switch {
		case bytes.HasPrefix(fp, staTag):
			if f.stats != nil {
				return f, fmt.Errorf("%w: duplicate stats frame", ErrCorrupt)
			}
			if len(fp) == len(staTag) || fp[len(staTag)] != gen {
				return f, fmt.Errorf("%w: stats frame: a pbs v%d file carries generation %d only", ErrCorrupt, version, gen)
			}
			f.stats = fp
		case bytes.HasPrefix(fp, chainMagic):
			ch, err := parseChainPayload(fp)
			if err != nil {
				return f, fmt.Errorf("%w: chain frame: %v", ErrCorrupt, err)
			}
			f.chain = &ch
		default:
			return f, fmt.Errorf("%w: unrecognized footer frame", ErrCorrupt)
		}
	}
	return f, nil
}

// decodeBlocks decodes and validates the dictionary and triple blocks of a
// current segment.
func decodeBlocks(dict, cols []byte) (terms []rdf.Term, tris [][3]uint32, err error) {
	terms, iris, nonLiterals, err := decodeDict(dict)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: dictionary block: %v", ErrCorrupt, err)
	}
	if tris, err = decodeRuns(cols, uint32(len(terms)), iris, nonLiterals); err != nil {
		return nil, nil, fmt.Errorf("%w: triple block: %v", ErrCorrupt, err)
	}
	if err := checkNamed(len(terms), tris); err != nil {
		return nil, nil, fmt.Errorf("%w: dictionary block: %v", ErrCorrupt, err)
	}
	return terms, tris, nil
}

// checkStats holds a stats frame payload to want, the stats the segment's
// contents derive: a forged or stale summary could prune segments that still
// hold answers, so it is rejected instead of trusted.
func checkStats(payload []byte, want *SegStats) error {
	if !bytes.Equal(want.encode(), payload) {
		return fmt.Errorf("%w: stats frame: %s", ErrCorrupt, statsMismatch(payload, want))
	}
	return nil
}

// checkNamed rejects a dictionary entry that no row names. No encoder writes
// one, and accepting it would give one triple set two spellings, and put a
// term the segment does not hold into its Bloom filter, its zone maps and
// the term count of a pack's stats. A mark is a byte, stored without reading
// it back.
func checkNamed(nTerms int, tris [][3]uint32) error {
	named := make([]bool, nTerms)
	for _, t := range tris {
		named[t[0]], named[t[1]], named[t[2]] = true, true, true
	}
	if id := slices.Index(named, false); id >= 0 {
		return fmt.Errorf("term %d: no triple names it", id)
	}
	return nil
}

// materialize unions the segment's triples into the graph. Each dictionary
// entry is interned once, when a triple first uses it, walking the triples
// in file order — the order per-triple inserts would intern in — so the IDs
// into hands out, and its insertion-log order, are a function of the file
// alone.
func (c *Columns) materialize(into *rdf.Graph) {
	gids := make([]rdf.ID, len(c.Terms))
	for i := range gids {
		gids[i] = rdf.NoID
	}
	global := func(local uint32) rdf.ID {
		if gids[local] == rdf.NoID {
			gids[local] = into.Intern(c.Terms[local])
		}
		return gids[local]
	}
	refs := make([]rdf.TripleID, len(c.Tris))
	for i, t := range c.Tris {
		refs[i] = rdf.TripleID{S: global(t[0]), P: global(t[1]), O: global(t[2])}
	}
	into.AddRefs(refs)
}

// decodeDict rebuilds the front-coded term dictionary of a version 4 or 5
// block, rejecting one that is not strictly ascending in the canonical term
// order, and returns it with its two kind boundaries (the number of IRIs, and
// of IRIs plus blank nodes). A term costs one allocation, its Value, and
// every literal's Lang and Datatype are the two strings of one entry of the
// block's tag table.
func decodeDict(p []byte) (terms []rdf.Term, iris, nonLiterals uint32, err error) {
	h, p, err := readDictHead(p)
	if err != nil {
		return dictError("%v", err)
	}
	integer, ok := slices.BinarySearchFunc(h.tags, integerTag, tagPair.compare)
	if !ok {
		integer = len(h.tags) // no run can name it
	}
	named := make([]bool, len(h.tags)) // named[i] once a run names tags[i]
	lit, numeric, p, err := readLitRuns(p, h.n-h.literals, uint64(integer), named)
	if err != nil {
		return dictError("%v", err)
	}
	// An entry costs two varints, a numeric literal's delta one: the entries
	// are bounded by the payload before they are allocated.
	if 2*h.n-numeric > uint64(len(p)) {
		return dictError("%d terms, %d of them numeric, exceed payload", h.n, numeric)
	}

	terms = make([]rdf.Term, 0, h.n)
	var (
		val  []byte
		num  int64  // the previous numeric literal's value
		head uint64 // the literal's run head
	)
	for i := uint64(0); i < h.n; i++ {
		t := rdf.Term{Kind: rdf.IRITerm}
		switch {
		case i >= h.literals:
			head = lit.next()
			t.Kind, t.Lang, t.Datatype = rdf.LiteralTerm, h.tags[head>>1].lang, h.tags[head>>1].datatype
		case i >= h.blanks:
			t.Kind = rdf.BlankTerm
		}
		if head&1 != 0 {
			var d int64
			if d, p, err = getSvarint(p); err != nil {
				return dictError("term %d numeric delta: %v", i, err)
			}
			num += d // modulo 2⁶⁴, as the encoder took it
			val = strconv.AppendInt(val[:0], num, 10)
		} else if val, p, err = frontCoded(val, p); err != nil {
			return dictError("term %d: %v", i, err)
		}
		t.Value = string(val)
		if i >= h.literals && head == uint64(integer)<<1 {
			if _, ok := canonicalInt(t.Value); ok {
				return dictError("term %d: %q is a canonical xsd:integer in a text run", i, t.Value)
			}
		}
		if i > 0 && !rdf.TermLess(terms[i-1], t) {
			return dictError("term %d: %s", i, errDictOrder)
		}
		terms = append(terms, t)
	}
	if err := dictTail(p, named); err != nil {
		return dictError("%v", err)
	}
	return terms, uint32(h.blanks), uint32(h.literals), nil
}

// dictHead is what a dictionary block of version 2 or later states before
// its entries: where the blank nodes and the literals start, the entry
// count, and the tag table.
type dictHead struct {
	blanks, literals, n uint64
	tags                []tagPair
}

// readDictHead reads the kind counts and the tag table, strictly ascending.
// Each count is bounded by the payload before the next is read, so their sum
// cannot overflow, and the table before it is allocated; a pair some literal
// must name cannot outnumber the literals.
func readDictHead(p []byte) (h dictHead, rest []byte, err error) {
	var counts [4]uint64 // IRIs, blank nodes, literals, tags
	for i := range counts {
		if counts[i], p, err = getUvarint(p); err != nil {
			return h, nil, err
		}
		if counts[i] > uint64(len(p)) {
			return h, nil, fmt.Errorf("count %d exceeds payload", counts[i])
		}
	}
	h.blanks, h.literals = counts[0], counts[0]+counts[1]
	h.n = h.literals + counts[2]
	switch nTags := counts[3]; {
	case 2*nTags > uint64(len(p)): // a pair costs two lengths
		return h, nil, fmt.Errorf("%d tags exceed payload", nTags)
	case nTags > counts[2]:
		return h, nil, fmt.Errorf("%d tags for %d literals", nTags, counts[2])
	}
	h.tags = make([]tagPair, counts[3])
	for i := range h.tags {
		var lang, dt []byte
		if lang, dt, p, err = getTag(p); err != nil {
			return h, nil, fmt.Errorf("tag %d %v", i, err)
		}
		h.tags[i] = tagPair{string(lang), string(dt)}
		if i > 0 && h.tags[i-1].compare(h.tags[i]) >= 0 {
			return h, nil, fmt.Errorf("tag %d: tag table is not strictly ascending", i)
		}
	}
	return h, p, nil
}

// dictTail rejects what may not follow a dictionary block's entries: any
// byte, and a tag no literal named.
func dictTail(p []byte, named []bool) error {
	if len(p) != 0 {
		return fmt.Errorf("%d trailing bytes", len(p))
	}
	if unused := slices.Index(named, false); unused >= 0 {
		return fmt.Errorf("tag %d: no literal uses it", unused)
	}
	return nil
}

// litRuns walks a version 4 literal run table that readLitRuns validated:
// next returns the head of the run the next literal is in.
type litRuns struct {
	table      []byte
	head, left uint64
}

func (r *litRuns) next() uint64 {
	if r.left == 0 {
		r.head, r.table, _ = getUvarint(r.table)
		r.left, r.table, _ = getUvarint(r.table)
	}
	r.left--
	return r.head
}

// readLitRuns reads the run table of a version 4 dictionary block of nLit
// literals and validates it whole, marking in named the tags its runs name:
// every count at least one, no two adjacent heads alike, every tag index in
// range, a numeric run only under the pair at index integer, and counts that
// sum to nLit. It returns the table to walk, the number of numeric literals,
// and the payload after it.
func readLitRuns(p []byte, nLit, integer uint64, named []bool) (lit litRuns, numeric uint64, rest []byte, err error) {
	var n uint64
	if n, p, err = getUvarint(p); err != nil {
		return lit, 0, nil, fmt.Errorf("literal run count: %v", err)
	}
	if n > nLit || 2*n > uint64(len(p)) { // a run covers a literal and costs two bytes
		return lit, 0, nil, fmt.Errorf("%d literal runs for %d literals exceed payload", n, nLit)
	}
	table := p
	var sum, prev uint64
	for r := range n {
		var head, count uint64
		if head, p, err = getUvarint(p); err != nil {
			return lit, 0, nil, fmt.Errorf("literal run %d: %v", r, err)
		}
		if count, p, err = getUvarint(p); err != nil {
			return lit, 0, nil, fmt.Errorf("literal run %d: %v", r, err)
		}
		tag := head >> 1
		switch {
		case count == 0:
			return lit, 0, nil, fmt.Errorf("literal run %d: count 0", r)
		case r > 0 && head == prev:
			return lit, 0, nil, fmt.Errorf("literal run %d has the head of run %d", r, r-1)
		case tag >= uint64(len(named)):
			return lit, 0, nil, fmt.Errorf("literal run %d: tag index %d out of range (%d tags)", r, tag, len(named))
		case head&1 != 0 && tag != integer:
			return lit, 0, nil, fmt.Errorf("literal run %d: numeric run under tag %d, not (\"\", xsd:integer)", r, tag)
		case count > nLit-sum:
			return lit, 0, nil, fmt.Errorf("literal run %d: runs hold more than %d literals", r, nLit)
		}
		sum += count
		if head&1 != 0 {
			numeric += count
		}
		named[tag] = true
		prev = head
	}
	if sum != nLit {
		return lit, 0, nil, fmt.Errorf("literal runs hold %d literals, count says %d", sum, nLit)
	}
	return litRuns{table: table[:len(table)-len(p)]}, numeric, p, nil
}

// dictError is the error return of the dictionary decoders.
func dictError(format string, args ...any) ([]rdf.Term, uint32, uint32, error) {
	return nil, 0, 0, fmt.Errorf(format, args...)
}

// errDictOrder: strict order is part of the format. Stats derive zone maps
// from dictionary positions and the pack builder merges dictionaries, so an
// unsorted or repeating dictionary would prune or merge wrongly; it is checked
// across the kind boundaries too, so a version 1 block's kind bytes form the
// three runs a later block announces.
const errDictOrder = "dictionary is not strictly ascending"

// frontCoded reads one entry's `shared | suffixLen | suffix` and rebuilds its
// value in val, which carries the previous entry's bytes: the shared prefix is
// already in place when the suffix is appended. The prefix must be the
// longest the two values share, as every encoder wrote it, so that a value
// has one spelling.
func frontCoded(val, p []byte) (value, rest []byte, err error) {
	shared, p, err := getUvarint(p)
	if err != nil {
		return nil, nil, err
	}
	if shared > uint64(len(val)) {
		return nil, nil, fmt.Errorf("shared prefix %d exceeds previous value length %d", shared, len(val))
	}
	suffix, p, err := getBytes(p)
	if err != nil {
		return nil, nil, err
	}
	if len(suffix) > 0 && shared < uint64(len(val)) && suffix[0] == val[shared] {
		return nil, nil, fmt.Errorf("shared prefix %d is not the longest", shared)
	}
	return append(val[:shared], suffix...), p, nil
}

// appendFrontCoded appends v as frontCoded reads it after prev: the longest
// prefix the two share, then the rest.
func appendFrontCoded(dst []byte, prev, v string) []byte {
	shared := commonPrefixLen(prev, v)
	dst = binary.AppendUvarint(dst, uint64(shared))
	dst = binary.AppendUvarint(dst, uint64(len(v)-shared))
	return append(dst, v[shared:]...)
}

// ---- framing and varint primitives ----

var crcTable = crc32.IEEETable

// frameOverhead bounds the bytes a frame adds to its payload: the length
// varint of a payload under 4 GiB and the CRC.
const frameOverhead = 5 + 4

// appendFrame appends uvarint(len) | payload | crc32(payload) to dst.
func appendFrame(dst, payload []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	dst = append(dst, payload...)
	return binary.LittleEndian.AppendUint32(dst, crc32.Checksum(payload, crcTable))
}

// readFrame consumes one frame, verifying length and checksum. A frame cut
// short by a torn write (missing payload or checksum bytes, or a length
// varint with no terminator) reports ErrTruncated so callers can tell torn
// writes from in-place tampering.
func readFrame(p []byte) (payload, rest []byte, err error) {
	n, consumed := binary.Uvarint(p)
	switch {
	case consumed > 0:
		p = p[consumed:]
	case consumed == 0:
		// Buffer ended mid-varint: every byte so far had the continuation
		// bit set — a prefix of a longer encoding.
		return nil, nil, fmt.Errorf("%w in frame length varint", ErrTruncated)
	default:
		return nil, nil, fmt.Errorf("frame length varint overflows")
	}
	if n > uint64(len(p)) || uint64(len(p))-n < 4 {
		return nil, nil, fmt.Errorf("frame length %d exceeds remaining %d bytes: %w", n, len(p), ErrTruncated)
	}
	payload, p = p[:n], p[n:]
	want := binary.LittleEndian.Uint32(p[:4])
	if got := crc32.Checksum(payload, crcTable); got != want {
		return nil, nil, fmt.Errorf("CRC mismatch: computed %08x, stored %08x", got, want)
	}
	return payload, p[4:], nil
}

func putUvarint(w *bytes.Buffer, v uint64) {
	var buf [binary.MaxVarintLen64]byte
	w.Write(buf[:binary.PutUvarint(buf[:], v)])
}

// getUvarint reads one uvarint. A varint padded with a zero last byte reads
// as the value it pads, so it is rejected: every number has one spelling,
// and a file that decodes re-encodes to its own bytes.
func getUvarint(p []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(p)
	if n <= 0 || n > 1 && p[n-1] == 0 {
		return 0, nil, fmt.Errorf("bad uvarint")
	}
	return v, p[n:], nil
}

func getSvarint(p []byte) (int64, []byte, error) {
	v, n := binary.Varint(p)
	if n <= 0 || n > 1 && p[n-1] == 0 {
		return 0, nil, fmt.Errorf("bad varint")
	}
	return v, p[n:], nil
}

// getBytes reads uvarint length-prefixed bytes, aliasing p.
func getBytes(p []byte) ([]byte, []byte, error) {
	n, p, err := getUvarint(p)
	if err != nil {
		return nil, nil, err
	}
	if n > uint64(len(p)) {
		return nil, nil, fmt.Errorf("string length %d exceeds remaining %d bytes", n, len(p))
	}
	return p[:n], p[n:], nil
}

// getTag reads a (lang, datatype) pair, `langLen | lang | dtLen | dt`,
// aliasing p.
func getTag(p []byte) (lang, dt, rest []byte, err error) {
	if lang, p, err = getBytes(p); err != nil {
		return nil, nil, nil, fmt.Errorf("lang: %v", err)
	}
	if dt, p, err = getBytes(p); err != nil {
		return nil, nil, nil, fmt.Errorf("datatype: %v", err)
	}
	return lang, dt, p, nil
}

// appendTag appends a (lang, datatype) pair as getTag reads it.
func appendTag(dst []byte, tag tagPair) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(tag.lang)))
	dst = append(dst, tag.lang...)
	dst = binary.AppendUvarint(dst, uint64(len(tag.datatype)))
	return append(dst, tag.datatype...)
}

// getString reads uvarint length-prefixed bytes as a string.
func getString(p []byte) (string, []byte, error) {
	b, p, err := getBytes(p)
	return string(b), p, err
}

func commonPrefixLen(a, b string) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}
