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
//	stats frame         frame{ 'S' 'T' 'A' 0x02 ... }   optional (see stats.go)
//	chain frame         frame{ 'C' 'H' 'N' 0x01 ... }   optional (see chain.go)
//
//	frame{payload} = uvarint(len(payload)) | payload | crc32-IEEE(payload), LE
//
// The encoder always writes the stats frame; files from before it existed
// (or with the frame stripped) decode identically — stats only gate segment
// pruning, never correctness. When present, the frame must be of the
// version's generation and byte-match the stats recomputed from the decoded
// contents, so a decodable segment can never carry stats that would prune
// wrongly.
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
// That is version 5, the only one written. Older files stay readable.
// Version 4 differs only in its stats frame, generation 1 ('STA\x01', see
// stats.go), and before it only the two blocks above changed: version 3 wrote
// every literal front-coded, with its tag index after it and no run table;
// version 2 wrote that dictionary block too, and the triple block
// column-major (uvarint tripleCount | S column as uvarint deltas | P and O
// columns as zig-zag deltas, each from the previous row); and version 1 that
// triple block behind a dictionary block spelling every term's kind and every
// literal's pair inline:
//
//	uvarint termCount
//	per term: kind byte | uvarint sharedPrefix | uvarint suffixLen | suffix
//	          literals append: uvarint langLen | lang | uvarint dtLen | dt
//
// decodeDict and decodeCols are the only functions that know those
// differences, and statsGen the stats frame's: frames, seals and packs are
// the same in all five, and a segment's stats frame equals that of its
// rewrite in its own version byte for byte. In every version, each
// dictionary entry is named by some row.
type binCodec struct{}

// pbsMagic identifies a binary segment; the byte after it is the format
// version.
var pbsMagic = []byte{'P', 'B', 'S'}

// PBSVersion is the format version every encoder entry point writes. The
// decoder reads every version from 1 up to it: version 2 brought the
// dictionary block's tag table, version 3 the subject-run triple block,
// version 4 the literal runs and numeric literals, version 5 the stats
// frame's numeric range (generation 2, see stats.go).
const (
	PBSVersion           = 5
	pbsTagTableVersion   = 2
	pbsRunsVersion       = 3
	pbsLitRunsVersion    = 4
	pbsRangeStatsVersion = 5
)

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
	if version == 0 || version > PBSVersion {
		return 0, nil, fmt.Errorf("%w: unsupported pbs version %d", ErrCorrupt, version)
	}
	return version, data[len(pbsMagic)+1:], nil
}

func (binCodec) Name() string  { return "pbs" }
func (binCodec) Ext() string   { return ".pbs" }
func (binCodec) Magic() []byte { return pbsMagic }

// Encode serializes g from its insertion log: the refs go through
// the same integer-ID dictionary builder as a delta flush, so closing a
// tracker builds no snapshot index and hashes no term.
func (c binCodec) Encode(w io.Writer, g *rdf.Graph, _ *rdf.Namespaces) error {
	refs, _ := g.RefsSince(0)
	return c.EncodeRefs(w, refs, g)
}

// EncodeRefs is the ID-space fast path: the segment-local dictionary is
// deduplicated on integer graph IDs (no term hashing), and terms are
// fetched from the source dictionary once per distinct ID. Rows are sorted
// and deduplicated, so the output is a function of the triple set alone,
// whichever entry point and whatever log order produced it.
func (binCodec) EncodeRefs(w io.Writer, refs []rdf.TripleID, src TermSource) error {
	terms, tris := refTriples(refs, src)
	return writeSegment(w, terms, sortDedupTriples(tris, len(terms)))
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

// writeSegment emits the framed segment of a canonical dictionary and its
// sorted, distinct local-ID rows (indexes into terms), exactly as given. A
// stats frame summarizing the segment (see SegStats) follows the triple
// block.
func writeSegment(w io.Writer, terms []rdf.Term, tris [][3]uint32) error {
	dict := encodeDict(terms)
	st := ComputeStats(terms, tris, statsGen(PBSVersion))
	sta := st.encode()

	// The triple block is built in the scratch, so the file is the one buffer
	// a segment allocates beyond the dictionary block and the stats.
	sc := encPool.Get().(*encScratch)
	col := sc.appendCols(sc.col[:0], tris)
	out := make([]byte, 0, len(pbsMagic)+1+len(dict)+len(col)+len(sta)+36)
	out = append(append(out, pbsMagic...), PBSVersion)
	out = appendFrame(out, dict)
	out = appendFrame(out, col)
	out = appendFrame(out, sta)
	sc.col = col
	encPool.Put(sc)
	_, err := w.Write(out)
	return err
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

// encodeDict renders the dictionary block of a dictionary in the canonical
// order. The block is sized up front so a flush does not double it up from
// empty: tracked provenance measures 3.7–8.1 bytes per term (front-coded
// IRIs, an integer literal's delta in a few bytes) after a tag table of some
// 50 bytes; a richer dictionary grows the slice.
func encodeDict(terms []rdf.Term) []byte {
	// Sorted kind-first, so the kinds are two boundaries.
	nonLiterals := sort.Search(len(terms), func(i int) bool { return terms[i].Kind > rdf.BlankTerm })
	iris := sort.Search(nonLiterals, func(i int) bool { return terms[i].Kind > rdf.IRITerm })
	literals := terms[nonLiterals:]

	sc := encPool.Get().(*encScratch)
	tags := collectTags(sc.tags[:0], literals)
	integer, ok := slices.BinarySearchFunc(tags, integerTag, tagPair.compare)
	if !ok {
		integer = -1
	}
	// The run table: a literal's head is its tag index and whether it is
	// numeric, and the literals of one head in a row are one run.
	runs := sc.litRuns[:0]
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

	dict := make([]byte, 0, 10*len(terms)+64)
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
	sc.tags, sc.litRuns = tags, runs
	encPool.Put(sc)
	return dict
}

// Decode is DecodeColumns followed by Materialize: the segment is validated
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
	c.Materialize(into)
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
	// order (DecodeColumns rejects any other file); GraphColumns returns
	// them in log order.
	Tris [][3]uint32
	// Version is the format version of the file the columns were decoded
	// from; zero for columns that were not (GraphColumns). Nothing but
	// operator-facing reporting reads it.
	Version byte
	// Stats is the segment's stats frame, verified equal to the stats its
	// contents derive; nil when the file carries none (legacy segments).
	Stats *SegStats
	// Chain is the embedded seal; nil when the file is unsealed.
	Chain *Chain
}

// DecodeColumns parses and validates one binary segment file: magic, every
// frame's CRC, the footer frames and their order, the chain seal, the
// dictionary's strict order, every ID's range, the rows' strict order, the
// stats frame against the contents, and the RDF shape of every triple. An
// error wraps ErrCorrupt (or its ErrTruncated sub-class for a torn write).
func DecodeColumns(data []byte) (*Columns, error) {
	version, rest, err := pbsBody(data)
	if err != nil {
		return nil, err
	}
	dict, rest, err := readFrame(rest)
	if err != nil {
		return nil, fmt.Errorf("%w: dictionary block: %w", ErrCorrupt, err)
	}
	cols, rest, err := readFrame(rest)
	if err != nil {
		return nil, fmt.Errorf("%w: triple block: %w", ErrCorrupt, err)
	}
	// After the data frames: an optional stats frame, then an optional chain
	// frame (the integrity seal appended by the store), in that order.
	// Anything else is structural damage.
	c := &Columns{Version: version}
	var statsPayload []byte
	for len(rest) != 0 {
		if c.Chain != nil {
			return nil, fmt.Errorf("%w: %d trailing bytes after chain frame", ErrCorrupt, len(rest))
		}
		var fp []byte
		fp, rest, err = readFrame(rest)
		if err != nil {
			return nil, fmt.Errorf("%w: footer frame: %w", ErrCorrupt, err)
		}
		switch {
		case bytes.HasPrefix(fp, staTag):
			if statsPayload != nil {
				return nil, fmt.Errorf("%w: duplicate stats frame", ErrCorrupt)
			}
			// One generation per version, so no two versions spell a segment
			// that carries stats alike.
			if want := statsGen(version); len(fp) == len(staTag) || fp[len(staTag)] != want {
				return nil, fmt.Errorf("%w: stats frame: a pbs v%d file carries generation %d only", ErrCorrupt, version, want)
			}
			statsPayload = fp
		case bytes.HasPrefix(fp, chainMagic):
			ch, err := parseChainPayload(fp)
			if err != nil {
				return nil, fmt.Errorf("%w: chain frame: %v", ErrCorrupt, err)
			}
			c.Chain = &ch
		default:
			return nil, fmt.Errorf("%w: unrecognized footer frame", ErrCorrupt)
		}
	}
	var iris, nonLiterals uint32
	if c.Terms, iris, nonLiterals, err = decodeDict(dict, version); err != nil {
		return nil, fmt.Errorf("%w: dictionary block: %v", ErrCorrupt, err)
	}
	if c.Tris, err = decodeCols(cols, version, c.Terms, iris, nonLiterals); err != nil {
		return nil, fmt.Errorf("%w: triple block: %v", ErrCorrupt, err)
	}
	if err := checkNamed(len(c.Terms), c.Tris); err != nil {
		return nil, fmt.Errorf("%w: dictionary block: %v", ErrCorrupt, err)
	}
	if statsPayload != nil {
		// The stats frame must be exactly what the encoder would derive from
		// this content — a forged or stale summary could prune segments that
		// still hold answers, so it is rejected instead of trusted.
		st := ComputeStats(c.Terms, c.Tris, statsGen(version))
		if !bytes.Equal(st.encode(), statsPayload) {
			return nil, fmt.Errorf("%w: stats frame: %s", ErrCorrupt, statsMismatch(statsPayload, &st))
		}
		c.Stats = &st
	}
	return c, nil
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

// checkShape validates the RDF shape of every row of a version 1 or 2 triple
// block: a subject is an IRI or a blank node, a predicate an IRI. The
// dictionary is sorted kind-first, so each rule is one comparison of a local
// ID with a kind boundary: the first iris entries are the IRIs, the first
// nonLiterals the IRIs and blank nodes. (A version 3 block names each subject
// and predicate once, and its decoder checks them there.)
func checkShape(terms []rdf.Term, iris, nonLiterals uint32, tris [][3]uint32) error {
	for i, t := range tris {
		if t[0] >= nonLiterals || t[1] >= iris {
			return fmt.Errorf("triple %d is not valid RDF (S kind %d, P kind %d, O kind %d)",
				i, terms[t[0]].Kind, terms[t[1]].Kind, terms[t[2]].Kind)
		}
	}
	return nil
}

// Materialize unions the segment's triples into the graph. Each dictionary
// entry is interned once, when a triple first uses it, walking the triples
// in file order — the order per-triple inserts would intern in — so the IDs
// into hands out, and its insertion-log order, are a function of the file
// alone.
func (c *Columns) Materialize(into *rdf.Graph) {
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

// decodeDict rebuilds the front-coded term dictionary, rejecting one that is
// not strictly ascending in the canonical term order, and returns it with its
// two kind boundaries (the number of IRIs, and of IRIs plus blank nodes). A
// term costs one allocation, its Value, and every literal's Lang and Datatype
// are the two strings of one entry of the block's tag table.
//
// Besides decodeCols this is the one place the format version matters: a
// version 1 block spells each term's kind and each literal's pair inline and
// has a decoder of its own, which hands back the same three results; versions
// 2 and 3 share this one with version 4, and differ only in how a literal
// names its pair (an index after its value, where version 4 has the run
// table) and in having no numeric literals.
func decodeDict(p []byte, version byte) (terms []rdf.Term, iris, nonLiterals uint32, err error) {
	if version < pbsTagTableVersion {
		return decodeLegacyDict(p)
	}
	var counts [4]uint64 // IRIs, blank nodes, literals, tags
	for i := range counts {
		if counts[i], p, err = getUvarint(p); err != nil {
			return dictError("%v", err)
		}
		// Bounded one by one first, so the sums below cannot overflow.
		if counts[i] > uint64(len(p)) {
			return dictError("count %d exceeds payload", counts[i])
		}
	}
	// A pair costs two lengths. An entry costs at least two varints, and a
	// literal a third before version 4, which spends one varint on a numeric
	// literal and one on the run count; the entries are sized again against
	// the run table below. So both counts are bounded by the payload before
	// anything is allocated, and a pair some literal must name cannot
	// outnumber the literals.
	nLit, nTags := counts[2], counts[3]
	blanks, literals := counts[0], counts[0]+counts[1] // where each run starts
	n := literals + nLit
	least := 2*n + nLit
	runs := version >= pbsLitRunsVersion
	if runs {
		least = n + 1
	}
	if least+2*nTags > uint64(len(p)) {
		return dictError("%d terms and %d tags exceed payload", n, nTags)
	}
	if nTags > nLit {
		return dictError("%d tags for %d literals", nTags, nLit)
	}
	tags := make([]tagPair, nTags)
	for i := range tags {
		var lang, dt []byte
		if lang, dt, p, err = getTag(p); err != nil {
			return dictError("tag %d %v", i, err)
		}
		tags[i] = tagPair{string(lang), string(dt)}
		if i > 0 && tags[i-1].compare(tags[i]) >= 0 {
			return dictError("tag %d: tag table is not strictly ascending", i)
		}
	}
	integer, ok := slices.BinarySearchFunc(tags, integerTag, tagPair.compare)
	if !ok {
		integer = len(tags) // no run can name it
	}
	named := make([]bool, nTags) // named[i] once a literal names tags[i]
	var lit litRuns
	if runs {
		var numeric uint64
		if lit, numeric, p, err = readLitRuns(p, nLit, uint64(integer), named); err != nil {
			return dictError("%v", err)
		}
		if 2*n-numeric > uint64(len(p)) {
			return dictError("%d terms, %d of them numeric, exceed payload", n, numeric)
		}
	}

	terms = make([]rdf.Term, 0, n)
	var (
		val  []byte
		num  int64  // the previous numeric literal's value
		head uint64 // the literal's run head (version 4)
	)
	for i := uint64(0); i < n; i++ {
		t := rdf.Term{Kind: rdf.IRITerm}
		if i >= literals && runs {
			head = lit.next()
			t.Kind, t.Lang, t.Datatype = rdf.LiteralTerm, tags[head>>1].lang, tags[head>>1].datatype
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
		switch {
		case i >= literals && runs:
			if head == uint64(integer)<<1 {
				if _, ok := canonicalInt(t.Value); ok {
					return dictError("term %d: %q is a canonical xsd:integer in a text run", i, t.Value)
				}
			}
		case i >= literals:
			var at uint64
			if at, p, err = getUvarint(p); err != nil {
				return dictError("term %d tag: %v", i, err)
			}
			if at >= nTags {
				return dictError("term %d: tag index %d out of range (%d tags)", i, at, nTags)
			}
			named[at] = true
			t.Kind, t.Lang, t.Datatype = rdf.LiteralTerm, tags[at].lang, tags[at].datatype
		case i >= blanks:
			t.Kind = rdf.BlankTerm
		}
		if i > 0 && !rdf.TermLess(terms[i-1], t) {
			return dictError("term %d: %s", i, errDictOrder)
		}
		terms = append(terms, t)
	}
	if len(p) != 0 {
		return dictError("%d trailing bytes", len(p))
	}
	if unused := slices.Index(named, false); unused >= 0 {
		return dictError("tag %d: no literal uses it", unused)
	}
	return terms, uint32(blanks), uint32(literals), nil
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

// dictError is the error return of the two dictionary decoders.
func dictError(format string, args ...any) ([]rdf.Term, uint32, uint32, error) {
	return nil, 0, 0, fmt.Errorf(format, args...)
}

// errDictOrder: strict order is part of the format. Stats derive zone maps
// from dictionary positions and the pack builder merges dictionaries, so an
// unsorted or repeating dictionary would prune or merge wrongly; it is checked
// across the kind boundaries too, so a version 1 block's kind bytes form the
// three runs a version 2 block announces.
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

// decodeLegacyDict is decodeDict for a version 1 block:
//
//	uvarint termCount
//	per term: kind byte | uvarint sharedPrefix | uvarint suffixLen | suffix
//	          literals append: uvarint langLen | lang | uvarint dtLen | dt
//
// The kind runs are counted as they are read (the order check makes them
// runs), and the inline pairs are gathered into a tag table as they are met,
// so a decoded version 1 dictionary shares its Lang and Datatype strings the
// way a version 2 one does.
func decodeLegacyDict(p []byte) (terms []rdf.Term, iris, nonLiterals uint32, err error) {
	n, p, err := getUvarint(p)
	if err != nil {
		return dictError("%v", err)
	}
	// Every entry costs at least 3 payload bytes (kind + two varints), so a
	// count beyond that is corrupt — checked before allocating.
	if n > uint64(len(p))/3+1 {
		return dictError("term count %d exceeds payload", n)
	}
	terms = make([]rdf.Term, 0, n)
	var (
		val  []byte
		tags []tagPair
	)
	for i := uint64(0); i < n; i++ {
		if len(p) == 0 {
			return dictError("truncated at term %d", i)
		}
		t := rdf.Term{Kind: rdf.TermKind(p[0])}
		if val, p, err = frontCoded(val, p[1:]); err != nil {
			return dictError("term %d: %v", i, err)
		}
		t.Value = string(val)
		switch t.Kind {
		case rdf.IRITerm:
			iris++
			nonLiterals++
		case rdf.BlankTerm:
			nonLiterals++
		case rdf.LiteralTerm:
			var lang, dt []byte
			if lang, dt, p, err = getTag(p); err != nil {
				return dictError("term %d %v", i, err)
			}
			var tag tagPair
			tags, tag = internTag(tags, lang, dt)
			t.Lang, t.Datatype = tag.lang, tag.datatype
		default:
			return dictError("term %d: invalid kind %d", i, t.Kind)
		}
		if i > 0 && !rdf.TermLess(terms[i-1], t) {
			return dictError("term %d: %s", i, errDictOrder)
		}
		terms = append(terms, t)
	}
	if len(p) != 0 {
		return dictError("%d trailing bytes", len(p))
	}
	return terms, iris, nonLiterals, nil
}

// internTag returns the pair a version 1 literal spells inline, with the
// strings of an equal pair met before in this dictionary when there is one.
// The table is bounded: past maxInlineTags distinct pairs, a pair is simply a
// fresh copy.
func internTag(tags []tagPair, lang, dt []byte) ([]tagPair, tagPair) {
	for _, tag := range tags {
		if string(lang) == tag.lang && string(dt) == tag.datatype { // compiled without a conversion
			return tags, tag
		}
	}
	tag := tagPair{string(lang), string(dt)}
	if len(tags) < maxInlineTags {
		tags = append(tags, tag)
	}
	return tags, tag
}

const maxInlineTags = 8

// decodeCols rebuilds the rows of a triple block, rejecting any that are not
// strictly ascending, not of valid RDF shape, or name a term the dictionary
// does not hold. Besides decodeDict it is the one function the format version
// reaches: a version 3 block goes to decodeRuns, an older one to
// decodeLegacyCols.
func decodeCols(p []byte, version byte, terms []rdf.Term, iris, nonLiterals uint32) ([][3]uint32, error) {
	if version >= pbsRunsVersion {
		return decodeRuns(p, uint32(len(terms)), iris, nonLiterals)
	}
	tris, err := decodeLegacyCols(p, len(terms))
	if err != nil {
		return nil, err
	}
	return tris, checkShape(terms, iris, nonLiterals, tris)
}

// decodeLegacyCols walks the column-major triple block of versions 1 and 2 —
// the S column as uvarint deltas, the P and O columns as zig-zag deltas, each
// from the previous row —
//
//	uvarint tripleCount | S column | P column | O column
//
// into local-ID triples, range-checking every ID against the dictionary's
// size and rejecting rows that are not strictly ascending.
func decodeLegacyCols(p []byte, terms int) ([][3]uint32, error) {
	n, p, err := getUvarint(p)
	if err != nil {
		return nil, err
	}
	// Three varints of at least one byte each per triple.
	if n > uint64(len(p))/3+1 {
		return nil, fmt.Errorf("triple count %d exceeds payload", n)
	}
	nt := uint64(terms)
	tris := make([][3]uint32, n)
	var s uint64
	for i := range tris {
		d, r, err := getUvarint(p)
		if err != nil {
			return nil, fmt.Errorf("S column at %d: %v", i, err)
		}
		p = r
		s += d
		if s >= nt {
			return nil, fmt.Errorf("S column at %d: term ID %d out of range (%d terms)", i, s, nt)
		}
		tris[i][0] = uint32(s)
	}
	readCol := func(c int, name string) error {
		var v int64
		for i := range tris {
			d, r, err := getSvarint(p)
			if err != nil {
				return fmt.Errorf("%s column at %d: %v", name, i, err)
			}
			p = r
			v += d
			if v < 0 || uint64(v) >= nt {
				return fmt.Errorf("%s column at %d: term ID %d out of range (%d terms)", name, i, v, nt)
			}
			tris[i][c] = uint32(v)
		}
		return nil
	}
	if err := readCol(1, "P"); err != nil {
		return nil, err
	}
	if err := readCol(2, "O"); err != nil {
		return nil, err
	}
	if len(p) != 0 {
		return nil, fmt.Errorf("%d trailing bytes", len(p))
	}
	// Sorted and distinct is part of the format, like the dictionary's order:
	// a repeated row would be counted by the stats frame, and a reader may
	// merge rows on the strength of it. The S column cannot descend (its
	// deltas are unsigned), so P and O inside an S run are what is left.
	for i := 1; i < len(tris); i++ {
		a, b := tris[i-1], tris[i]
		if a[0] == b[0] && (a[1] > b[1] || a[1] == b[1] && a[2] >= b[2]) {
			return nil, fmt.Errorf("triple %d is not above its predecessor in (s, p, o) order", i)
		}
	}
	return tris, nil
}

// ---- framing and varint primitives ----

var crcTable = crc32.IEEETable

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
