package segcodec

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"sort"

	"github.com/hpc-io/prov-io/internal/rdf"
)

// binCodec is the PROV-IO binary segment format (.pbs): a dictionary-encoded
// ID-space layout so encoding from insertion-log refs renders no term text
// and decoding interns terms without tokenizing or unescaping.
//
// On-disk layout (all integers are unsigned varints unless noted):
//
//	magic      4 bytes  'P' 'B' 'S' <version=0x01>
//	dict frame          frame{ term dictionary block }
//	triple frame        frame{ triple ID columns }
//	stats frame         frame{ 'S' 'T' 'A' 0x01 ... }   optional (see stats.go)
//	chain frame         frame{ 'C' 'H' 'N' 0x01 ... }   optional (see chain.go)
//
//	frame{payload} = uvarint(len(payload)) | payload | crc32-IEEE(payload), LE
//
// The encoder always writes the stats frame; files from before it existed
// (or with the frame stripped) decode identically — stats only gate segment
// pruning, never correctness. When present, the frame must byte-match the
// stats recomputed from the decoded contents, so a decodable segment can
// never carry stats that would prune wrongly.
//
// The dictionary block is the segment's delta of newly seen terms: every
// distinct term the segment's triples use, exactly once, sorted in the
// canonical term order and front-coded (each IRI stores only the byte length
// shared with its predecessor plus the differing suffix — PROV-IO IRIs share
// long namespace prefixes, so this is where the size win comes from):
//
//	uvarint termCount
//	per term: kind byte | uvarint sharedPrefix | uvarint suffixLen | suffix
//	          literals append: uvarint langLen | lang | uvarint dtLen | dt
//
// Local IDs are positional: the i-th dictionary entry is ID i. Segments are
// self-contained — a segment never references terms from an earlier
// segment's dictionary, because Flush and Compact delete earlier segments
// and a cross-segment delta chain would be unreadable after crash recovery.
//
// The triple block stores the (s, p, o) local-ID triples strictly ascending
// (sorted, no triple twice), column-major, delta-encoded: the S column as non-negative uvarint deltas
// (sorted, so monotone), the P and O columns as zig-zag signed deltas.
//
//	uvarint tripleCount
//	S column | P column | O column
type binCodec struct{}

var pbsMagic = []byte{'P', 'B', 'S', 0x01}

func (binCodec) Name() string  { return "pbs" }
func (binCodec) Ext() string   { return ".pbs" }
func (binCodec) Magic() []byte { return pbsMagic }

// Encode serializes g from its insertion log: the surviving refs go through
// the same integer-ID dictionary builder as a delta flush, so closing a
// tracker builds no snapshot index and hashes no term.
func (c binCodec) Encode(w io.Writer, g *rdf.Graph, _ *rdf.Namespaces) error {
	refs, _ := g.RefsSince(0)
	return c.EncodeRefs(w, refs, g)
}

// EncodeTriples serializes a bare (delta-segment) triple slice: a throwaway
// graph's dictionary numbers the terms, and EncodeRefs does the rest.
func (c binCodec) EncodeTriples(w io.Writer, ts []rdf.Triple) error {
	g := rdf.NewGraph()
	refs := make([]rdf.TripleID, len(ts))
	for i, t := range ts {
		refs[i] = rdf.TripleID{S: g.Intern(t.S), P: g.Intern(t.P), O: g.Intern(t.O)}
	}
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

// writeSegment emits the framed segment of a canonical dictionary and its
// sorted, distinct local-ID rows (indexes into terms), exactly as given. A
// stats frame summarizing the segment (see SegStats) follows the triple
// block.
func writeSegment(w io.Writer, terms []rdf.Term, tris [][3]uint32) error {
	// Both blocks are sized up front so a flush does not double them up from
	// empty. Tracked provenance measures 24–33 dictionary bytes per term
	// (front-coded IRIs, literals spelling out their datatype) and 3–4.5
	// column bytes per triple; a richer segment grows the buffer as before.
	var dict bytes.Buffer
	dict.Grow(32*len(terms) + binary.MaxVarintLen64)
	putUvarint(&dict, uint64(len(terms)))
	prev := ""
	for _, t := range terms {
		dict.WriteByte(byte(t.Kind))
		shared := commonPrefixLen(prev, t.Value)
		putUvarint(&dict, uint64(shared))
		putUvarint(&dict, uint64(len(t.Value)-shared))
		dict.WriteString(t.Value[shared:])
		if t.Kind == rdf.LiteralTerm {
			putUvarint(&dict, uint64(len(t.Lang)))
			dict.WriteString(t.Lang)
			putUvarint(&dict, uint64(len(t.Datatype)))
			dict.WriteString(t.Datatype)
		}
		prev = t.Value
	}

	var col bytes.Buffer
	col.Grow(5*len(tris) + binary.MaxVarintLen64)
	putUvarint(&col, uint64(len(tris)))
	var prevS uint32
	for _, t := range tris {
		putUvarint(&col, uint64(t[0]-prevS))
		prevS = t[0]
	}
	var prevP, prevO int64
	for _, t := range tris {
		putSvarint(&col, int64(t[1])-prevP)
		prevP = int64(t[1])
	}
	for _, t := range tris {
		putSvarint(&col, int64(t[2])-prevO)
		prevO = int64(t[2])
	}

	st := ComputeStats(terms, tris)
	sta := st.encode()

	bw := bytes.NewBuffer(make([]byte, 0, len(pbsMagic)+dict.Len()+col.Len()+len(sta)+36))
	bw.Write(pbsMagic)
	writeFrame(bw, dict.Bytes())
	writeFrame(bw, col.Bytes())
	writeFrame(bw, sta)
	_, err := w.Write(bw.Bytes())
	return err
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
	if !bytes.HasPrefix(data, pbsMagic) {
		if len(data) < len(pbsMagic) && bytes.HasPrefix(pbsMagic, data) {
			return nil, fmt.Errorf("%w inside PBS magic", ErrTruncated)
		}
		return nil, fmt.Errorf("%w: missing PBS magic", ErrCorrupt)
	}
	rest := data[len(pbsMagic):]
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
	c := &Columns{}
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
		case bytes.HasPrefix(fp, staMagic):
			if statsPayload != nil {
				return nil, fmt.Errorf("%w: duplicate stats frame", ErrCorrupt)
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
	if c.Terms, err = decodeDict(dict); err != nil {
		return nil, fmt.Errorf("%w: dictionary block: %v", ErrCorrupt, err)
	}
	if c.Tris, err = decodeCols(cols, len(c.Terms)); err != nil {
		return nil, fmt.Errorf("%w: triple block: %v", ErrCorrupt, err)
	}
	if statsPayload != nil {
		// The stats frame must be exactly what the encoder would derive from
		// this content — a forged or stale summary could prune segments that
		// still hold answers, so it is rejected instead of trusted.
		st := ComputeStats(c.Terms, c.Tris)
		if !bytes.Equal(st.encode(), statsPayload) {
			return nil, fmt.Errorf("%w: stats frame does not match segment contents", ErrCorrupt)
		}
		c.Stats = &st
	}
	if err := checkShape(c.Terms, c.Tris); err != nil {
		return nil, fmt.Errorf("%w: triple block: %v", ErrCorrupt, err)
	}
	return c, nil
}

// checkShape validates the RDF shape of every triple: a subject is an IRI or
// a blank node, a predicate an IRI. The dictionary is sorted kind-first, so
// each rule is one comparison of a local ID with a kind boundary.
func checkShape(terms []rdf.Term, tris [][3]uint32) error {
	iris := uint32(sort.Search(len(terms), func(i int) bool { return terms[i].Kind > rdf.IRITerm }))
	nonLiterals := uint32(sort.Search(len(terms), func(i int) bool { return terms[i].Kind > rdf.BlankTerm }))
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
// not strictly ascending in the canonical term order. A term costs one
// allocation, its Value: val carries the previous value's bytes, so the
// shared prefix is already in place when the suffix is appended, and a Lang
// or Datatype seen before in this dictionary is reused.
func decodeDict(p []byte) ([]rdf.Term, error) {
	n, p, err := getUvarint(p)
	if err != nil {
		return nil, err
	}
	// Every entry costs at least 3 payload bytes (kind + two varints), so a
	// count beyond that is corrupt — checked before allocating.
	if n > uint64(len(p))/3+1 {
		return nil, fmt.Errorf("term count %d exceeds payload", n)
	}
	terms := make([]rdf.Term, 0, n)
	var (
		val  []byte
		memo stringMemo
	)
	for i := uint64(0); i < n; i++ {
		if len(p) == 0 {
			return nil, fmt.Errorf("truncated at term %d", i)
		}
		kind := rdf.TermKind(p[0])
		p = p[1:]
		if kind != rdf.IRITerm && kind != rdf.BlankTerm && kind != rdf.LiteralTerm {
			return nil, fmt.Errorf("term %d: invalid kind %d", i, kind)
		}
		var shared uint64
		if shared, p, err = getUvarint(p); err != nil {
			return nil, err
		}
		if shared > uint64(len(val)) {
			return nil, fmt.Errorf("term %d: shared prefix %d exceeds previous value length %d", i, shared, len(val))
		}
		var b []byte
		if b, p, err = getBytes(p); err != nil {
			return nil, fmt.Errorf("term %d: %v", i, err)
		}
		val = append(val[:shared], b...)
		t := rdf.Term{Kind: kind, Value: string(val)}
		if kind == rdf.LiteralTerm {
			if b, p, err = getBytes(p); err != nil {
				return nil, fmt.Errorf("term %d lang: %v", i, err)
			}
			t.Lang = memo.get(b)
			if b, p, err = getBytes(p); err != nil {
				return nil, fmt.Errorf("term %d datatype: %v", i, err)
			}
			t.Datatype = memo.get(b)
		}
		// Strict order is part of the format: stats derive zone maps from
		// dictionary positions and the pack builder merges dictionaries, so an
		// unsorted or repeating dictionary would prune or merge wrongly.
		if i > 0 && !rdf.TermLess(terms[i-1], t) {
			return nil, fmt.Errorf("term %d: dictionary is not strictly ascending", i)
		}
		terms = append(terms, t)
	}
	if len(p) != 0 {
		return nil, fmt.Errorf("%d trailing bytes", len(p))
	}
	return terms, nil
}

// stringMemo hands out one string per distinct byte sequence, for the few
// language tags and datatype IRIs a dictionary repeats on every literal. It
// is bounded: past its capacity a string is simply a fresh copy.
type stringMemo struct {
	seen [8]string
	n    int
}

func (m *stringMemo) get(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	for _, s := range m.seen[:m.n] {
		if string(b) == s { // compiled without a conversion
			return s
		}
	}
	s := string(b)
	if m.n < len(m.seen) {
		m.seen[m.n] = s
		m.n++
	}
	return s
}

// decodeCols walks the delta-encoded ID columns into local-ID triples,
// range-checking every ID against the dictionary's size and rejecting rows
// that are not strictly ascending.
func decodeCols(p []byte, terms int) ([][3]uint32, error) {
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

// writeFrame appends uvarint(len) | payload | crc32(payload).
func writeFrame(w *bytes.Buffer, payload []byte) {
	putUvarint(w, uint64(len(payload)))
	w.Write(payload)
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.Checksum(payload, crcTable))
	w.Write(crc[:])
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

func putSvarint(w *bytes.Buffer, v int64) {
	var buf [binary.MaxVarintLen64]byte
	w.Write(buf[:binary.PutVarint(buf[:], v)])
}

func getUvarint(p []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(p)
	if n <= 0 {
		return 0, nil, fmt.Errorf("bad uvarint")
	}
	return v, p[n:], nil
}

func getSvarint(p []byte) (int64, []byte, error) {
	v, n := binary.Varint(p)
	if n <= 0 {
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
