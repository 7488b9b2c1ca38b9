package segcodec

import (
	"fmt"

	"github.com/hpc-io/prov-io/internal/rdf"
)

// This file is the frozen reader of pbs versions 1 to 4: every byte-level
// difference between them and version 5 lives here, and nothing in it is
// written again. Frames, seals and packs are the same in all five versions;
// what differs is:
//
//   - version 4 differs from version 5 only in its stats frame, generation 1
//     ('STA\x01'): Max and every predicate spelled like Min, no numeric
//     range, and every term in a Bloom filter sized newBloom(terms);
//   - version 3 wrote that frame too, and a dictionary block with every
//     literal front-coded and its tag index after it, with no run table:
//
//     uvarint nIRI | uvarint nBlank | uvarint nLiteral
//     uvarint nTags | per tag: uvarint langLen | lang | uvarint dtLen | dt
//     per term: uvarint sharedPrefix | uvarint suffixLen | suffix
//     literals append: uvarint tagIndex
//
//   - version 2 wrote that dictionary block, and the triple block
//     column-major, the S column as uvarint deltas and the P and O columns as
//     zig-zag deltas, each from the previous row:
//
//     uvarint tripleCount | S column | P column | O column
//
//   - version 1 wrote that triple block behind a dictionary block spelling
//     every term's kind and every literal's pair inline:
//
//     uvarint termCount
//     per term: kind byte | uvarint sharedPrefix | uvarint suffixLen | suffix
//     literals append: uvarint langLen | lang | uvarint dtLen | dt
//
// A file of any of them decodes to the Columns its version 5 rewrite does,
// with its own stats frame, which is optional here: files from before the
// frame existed decode without one. The frame is generation 1, held byte for
// byte to legacyStats of the contents, and a pack header's generation 1 union
// to legacyUnion. Generation 1 is read and checked by the audit only — no
// read prunes on it — computed nowhere else and written never. A version
// that replaces version 5 moves version 5's reader here.

// DecodeAnyVersion is the one door to this reader: a pbs v5 file through
// DecodeColumns, versions 1 to 4 through legacyColumns. The audit's per-file
// check, which Verify and Compact (the migration) read through, is its only
// caller; every read takes DecodeColumns, which refuses an older file with
// ErrNeedsMigration.
func DecodeAnyVersion(data []byte) (*Columns, error) {
	if version, rest, err := pbsBody(data); err == nil && version < PBSVersion {
		return legacyColumns(version, rest)
	}
	return DecodeColumns(data)
}

// legacyColumns is DecodeColumns for versions 1 to 4.
func legacyColumns(version byte, rest []byte) (*Columns, error) {
	f, err := readFrames(rest, version, staGenBloom)
	if err != nil {
		return nil, err
	}
	c := &Columns{Version: version, Chain: f.chain}
	var iris, nonLiterals uint32
	if version == 4 {
		c.Terms, iris, nonLiterals, err = decodeDict(f.dict)
	} else {
		c.Terms, iris, nonLiterals, err = decodeLegacyDict(f.dict, version)
	}
	if err != nil {
		return nil, fmt.Errorf("%w: dictionary block: %v", ErrCorrupt, err)
	}
	if version >= 3 {
		c.Tris, err = decodeRuns(f.cols, uint32(len(c.Terms)), iris, nonLiterals)
	} else if c.Tris, err = decodeLegacyCols(f.cols, len(c.Terms)); err == nil {
		err = checkShape(c.Terms, iris, nonLiterals, c.Tris)
	}
	if err != nil {
		return nil, fmt.Errorf("%w: triple block: %v", ErrCorrupt, err)
	}
	if err := checkNamed(len(c.Terms), c.Tris); err != nil {
		return nil, fmt.Errorf("%w: dictionary block: %v", ErrCorrupt, err)
	}
	if f.stats != nil {
		st := legacyStats(c.Terms, c.Tris)
		if err := checkStats(f.stats, &st); err != nil {
			return nil, err
		}
		c.Stats = &st
	}
	return c, nil
}

// decodeLegacyDict is decodeDict for a version 1, 2 or 3 block. A version 1
// block has no head: the kinds are counted as they are read, and the order
// check makes them the three runs a later block announces.
func decodeLegacyDict(p []byte, version byte) (terms []rdf.Term, iris, nonLiterals uint32, err error) {
	var h dictHead
	if version == 1 {
		if h.n, p, err = getUvarint(p); err != nil {
			return dictError("%v", err)
		}
		// A kind byte and two varints per entry.
		if h.n > uint64(len(p))/3+1 {
			return dictError("term count %d exceeds payload", h.n)
		}
	} else if h, p, err = readDictHead(p); err != nil {
		return dictError("%v", err)
	} else if 2*h.n+(h.n-h.literals) > uint64(len(p)) { // two varints per entry, a literal's tag index a third
		return dictError("%d terms exceed payload", h.n)
	}
	named := make([]bool, len(h.tags)) // named[i] once a literal names tags[i]
	terms = make([]rdf.Term, 0, h.n)
	var val []byte
	for i := uint64(0); i < h.n; i++ {
		t := rdf.Term{Kind: rdf.IRITerm}
		switch {
		case version == 1 && len(p) == 0:
			return dictError("truncated at term %d", i)
		case version == 1:
			t.Kind, p = rdf.TermKind(p[0]), p[1:]
		case i >= h.literals:
			t.Kind = rdf.LiteralTerm
		case i >= h.blanks:
			t.Kind = rdf.BlankTerm
		}
		if val, p, err = frontCoded(val, p); err != nil {
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
			var tag tagPair
			if version == 1 {
				var lang, dt []byte
				if lang, dt, p, err = getTag(p); err != nil {
					return dictError("term %d %v", i, err)
				}
				tag = tagPair{string(lang), string(dt)}
			} else {
				var at uint64
				if at, p, err = getUvarint(p); err != nil {
					return dictError("term %d tag: %v", i, err)
				}
				if at >= uint64(len(h.tags)) {
					return dictError("term %d: tag index %d out of range (%d tags)", i, at, len(h.tags))
				}
				named[at], tag = true, h.tags[at]
			}
			t.Lang, t.Datatype = tag.lang, tag.datatype
		default:
			return dictError("term %d: invalid kind %d", i, t.Kind)
		}
		if i > 0 && !rdf.TermLess(terms[i-1], t) {
			return dictError("term %d: %s", i, errDictOrder)
		}
		terms = append(terms, t)
	}
	return terms, iris, nonLiterals, dictTail(p, named)
}

// decodeLegacyCols walks the column-major triple block of versions 1 and 2
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
	for c := 1; c < 3; c++ {
		name := "SPO"[c : c+1]
		var v int64
		for i := range tris {
			d, r, err := getSvarint(p)
			if err != nil {
				return nil, fmt.Errorf("%s column at %d: %v", name, i, err)
			}
			p = r
			v += d
			if v < 0 || uint64(v) >= nt {
				return nil, fmt.Errorf("%s column at %d: term ID %d out of range (%d terms)", name, i, v, nt)
			}
			tris[i][c] = uint32(v)
		}
	}
	if len(p) != 0 {
		return nil, fmt.Errorf("%d trailing bytes", len(p))
	}
	// Sorted and distinct is part of the format, like the dictionary's order.
	// The S column cannot descend (its deltas are unsigned), so P and O inside
	// an S run are what is left.
	for i := 1; i < len(tris); i++ {
		a, b := tris[i-1], tris[i]
		if a[0] == b[0] && (a[1] > b[1] || a[1] == b[1] && a[2] >= b[2]) {
			return nil, fmt.Errorf("triple %d is not above its predecessor in (s, p, o) order", i)
		}
	}
	return tris, nil
}

// checkShape validates the RDF shape of every row of a version 1 or 2 triple
// block: a subject is an IRI or a blank node, a predicate an IRI. The
// dictionary is sorted kind-first, so each rule is one comparison of a local
// ID with a kind boundary. (A version 3 block names each subject and
// predicate once, and decodeRuns checks them there.)
func checkShape(terms []rdf.Term, iris, nonLiterals uint32, tris [][3]uint32) error {
	for i, t := range tris {
		if t[0] >= nonLiterals || t[1] >= iris {
			return fmt.Errorf("triple %d is not valid RDF (S kind %d, P kind %d, O kind %d)",
				i, terms[t[0]].Kind, terms[t[1]].Kind, terms[t[2]].Kind)
		}
	}
	return nil
}

// legacyStats derives a generation 1 stats frame: the counts, zone maps and
// predicate list of rowStats, and a Bloom filter over every term.
func legacyStats(terms []rdf.Term, tris [][3]uint32) SegStats {
	st := rowStats(terms, tris)
	st.Gen = staGenBloom
	st.Bloom = newBloom(len(terms))
	st.Bloom.addTerms(terms, nil)
	return st
}

// legacyUnion is the generation 1 union of a pack's members: legacyStats of
// a graph holding every member. A pack written since version 5 carries a
// generation 2 union, so one of generation 1 beside a version 5 member is an
// error.
func legacyUnion(members []*Columns) (SegStats, error) {
	g := rdf.NewGraph()
	for _, c := range members {
		if c.Version == PBSVersion {
			return SegStats{}, fmt.Errorf("pack-level stats of generation %d beside a pbs v%d member", staGenBloom, PBSVersion)
		}
		c.Materialize(g)
	}
	u := GraphColumns(g)
	return legacyStats(u.Terms, sortDedupTriples(u.Tris, len(u.Terms))), nil
}
