package segcodec

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// The version 3 triple block. Rows are strictly ascending in (s, p, o), and
// every PROV-IO record of one class states the same predicates about its
// subject, so the block spells a subject once per run of its rows and the
// predicates of the run once per distinct pattern — a shape — instead of
// once per triple:
//
//	uvarint tripleCount
//	uvarint nPreds   | per predicate: uvarint local-ID delta
//	uvarint nShapes  | per shape: uvarint nPairs | per pair: uvarint predIndexDelta, uvarint count
//	uvarint nRuns    | per subject run: uvarint subjectDelta, uvarint shapeIndex
//	O column         | per row: zig-zag varint delta from the previous object of the same predicate
//
// A predicate is named by its position in the predicate table; a shape lists
// the (predicate index, row count) pairs of one subject run; a run is a
// subject and the index of its shape. The first delta of each list is the
// value itself, and the O column's first delta per predicate is taken from 0.
//
// The block is canonical by rejection, so a segment's bytes stay a function
// of its triple set: the predicate table is strictly ascending, every entry
// an IRI and every entry named by some shape; a shape's pairs are strictly
// ascending with counts of at least one; shapes are distinct, numbered in the
// order runs first use them, and every one is used; subjects are strictly
// ascending IRIs or blank nodes; the runs' shapes hold exactly tripleCount
// rows; and objects ascend inside each (s, p) group.

// appendCols appends the triple block of rows to dst. The rows are sorted
// and distinct when the segment is to decode; the block spells any other
// order too (a descending predicate or subject wraps to a delta the decoder
// rejects), which is what tests build hostile segments with.
func (sc *encScratch) appendCols(dst []byte, tris [][3]uint32) []byte {
	// The predicate table: predAt maps a predicate's local ID to its table
	// position plus one, and is all zero again on the way out.
	var top uint32
	runs := 0
	for i, t := range tris {
		top = max(top, t[1])
		if i == 0 || t[0] != tris[i-1][0] {
			runs++
		}
	}
	if need := int(top) + 1; len(tris) > 0 && need > len(sc.predAt) {
		sc.predAt = make([]uint32, 2*need)
	}
	// Twice the entries: the last objects follow the table.
	predAt, preds := sc.predAt, grow(sc.preds[:0], 2*min(int(top)+1, len(tris)))
	for _, t := range tris {
		if predAt[t[1]] == 0 {
			predAt[t[1]] = 1
			preds = append(preds, t[1])
		}
	}
	slices.Sort(preds)
	for k, p := range preds {
		predAt[p] = uint32(k) + 1
	}

	// One pass over the runs: each appends its pairs to the shape set, which
	// keeps them only when the shape is new. A run is one shape and its pairs
	// count its rows, so the set never holds more than runs shapes and two
	// words a row.
	set := &sc.shapes
	set.reset(runs)
	set.ends, set.pairs = grow(set.ends, runs), grow(set.pairs, 2*len(tris))
	sc.runs = grow(sc.runs[:0], runs)
	for i := 0; i < len(tris); {
		s, from := tris[i][0], len(set.pairs)
		for i < len(tris) && tris[i][0] == s {
			k, n := predAt[tris[i][1]]-1, uint32(0)
			for ; i < len(tris) && tris[i][0] == s && predAt[tris[i][1]]-1 == k; i++ {
				n++
			}
			set.pairs = append(set.pairs, k, n)
		}
		shape, _ := set.intern(from)
		sc.runs = append(sc.runs, [2]uint32{s, shape})
	}

	// Every count, delta and ID below takes at most five bytes.
	dst = grow(dst, 5*(4+len(preds)+set.len()+len(set.pairs)+2*len(sc.runs)+len(tris)))
	dst = binary.AppendUvarint(dst, uint64(len(tris)))
	dst = binary.AppendUvarint(dst, uint64(len(preds)))
	var prev uint32
	for _, p := range preds {
		dst = binary.AppendUvarint(dst, uint64(p-prev))
		prev = p
	}
	dst = binary.AppendUvarint(dst, uint64(set.len()))
	for i := range set.len() {
		pairs := set.shape(i)
		dst = binary.AppendUvarint(dst, uint64(len(pairs)/2))
		prev = 0
		for j := 0; j < len(pairs); j += 2 {
			dst = binary.AppendUvarint(dst, uint64(pairs[j]-prev))
			dst = binary.AppendUvarint(dst, uint64(pairs[j+1]))
			prev = pairs[j]
		}
	}
	dst = binary.AppendUvarint(dst, uint64(len(sc.runs)))
	prev = 0
	for _, r := range sc.runs {
		dst = binary.AppendUvarint(dst, uint64(r[0]-prev))
		dst = binary.AppendUvarint(dst, uint64(r[1]))
		prev = r[0]
	}

	last := preds[len(preds) : 2*len(preds)]
	clear(last)
	for _, t := range tris {
		k := predAt[t[1]] - 1
		dst = binary.AppendVarint(dst, int64(t[2])-int64(last[k]))
		last[k] = t[2]
	}
	for _, p := range preds {
		predAt[p] = 0
	}
	sc.preds = preds
	return dst
}

// decodeRuns is the decoder of the version 3 triple block: it validates every
// rule above and returns the rows. The dictionary holds nTerms entries, the
// first iris of them IRIs and the first nonLiterals IRIs or blank nodes. Its
// tables are its own rather than the encoder's pooled scratch: borrowing the
// pool from a store open's parallel decodes slowed the resident queries that
// followed by 6–13 % (bench/perf, dassa-resident lineage and aggregates).
func decodeRuns(p []byte, nTerms, iris, nonLiterals uint32) ([][3]uint32, error) {
	// Every count is bounded by the payload before anything is sized by it: a
	// row costs at least its O byte, a shape three bytes and a run two, and
	// each predicate and shape is used, so neither outnumbers the rows.
	var n, nPreds, nShapes, nRuns uint64
	var err error
	if n, p, err = getUvarint(p); err != nil {
		return nil, fmt.Errorf("triple count: %v", err)
	}
	if n > uint64(len(p)) {
		return nil, fmt.Errorf("triple count %d exceeds payload", n)
	}
	if nPreds, p, err = getUvarint(p); err != nil {
		return nil, fmt.Errorf("predicate count: %v", err)
	}
	if nPreds > n {
		return nil, fmt.Errorf("%d predicates for %d triples", nPreds, n)
	}
	preds := make([]uint32, 0, nPreds)
	var pid uint64
	for k := range nPreds {
		var d uint64
		if d, p, err = getUvarint(p); err != nil {
			return nil, fmt.Errorf("predicate %d: %v", k, err)
		}
		if k > 0 && d == 0 {
			return nil, fmt.Errorf("predicate %d: predicate table is not strictly ascending", k)
		}
		if d >= uint64(iris)-pid { // pid <= iris throughout: no overflow
			return nil, fmt.Errorf("predicate %d: delta %d from term %d leaves the %d IRIs", k, d, pid, iris)
		}
		pid += d
		preds = append(preds, uint32(pid))
	}

	if nShapes, p, err = getUvarint(p); err != nil {
		return nil, fmt.Errorf("shape count: %v", err)
	}
	if nShapes > n || 3*nShapes > uint64(len(p)) {
		return nil, fmt.Errorf("%d shapes for %d triples exceed payload", nShapes, n)
	}
	// named counts the shapes naming each predicate until the O column reuses
	// it as the last object seen per predicate.
	named := make([]uint32, nPreds)
	var set shapeSet
	set.reset(int(nShapes))
	for i := range nShapes {
		var pairs uint64
		if pairs, p, err = getUvarint(p); err != nil {
			return nil, fmt.Errorf("shape %d: %v", i, err)
		}
		if pairs == 0 || pairs > nPreds {
			return nil, fmt.Errorf("shape %d: %d pairs over %d predicates", i, pairs, nPreds)
		}
		from := len(set.pairs)
		var k, size uint64
		for j := range pairs {
			var d, c uint64
			if d, p, err = getUvarint(p); err != nil {
				return nil, fmt.Errorf("shape %d pair %d: %v", i, j, err)
			}
			if c, p, err = getUvarint(p); err != nil {
				return nil, fmt.Errorf("shape %d pair %d: %v", i, j, err)
			}
			if j > 0 && d == 0 {
				return nil, fmt.Errorf("shape %d pair %d: pairs are not strictly ascending", i, j)
			}
			if d >= nPreds-k {
				return nil, fmt.Errorf("shape %d pair %d: predicate index out of range (%d predicates)", i, j, nPreds)
			}
			if c == 0 || c > n-size {
				return nil, fmt.Errorf("shape %d pair %d: count %d (%d triples)", i, j, c, n)
			}
			k, size = k+d, size+c
			named[k]++
			set.pairs = append(set.pairs, uint32(k), uint32(c))
		}
		if _, fresh := set.intern(from); !fresh {
			return nil, fmt.Errorf("shape %d repeats an earlier shape", i)
		}
	}
	if unused := uint64(slices.Index(named, 0)); unused < nPreds {
		return nil, fmt.Errorf("predicate %d: no shape names it", unused)
	}

	if nRuns, p, err = getUvarint(p); err != nil {
		return nil, fmt.Errorf("run count: %v", err)
	}
	if nRuns > n || 2*nRuns > uint64(len(p)) {
		return nil, fmt.Errorf("%d runs for %d triples exceed payload", nRuns, n)
	}
	tris := make([][3]uint32, n)
	var row, s, next uint64 // next: the index the next new shape must carry
	for r := range nRuns {
		var d, shape uint64
		if d, p, err = getUvarint(p); err != nil {
			return nil, fmt.Errorf("run %d: %v", r, err)
		}
		if shape, p, err = getUvarint(p); err != nil {
			return nil, fmt.Errorf("run %d: %v", r, err)
		}
		if r > 0 && d == 0 {
			return nil, fmt.Errorf("run %d: subjects are not strictly ascending", r)
		}
		if d >= uint64(nonLiterals)-s {
			return nil, fmt.Errorf("run %d: delta %d from term %d leaves the %d IRIs and blank nodes", r, d, s, nonLiterals)
		}
		s += d
		switch {
		case shape >= nShapes:
			return nil, fmt.Errorf("run %d: shape %d out of range (%d shapes)", r, shape, nShapes)
		case shape > next:
			return nil, fmt.Errorf("run %d: shape %d used before shape %d", r, shape, next)
		case shape == next:
			next++
		}
		pairs := set.shape(int(shape))
		for j := 0; j < len(pairs); j += 2 {
			k, c := pairs[j], uint64(pairs[j+1])
			if c > n-row {
				return nil, fmt.Errorf("run %d: runs hold more than %d triples", r, n)
			}
			for end := row + c; row < end; row++ {
				tris[row] = [3]uint32{uint32(s), k, 0}
			}
		}
	}
	if next != nShapes {
		return nil, fmt.Errorf("shape %d: no run uses it", next)
	}
	if row != n {
		return nil, fmt.Errorf("runs hold %d triples, count says %d", row, n)
	}

	// The O column. P holds the predicate's table index until its row is done.
	last := named
	clear(last)
	for i := range tris {
		var d int64
		if d, p, err = getSvarint(p); err != nil {
			return nil, fmt.Errorf("O column at %d: %v", i, err)
		}
		k := tris[i][1]
		o := int64(last[k]) + max(min(d, int64(nTerms)), -int64(nTerms)) // clamped: no overflow, still out of range
		if o < 0 || o >= int64(nTerms) {
			return nil, fmt.Errorf("O column at %d: delta %d from term %d out of range (%d terms)", i, d, last[k], nTerms)
		}
		if d <= 0 && i > 0 && tris[i-1][0] == tris[i][0] && tris[i-1][1] == preds[k] {
			return nil, fmt.Errorf("triple %d is not above its predecessor in (s, p, o) order", i)
		}
		last[k] = uint32(o)
		tris[i][1], tris[i][2] = preds[k], last[k]
	}
	if len(p) != 0 {
		return nil, fmt.Errorf("%d trailing bytes", len(p))
	}
	return tris, nil
}

// shapeSet numbers distinct shapes in the order they are first interned.
// Shape i is pairs[ends[i-1]:ends[i]], flat (predicate index, count) pairs.
type shapeSet struct {
	pairs []uint32
	ends  []uint32
	slots []uint32 // open addressing: shape index plus one, zero for empty
}

// reset empties the set for at most n shapes: the table is sized once, so
// interning never grows it.
func (s *shapeSet) reset(n int) {
	size := 8
	for size < 2*n {
		size *= 2
	}
	if cap(s.slots) < size {
		s.slots = make([]uint32, size)
	}
	s.slots = s.slots[:size]
	clear(s.slots)
	s.pairs, s.ends = s.pairs[:0], s.ends[:0]
}

func (s *shapeSet) len() int { return len(s.ends) }

func (s *shapeSet) shape(i int) []uint32 {
	from := uint32(0)
	if i > 0 {
		from = s.ends[i-1]
	}
	return s.pairs[from:s.ends[i]]
}

// intern numbers the shape made of pairs[from:], the pairs appended since
// the last call. A shape seen before keeps its number and its pairs are
// dropped again; fresh reports a new one.
func (s *shapeSet) intern(from int) (index uint32, fresh bool) {
	key := s.pairs[from:]
	h := uint64(14695981039346656037) // FNV-1a over the words
	for _, v := range key {
		h = (h ^ uint64(v)) * 1099511628211
	}
	mask := uint64(len(s.slots) - 1)
	for at := (h ^ h>>32) & mask; ; at = (at + 1) & mask {
		switch i := s.slots[at]; {
		case i == 0:
			s.ends = append(s.ends, uint32(len(s.pairs)))
			s.slots[at] = uint32(len(s.ends))
			return uint32(len(s.ends) - 1), true
		case slices.Equal(s.shape(int(i-1)), key):
			s.pairs = s.pairs[:from]
			return i - 1, false
		}
	}
}
