package segcodec

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"sort"
	"strconv"

	"github.com/hpc-io/prov-io/internal/rdf"
)

// The encoder's kernels as they were before they became linear — hash maps
// for the dictionary, sort.Slice for its order and for the rows — and the
// version 5 segment written the plain way (maps for the tag table, the
// numeric literals, the predicate table, the shapes and the last object per
// predicate, strconv for the integers, one bytes.Buffer write per field, the
// stats frame from its layout table), kept as the reference the kernel tests
// and FuzzSegcodecEncode compare against. Nothing outside _test.go calls
// them.

// oracleTermTriples builds the canonically sorted dictionary of a triple
// slice by hashing terms, plus the triples as local-ID rows in slice order.
func oracleTermTriples(ts []rdf.Triple) ([]rdf.Term, [][3]uint32) {
	idx := make(map[rdf.Term]uint32, 3*len(ts)/2)
	var terms []rdf.Term
	collect := func(t rdf.Term) {
		if _, ok := idx[t]; !ok {
			idx[t] = 0
			terms = append(terms, t)
		}
	}
	for _, t := range ts {
		collect(t.S)
		collect(t.P)
		collect(t.O)
	}
	sort.Slice(terms, func(i, j int) bool { return rdf.TermLess(terms[i], terms[j]) })
	for i, t := range terms {
		idx[t] = uint32(i)
	}
	tris := make([][3]uint32, len(ts))
	for i, t := range ts {
		tris[i] = [3]uint32{idx[t.S], idx[t.P], idx[t.O]}
	}
	return terms, tris
}

// oracleRefTriples is oracleTermTriples over insertion-log refs.
func oracleRefTriples(refs []rdf.TripleID, src TermSource) ([]rdf.Term, [][3]uint32) {
	local := make(map[rdf.ID]uint32, 3*len(refs)/2)
	var gids []rdf.ID
	collect := func(id rdf.ID) {
		if _, ok := local[id]; !ok {
			local[id] = 0
			gids = append(gids, id)
		}
	}
	for _, r := range refs {
		collect(r.S)
		collect(r.P)
		collect(r.O)
	}
	terms := make([]rdf.Term, len(gids))
	for i, id := range gids {
		terms[i] = src.TermOf(id)
	}
	order := make([]int, len(gids))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return rdf.TermLess(terms[order[a]], terms[order[b]]) })
	sorted := make([]rdf.Term, len(order))
	for li, oi := range order {
		sorted[li] = terms[oi]
		local[gids[oi]] = uint32(li)
	}
	tris := make([][3]uint32, len(refs))
	for i, r := range refs {
		tris[i] = [3]uint32{local[r.S], local[r.P], local[r.O]}
	}
	return sorted, tris
}

// oracleSortDedup sorts rows into (s, p, o) order by comparison and drops
// duplicates in place.
func oracleSortDedup(tris [][3]uint32) [][3]uint32 {
	sort.Slice(tris, func(i, j int) bool {
		a, b := tris[i], tris[j]
		if a[0] != b[0] {
			return a[0] < b[0]
		}
		if a[1] != b[1] {
			return a[1] < b[1]
		}
		return a[2] < b[2]
	})
	dedup := tris[:0]
	for i, t := range tris {
		if i == 0 || t != tris[i-1] {
			dedup = append(dedup, t)
		}
	}
	return dedup
}

// oracleWriteSegment writes the version 5 segment of a canonical dictionary
// and its sorted rows straight from the layout table in binary.go.
func oracleWriteSegment(w io.Writer, terms []rdf.Term, tris [][3]uint32) error {
	var kinds [rdf.LiteralTerm + 1]uint64
	index := map[tagPair]int{}
	var tags []tagPair
	for i := range terms {
		kinds[terms[i].Kind]++
		if tag := tagOf(&terms[i]); terms[i].Kind == rdf.LiteralTerm {
			if _, ok := index[tag]; !ok {
				index[tag] = 0
				tags = append(tags, tag)
			}
		}
	}
	sort.Slice(tags, func(i, j int) bool { return tags[i].compare(tags[j]) < 0 })
	for i, tag := range tags {
		index[tag] = i
	}

	// A numeric literal's run head is its tag index and that bit.
	numeric := map[int]int64{} // by position in terms
	var heads, counts []uint64
	for i := range terms {
		t := &terms[i]
		if t.Kind != rdf.LiteralTerm {
			continue
		}
		head := uint64(index[tagOf(t)]) << 1
		if v, ok := oracleNumeric(t); ok {
			numeric[i] = v
			head |= 1
		}
		if len(heads) > 0 && heads[len(heads)-1] == head {
			counts[len(counts)-1]++
		} else {
			heads, counts = append(heads, head), append(counts, 1)
		}
	}

	var dict, col, out bytes.Buffer
	putUvarint(&dict, kinds[rdf.IRITerm])
	putUvarint(&dict, kinds[rdf.BlankTerm])
	putUvarint(&dict, kinds[rdf.LiteralTerm])
	putUvarint(&dict, uint64(len(tags)))
	for _, tag := range tags {
		putUvarint(&dict, uint64(len(tag.lang)))
		dict.WriteString(tag.lang)
		putUvarint(&dict, uint64(len(tag.datatype)))
		dict.WriteString(tag.datatype)
	}
	putUvarint(&dict, uint64(len(heads)))
	for r := range heads {
		putUvarint(&dict, heads[r])
		putUvarint(&dict, counts[r])
	}
	prev := ""
	var prevNum int64
	for i := range terms {
		t := &terms[i]
		if v, ok := numeric[i]; ok {
			var buf [binary.MaxVarintLen64]byte
			dict.Write(buf[:binary.PutVarint(buf[:], v-prevNum)])
			prevNum, prev = v, t.Value
			continue
		}
		shared := commonPrefixLen(prev, t.Value)
		putUvarint(&dict, uint64(shared))
		putUvarint(&dict, uint64(len(t.Value)-shared))
		dict.WriteString(t.Value[shared:])
		prev = t.Value
	}

	// The triple block: the predicate table from a set, each subject's run
	// as a string key into a map of shapes numbered in first-use order.
	predSet := map[uint32]bool{}
	for _, t := range tris {
		predSet[t[1]] = true
	}
	var preds []uint32
	for p := range predSet {
		preds = append(preds, p)
	}
	sort.Slice(preds, func(i, j int) bool { return preds[i] < preds[j] })
	predIndex := map[uint32]uint32{}
	for i, p := range preds {
		predIndex[p] = uint32(i)
	}
	shapeIndex := map[string]int{}
	var shapes [][]uint32
	var runs [][2]uint32
	for i := 0; i < len(tris); {
		var pairs []uint32
		s := tris[i][0]
		for ; i < len(tris) && tris[i][0] == s; i++ {
			if k := predIndex[tris[i][1]]; len(pairs) > 0 && pairs[len(pairs)-2] == k {
				pairs[len(pairs)-1]++
			} else {
				pairs = append(pairs, k, 1)
			}
		}
		key := fmt.Sprint(pairs)
		if _, ok := shapeIndex[key]; !ok {
			shapeIndex[key] = len(shapes)
			shapes = append(shapes, pairs)
		}
		runs = append(runs, [2]uint32{s, uint32(shapeIndex[key])})
	}
	putUvarint(&col, uint64(len(tris)))
	putUvarint(&col, uint64(len(preds)))
	for i, p := range preds {
		if i == 0 {
			putUvarint(&col, uint64(p))
		} else {
			putUvarint(&col, uint64(p-preds[i-1]))
		}
	}
	putUvarint(&col, uint64(len(shapes)))
	for _, pairs := range shapes {
		putUvarint(&col, uint64(len(pairs)/2))
		for j := 0; j < len(pairs); j += 2 {
			if j == 0 {
				putUvarint(&col, uint64(pairs[j]))
			} else {
				putUvarint(&col, uint64(pairs[j]-pairs[j-2]))
			}
			putUvarint(&col, uint64(pairs[j+1]))
		}
	}
	putUvarint(&col, uint64(len(runs)))
	for i, r := range runs {
		if i == 0 {
			putUvarint(&col, uint64(r[0]))
		} else {
			putUvarint(&col, uint64(r[0]-runs[i-1][0]))
		}
		putUvarint(&col, uint64(r[1]))
	}
	lastObject := map[uint32]int64{}
	for _, t := range tris {
		var buf [binary.MaxVarintLen64]byte
		col.Write(buf[:binary.PutVarint(buf[:], int64(t[2])-lastObject[t[1]])])
		lastObject[t[1]] = int64(t[2])
	}

	out.Write([]byte{'P', 'B', 'S', 5})
	for _, payload := range [][]byte{dict.Bytes(), col.Bytes(), oracleStatsFrame(terms, tris)} {
		putUvarint(&out, uint64(len(payload)))
		out.Write(payload)
		var crc [4]byte
		binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(payload))
		out.Write(crc[:])
	}
	_, err := w.Write(out.Bytes())
	return err
}

// oracleNumeric: a literal is numeric when strconv reads its xsd:integer
// value back to the same text.
func oracleNumeric(t *rdf.Term) (int64, bool) {
	v, err := strconv.ParseInt(t.Value, 10, 64)
	return v, err == nil && t.Kind == rdf.LiteralTerm && t.Lang == "" && t.Datatype == rdf.XSDInteger && strconv.FormatInt(v, 10) == t.Value
}

// oracleStatsFrame writes the generation 2 stats frame payload of a canonical
// dictionary and its sorted rows from the layout table in stats.go: column
// bounds by scanning the rows, the predicates from a set, the numeric
// literals by strconv, the filter term by term through Add, the front coding
// by commonPrefixLen.
func oracleStatsFrame(terms []rdf.Term, tris [][3]uint32) []byte {
	var b bytes.Buffer
	b.WriteString("STA\x02")
	putUvarint(&b, uint64(len(tris)))
	putUvarint(&b, uint64(len(terms)))
	var lo, hi [3]uint32
	predSet := map[uint32]bool{}
	for i, t := range tris {
		for c := range 3 {
			if i == 0 || t[c] < lo[c] {
				lo[c] = t[c]
			}
			if i == 0 || t[c] > hi[c] {
				hi[c] = t[c]
			}
		}
		predSet[t[1]] = true
	}
	var preds []uint32
	for p := range predSet {
		preds = append(preds, p)
	}
	sort.Slice(preds, func(i, j int) bool { return preds[i] < preds[j] })
	var nums []int64
	for _, t := range terms {
		if v, ok := oracleNumeric(&t); ok {
			nums = append(nums, v)
		}
	}
	sort.Slice(nums, func(i, j int) bool { return nums[i] < nums[j] })

	var flags byte
	zoned := [3]bool{}
	for c := range 3 {
		zoned[c] = len(tris) > 0 && len(terms[lo[c]].Value) <= maxZoneValueLen && len(terms[hi[c]].Value) <= maxZoneValueLen
		if zoned[c] {
			flags |= 1 << c
		}
	}
	if len(preds) <= maxPredList {
		flags |= staPreds
	}
	flags |= staBloom
	if len(nums) > 0 {
		flags |= staNums
	}
	b.WriteByte(flags)
	tags := func(t rdf.Term) {
		if t.Kind == rdf.LiteralTerm {
			putUvarint(&b, uint64(len(t.Lang)))
			b.WriteString(t.Lang)
			putUvarint(&b, uint64(len(t.Datatype)))
			b.WriteString(t.Datatype)
		}
	}
	frontCode := func(prev, v string) {
		shared := commonPrefixLen(prev, v)
		putUvarint(&b, uint64(shared))
		putUvarint(&b, uint64(len(v)-shared))
		b.WriteString(v[shared:])
	}
	for c := range 3 {
		if !zoned[c] {
			continue
		}
		min, max := terms[lo[c]], terms[hi[c]]
		b.WriteByte(byte(min.Kind))
		putUvarint(&b, uint64(len(min.Value)))
		b.WriteString(min.Value)
		tags(min)
		b.WriteByte(byte(max.Kind))
		frontCode(min.Value, max.Value)
		tags(max)
	}
	if len(preds) <= maxPredList {
		putUvarint(&b, uint64(len(preds)))
		prev := ""
		for _, p := range preds {
			frontCode(prev, terms[p].Value)
			prev = terms[p].Value
		}
	}
	if len(nums) > 0 {
		var buf [binary.MaxVarintLen64]byte
		b.Write(buf[:binary.PutVarint(buf[:], nums[0])])
		putUvarint(&b, uint64(nums[len(nums)-1]-nums[0]))
	}
	filter := newBloom(len(terms) - len(nums))
	for _, t := range terms {
		if _, ok := oracleNumeric(&t); !ok {
			filter.add(t)
		}
	}
	b.WriteByte(filter.K)
	putUvarint(&b, uint64(len(filter.Bits)))
	b.Write(filter.Bits)
	return b.Bytes()
}

// oracleEncodeRefs and oracleEncodeTerms are the reference encoder's two
// entry points: the old dictionary builders and row sort in front of
// oracleWriteSegment.
func oracleEncodeRefs(w io.Writer, refs []rdf.TripleID, src TermSource) error {
	terms, tris := oracleRefTriples(refs, src)
	return oracleWriteSegment(w, terms, oracleSortDedup(tris))
}

func oracleEncodeTerms(w io.Writer, ts []rdf.Triple) error {
	terms, tris := oracleTermTriples(ts)
	return oracleWriteSegment(w, terms, oracleSortDedup(tris))
}
