package segcodec

import (
	"io"
	"sort"

	"github.com/hpc-io/prov-io/internal/rdf"
)

// The encoder's kernels as they were before they became linear — hash maps
// for the dictionary, sort.Slice for its order and for the rows — kept as the
// reference the kernel tests and FuzzSegcodecEncode compare against. Nothing
// outside _test.go calls them.

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

// oracleEncodeRefs and oracleEncodeTriples are the parent's two encode entry
// points: the old dictionary builders and row sort in front of writeSegment.
func oracleEncodeRefs(w io.Writer, refs []rdf.TripleID, src TermSource) error {
	terms, tris := oracleRefTriples(refs, src)
	return writeSegment(w, terms, oracleSortDedup(tris))
}

func oracleEncodeTriples(w io.Writer, ts []rdf.Triple) error {
	terms, tris := oracleTermTriples(ts)
	return writeSegment(w, terms, oracleSortDedup(tris))
}
