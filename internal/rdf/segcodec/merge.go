package segcodec

import (
	"cmp"
	"slices"

	"github.com/hpc-io/prov-io/internal/rdf"
)

// MergeColumns unions decoded segments into the two parts of a sorted
// graph (rdf.NewSortedGraph): terms, every distinct term of the units,
// strictly ascending under rdf.TermLess; and refs, every distinct triple
// over indexes into terms, strictly ascending in (S, P, O) and exactly as
// long as it needs to be.
//
// Each unit's dictionary is strictly ascending (every decoder holds that,
// and so does the tests' graphColumns), and so are its rows when DecodeColumns
// returned them. A k-way merge of the dictionaries therefore numbers the
// union's terms in order and makes every unit's local -> global remap
// monotone, so each unit's remapped rows keep their order. A counting sort
// on S then gathers each subject's rows; a run that several units fill, or
// that came out of graphColumns in log order, is sorted, and then a triple
// two units share sits next to its twin.
// Nothing is hashed. The merge consumes the units: their Tris are rewritten
// to global IDs in place.
//
// A union past the graph's uint32 limits — its term count, or the units' row
// total that bounds its triples — is refused with rdf.ErrGraphFull before
// the union is allocated.
func MergeColumns(units []*Columns) (terms []rdf.Term, refs []rdf.TripleID, err error) {
	var rows uint64
	dicts := make([][]rdf.Term, len(units))
	for u, c := range units {
		dicts[u] = c.Terms
		rows += uint64(len(c.Tris))
	}

	// remaps[u][i] is the global ID of unit u's term i; equal terms of two
	// units come out of the merge in a row, so a term is new when it differs
	// from the last.
	remaps := make([][]uint32, len(units))
	for u, d := range dicts {
		remaps[u] = make([]uint32, len(d))
	}
	var n uint64
	var last *rdf.Term
	mergeTerms(dicts, func(u, i int) {
		if t := &dicts[u][i]; last == nil || *t != *last {
			n, last = n+1, t
		}
		remaps[u][i] = uint32(n - 1)
	})
	if err := rdf.CheckCapacity(n, rows); err != nil {
		return nil, nil, err
	}

	// Count each subject's rows, remapping them; place them in their
	// subject's run, unit after unit; sort the runs that are not in order
	// and drop the repeats.
	terms = make([]rdf.Term, n)
	start := make([]uint32, n+1)
	for u, c := range units {
		m := remaps[u]
		for i, t := range c.Terms {
			terms[m[i]] = t
		}
		for k, r := range c.Tris {
			r = [3]uint32{m[r[0]], m[r[1]], m[r[2]]}
			c.Tris[k] = r
			start[r[0]+1]++
		}
	}
	for s := 1; s < len(start); s++ {
		start[s] += start[s-1]
	}
	refs = make([]rdf.TripleID, rows)
	next := start[:n] // the write cursor of each run, then its end
	for _, c := range units {
		for _, r := range c.Tris {
			refs[next[r[0]]] = rdf.TripleID{S: rdf.ID(r[0]), P: rdf.ID(r[1]), O: rdf.ID(r[2])}
			next[r[0]]++
		}
	}
	w, lo := 0, uint32(0)
	for _, hi := range next {
		run := refs[lo:hi]
		if !slices.IsSortedFunc(run, compareRefs) {
			slices.SortFunc(run, compareRefs)
		}
		for _, r := range run {
			if w == 0 || refs[w-1] != r {
				refs[w] = r
				w++
			}
		}
		lo = hi
	}
	if w < len(refs) {
		// The spare capacity would stay resident with the graph's log.
		refs = append(make([]rdf.TripleID, 0, w), refs[:w]...)
	}
	return terms, refs, nil
}

// compareRefs orders triples by (S, P, O).
func compareRefs(a, b rdf.TripleID) int {
	if c := cmp.Compare(a.S, b.S); c != 0 {
		return c
	}
	if c := cmp.Compare(a.P, b.P); c != 0 {
		return c
	}
	return cmp.Compare(a.O, b.O)
}

// mergeTerms calls visit(u, i) for term i of dictionary u, for every term of
// the ascending dictionaries dicts, in ascending rdf.TermLess order; equal
// terms of different dictionaries come in any order. A tree of losers over
// the dictionaries' heads costs one compare per level, about log2(len(dicts))
// compares a term.
func mergeTerms(dicts [][]rdf.Term, visit func(u, i int)) {
	k := len(dicts)
	if k == 0 {
		return
	}
	pos := make([]int, k)
	// beats reports whether a's head goes before b's; a spent dictionary
	// loses to every other.
	beats := func(a, b int) bool {
		if pos[a] == len(dicts[a]) {
			return false
		}
		return pos[b] == len(dicts[b]) || !rdf.TermLess(dicts[b][pos[b]], dicts[a][pos[a]])
	}
	// Node j's children are 2j and 2j+1; leaf k+u stands for dictionary u.
	// loser[j] keeps the loser of node j's match, loser[0] the winner.
	loser := make([]int, k)
	win := make([]int, 2*k)
	for u := 0; u < k; u++ {
		win[k+u] = u
	}
	for j := k - 1; j >= 1; j-- {
		a, b := win[2*j], win[2*j+1]
		if !beats(a, b) {
			a, b = b, a
		}
		win[j], loser[j] = a, b
	}
	loser[0] = win[1]
	for {
		u := loser[0]
		if pos[u] == len(dicts[u]) {
			return // the winner is spent, so all are
		}
		visit(u, pos[u])
		pos[u]++
		for j := (k + u) / 2; j >= 1; j /= 2 {
			if beats(loser[j], u) {
				loser[j], u = u, loser[j]
			}
		}
		loser[0] = u
	}
}
