package segcodec

import (
	"slices"
	"sync"

	"github.com/hpc-io/prov-io/internal/rdf"
)

// The three kernels every binary-segment writer shares: the dictionary
// builder (refTriples), the dictionary order (sortTermPerm) and the row sort
// (sortDedup). A segment's bytes are a function of its triple set
// alone, so the kernels only have to agree with rdf.TermLess and with the
// (s, p, o) row order; how they get there is free. They get there without
// hashing, without reflection and without a comparator on the rows: the rows
// and the ID table in time linear in the delta, the dictionary order reading
// each term's distinguishing bytes once.

// encScratch is the working memory of one segment build, pooled so a flush
// allocates nothing but the file it returns. Nothing in it points into a
// graph between builds: terms, the one slice of graph values, is cleared
// before it goes back (release).
type encScratch struct {
	// local maps a graph ID to its segment-local ID plus one. It is all zero
	// between builds: a build clears only the entries it set (gids), so its
	// cost follows the delta it encodes, not the graph the delta came from.
	local []uint32
	gids  []rdf.ID // the distinct graph IDs of a build, in first-mention order
	// perm is the dictionary order, as positions in gids, and then the row
	// sort's three histograms, which the dictionary builder sizes it for.
	perm  []uint32
	terms []rdf.Term  // the dictionary, then room for the stats' predicate list
	tris  [][3]uint32 // the local-ID rows
	rows  [][3]uint32 // the row sort's second buffer
	tags  []tagPair   // the dictionary block's tag table (appendDict clears it)

	// The triple block's: predAt maps a predicate's local ID to its table
	// position plus one (all zero between builds, like local), preds is the
	// table followed by the last object per table entry, and runs the
	// (subject, shape) of every subject run; before them, runs held the
	// dictionary block's literal runs, (tagIndex<<1 | numeric, count).
	predAt []uint32
	preds  []uint32
	runs   [][2]uint32
	shapes shapeSet

	// blocks holds the dictionary, triple and stats frame payloads of one
	// segment end to end, and bits the stats' predicate and numeric marks.
	blocks []byte
	bits   []uint64
}

// encPool lends a scratch to one segment build. The build puts it back on
// its way out, never deferred: a build that panicked leaves local dirty, and
// such a scratch must not reach the next build.
//
// Whether a call finds a used scratch or a fresh one depends on the P it runs
// on and on the collections since the last Put, not on the segment, so a
// kernel sizes each slice it fills once, to a bound of what the build needs
// (grow), rather than doubling it up from empty: a fresh scratch then costs a
// flush about one allocation per slice (TestFreshScratchAllocs), and the
// allocations of an ingest hardly depend on how its flushes were scheduled.
var encPool = sync.Pool{New: func() any { return new(encScratch) }}

// grow returns s with room for n more elements. When s must move it takes
// room for 2n: one scratch serves a tracker's delta flushes and, at Close,
// the canonical file of its whole graph, about twice a delta, and a scratch
// that had to grow for the one should not grow again for the other.
func grow[S ~[]E, E any](s S, n int) S {
	if n <= cap(s)-len(s) {
		return s
	}
	return slices.Grow(s, 2*n)
}

// refTriples builds the canonically sorted segment-local dictionary of the
// terms the refs name, and the refs as local-ID rows in the order given
// (unsorted, undeduplicated). Every ID must be one src has handed out. Terms
// are fetched from src once per distinct ID. Both results are the scratch's,
// and the dictionary leaves room after it for the predicate list of its
// stats (maxPredList + 1 terms).
func (sc *encScratch) refTriples(refs []rdf.TripleID, src TermSource) ([]rdf.Term, [][3]uint32) {
	var top rdf.ID
	for _, r := range refs {
		top = max(top, r.S, r.P, r.O)
	}
	if need := int(top) + 1; len(refs) > 0 && need > len(sc.local) {
		// Twice the need, as grow does, so a growing graph's flushes do not
		// each pay for a table the size of the graph. The old table is all
		// zero: nothing to copy.
		sc.local = make([]uint32, 2*need)
	}
	// No more distinct IDs than the table holds or the rows name.
	local, gids := sc.local, grow(sc.gids[:0], min(len(sc.local), 3*len(refs)))
	for _, r := range refs {
		for _, id := range [3]rdf.ID{r.S, r.P, r.O} {
			if local[id] == 0 {
				gids = append(gids, id)
				local[id] = uint32(len(gids))
			}
		}
	}
	terms := grow(sc.terms[:0], len(gids)+maxPredList+1)[:len(gids)]
	perm := grow(sc.perm[:0], 3*(len(gids)+1))
	for i, id := range gids {
		terms[i] = src.TermOf(id)
		perm = append(perm, uint32(i))
	}
	sortTermPerm(terms, perm, 0)
	for li, at := range perm {
		local[gids[at]] = uint32(li) + 1
	}
	tris := grow(sc.tris[:0], len(refs))[:len(refs)]
	for i, r := range refs {
		tris[i] = [3]uint32{local[r.S] - 1, local[r.P] - 1, local[r.O] - 1}
	}
	for _, id := range gids {
		local[id] = 0
	}
	permuteTerms(terms, perm)
	sc.gids, sc.perm, sc.terms, sc.tris = gids, perm, terms, tris
	return terms, tris
}

// release clears the graph's terms out of the scratch, the dictionary and
// the predicate list after it, and puts the scratch back.
func (sc *encScratch) release() {
	clear(sc.terms[:len(sc.terms)+maxPredList+1])
	encPool.Put(sc)
}

// permuteTerms moves terms[perm[i]] to terms[i] for every i, in place, by
// walking each cycle of the permutation once. perm ends as the identity.
func permuteTerms(terms []rdf.Term, perm []uint32) {
	for i := range perm {
		if perm[i] == uint32(i) {
			continue
		}
		first := terms[i]
		for j := i; ; {
			k := int(perm[j])
			perm[j] = uint32(j)
			if k == i {
				terms[j] = first
				break
			}
			terms[j] = terms[k]
			j = k
		}
	}
}

// sortTermPerm orders perm — indexes into terms that agree on the first d
// bytes of their key — the way rdf.TermLess orders the terms they name. It is
// a three-way radix quicksort on the byte string (Kind, Value...): a pass
// partitions a range on one byte position, so a prefix the range shares
// (PROV-IO IRIs share long ones) is read once per term, not once per
// comparison, and only 4-byte indexes move. Runs of equal Kind and Value,
// which differ in Lang or Datatype, are finished by rdf.TermLess itself.
func sortTermPerm(terms []rdf.Term, perm []uint32, d int) {
	for len(perm) > 1 {
		n := len(perm)
		v := median(termKey(&terms[perm[0]], d), termKey(&terms[perm[n/2]], d), termKey(&terms[perm[n-1]], d))
		lt, i, gt := 0, 0, n
		for i < gt {
			switch k := termKey(&terms[perm[i]], d); {
			case k < v:
				perm[lt], perm[i] = perm[i], perm[lt]
				lt++
				i++
			case k > v:
				gt--
				perm[i], perm[gt] = perm[gt], perm[i]
			default:
				i++
			}
		}
		parts := [3]struct {
			perm []uint32
			d    int
		}{{perm[:lt], d}, {perm[lt:gt], d + 1}, {perm[gt:], d}}
		if v == endOfValue {
			sortByTermLess(terms, parts[1].perm)
			parts[1].perm = nil
		}
		// Recurse into the two smaller parts and go on with the largest: the
		// stack stays logarithmic whatever the pivots and however long the
		// shared prefixes.
		big := 0
		for p := range parts {
			if len(parts[p].perm) > len(parts[big].perm) {
				big = p
			}
		}
		for p := range parts {
			if p != big {
				sortTermPerm(terms, parts[p].perm, parts[p].d)
			}
		}
		perm, d = parts[big].perm, parts[big].d
	}
}

// endOfValue is the key byte of a term whose Value ends before the position
// asked for; it sorts before every real byte, as a prefix sorts before its
// extensions.
const endOfValue = -1

// termKey is byte d of a term's sort key: its Kind, then its Value.
func termKey(t *rdf.Term, d int) int {
	switch {
	case d == 0:
		return int(t.Kind)
	case d <= len(t.Value):
		return int(t.Value[d-1])
	}
	return endOfValue
}

func median(a, b, c int) int {
	return max(min(a, b), min(max(a, b), c))
}

func sortByTermLess(terms []rdf.Term, perm []uint32) {
	slices.SortFunc(perm, func(a, b uint32) int {
		switch {
		case rdf.TermLess(terms[a], terms[b]):
			return -1
		case rdf.TermLess(terms[b], terms[a]):
			return 1
		}
		return 0
	})
}

// sortDedup sorts local-ID rows, every ID below nTerms, into the canonical
// (s, p, o) order and drops duplicates, in place. It is an LSD counting sort
// — three stable scatters, by O, then P, then S — so it takes O(rows +
// nTerms) steps and compares nothing.
func (sc *encScratch) sortDedup(tris [][3]uint32, nTerms int) [][3]uint32 {
	if len(tris) < 2 {
		return tris
	}
	// start[c][k] becomes the position of column c's first row with key k.
	n := nTerms + 1
	count := grow(sc.perm[:0], 3*n)[:3*n]
	clear(count)
	start := [3][]uint32{count[:n], count[n : 2*n], count[2*n:]}
	for _, t := range tris {
		start[0][t[0]+1]++
		start[1][t[1]+1]++
		start[2][t[2]+1]++
	}
	for c := range start {
		for k := 1; k < n; k++ {
			start[c][k] += start[c][k-1]
		}
	}
	sc.rows = grow(sc.rows[:0], len(tris))[:len(tris)]
	scatter := func(dst, src [][3]uint32, c int) {
		next := start[c]
		for _, t := range src {
			dst[next[t[c]]] = t
			next[t[c]]++
		}
	}
	scatter(sc.rows, tris, 2)
	scatter(tris, sc.rows, 1)
	scatter(sc.rows, tris, 0)
	dedup := tris[:0]
	for i, t := range sc.rows {
		if i == 0 || t != sc.rows[i-1] {
			dedup = append(dedup, t)
		}
	}
	sc.perm = count
	return dedup
}
