package core

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/hpc-io/prov-io/internal/rdf"
	"github.com/hpc-io/prov-io/internal/rdf/segcodec"
)

// sortedMergeStore writes random segments over one small vocabulary — IRIs,
// blank nodes, plain, language-tagged, typed and integer literals — so units
// share terms, and every few segments repeat triples an earlier segment
// wrote. The first wave is packed, the second stays loose. It returns the
// store and every triple written.
func sortedMergeStore(t *testing.T, rng *rand.Rand) (*Store, []rdf.Triple) {
	t.Helper()
	store := newBinaryVFSStore(t)
	subject := func() rdf.Term {
		if rng.Intn(6) == 0 {
			return rdf.Blank(fmt.Sprintf("b%d", rng.Intn(8)))
		}
		return rdf.IRI(fmt.Sprintf("urn:n%d", rng.Intn(30)))
	}
	object := func() rdf.Term {
		switch rng.Intn(8) {
		case 0:
			return rdf.Literal(fmt.Sprintf("v%d", rng.Intn(6)))
		case 1:
			return rdf.LangLiteral(fmt.Sprintf("v%d", rng.Intn(6)), []string{"en", "de"}[rng.Intn(2)])
		case 2:
			return rdf.TypedLiteral(fmt.Sprintf("v%d", rng.Intn(6)), "urn:type")
		case 3:
			return rdf.Integer(int64(rng.Intn(20) - 5))
		case 4:
			return rdf.Blank(fmt.Sprintf("b%d", rng.Intn(8)))
		}
		return rdf.IRI(fmt.Sprintf("urn:n%d", rng.Intn(30)))
	}
	var written []rdf.Triple
	wave := func(pidBase, nSegs int) {
		for s := 0; s < nSegs; s++ {
			n := 1 + rng.Intn(12)
			ts := make([]rdf.Triple, 0, n)
			for i := 0; i < n; i++ {
				if len(written) > 0 && rng.Intn(4) == 0 {
					ts = append(ts, written[rng.Intn(len(written))])
					continue
				}
				ts = append(ts, rdf.Triple{S: subject(), P: rdf.IRI(fmt.Sprintf("urn:p%d", rng.Intn(5))), O: object()})
			}
			if err := writeDelta(store, pidBase+s%3, s/3, ts); err != nil {
				t.Fatal(err)
			}
			written = append(written, ts...)
		}
	}
	wave(0, 4+rng.Intn(6))
	if _, err := store.PackSegments(1); err != nil {
		t.Fatalf("PackSegments: %v", err)
	}
	wave(10, 2+rng.Intn(5))
	return store, written
}

// unionOracle is the union of triples as interning builds it: rdf.NewGraph,
// each term interned, AddRefs.
func unionOracle(ts []rdf.Triple) *rdf.Graph {
	g := rdf.NewGraph()
	refs := make([]rdf.TripleID, len(ts))
	for i, x := range ts {
		refs[i] = rdf.TripleID{S: g.Intern(x.S), P: g.Intern(x.P), O: g.Intern(x.O)}
	}
	g.AddRefs(refs)
	return g
}

// admittedTriples decodes the units a pruned merge admits, for the oracle of
// that merge.
func admittedTriples(t *testing.T, store *Store, pr *SegmentPruner) []rdf.Triple {
	t.Helper()
	l, err := store.listUnits()
	if err != nil {
		t.Fatal(err)
	}
	keep, _ := admit(l.units, pr)
	var ts []rdf.Triple
	for _, u := range keep {
		data, err := u.fetch(store)
		if err != nil {
			t.Fatal(err)
		}
		c, err := segcodec.DecodeColumns(data)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range c.Tris {
			ts = append(ts, rdf.Triple{S: c.Terms[r[0]], P: c.Terms[r[1]], O: c.Terms[r[2]]})
		}
	}
	return ts
}

// TestSortedMergeEqualsUnion: MergePruned's sorted graph holds exactly the
// union interning builds — the same sorted triples, count and terms — at 1,
// 2 and 4 workers, with and without a pruner, over stores whose packed and
// loose units share terms and triples. Its IDs ascend in term order and its
// log in (S, P, O); a term no unit holds answers (0, false).
func TestSortedMergeEqualsUnion(t *testing.T) {
	absent := []rdf.Term{
		rdf.IRI("urn:absent"), rdf.IRI("a"), rdf.IRI("zzz"), rdf.Blank("urn:n1"),
		rdf.Literal("urn:n1"), rdf.LangLiteral("v1", "fr"), rdf.TypedLiteral("v1", "urn:other"),
		rdf.Integer(1000), {},
	}
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		store, written := sortedMergeStore(t, rng)
		pick := written[rng.Intn(len(written))]
		for _, pr := range []*SegmentPruner{
			nil,
			{Patterns: []PrunePattern{{P: &pick.P}}},
			{Patterns: []PrunePattern{{S: &pick.S}, {O: &pick.O}}},
		} {
			oracle := unionOracle(written)
			if pr != nil {
				oracle = unionOracle(admittedTriples(t, store, pr))
			}
			want := oracle.SortedTriples()
			for _, workers := range []int{1, 2, 4} {
				tag := fmt.Sprintf("seed %d, pruner %v, %d workers", seed, pr != nil, workers)
				g, _, err := store.MergePruned(pr, workers)
				if err != nil {
					t.Fatalf("%s: %v", tag, err)
				}
				if g.Len() != oracle.Len() || g.TermCount() != oracle.TermCount() {
					t.Fatalf("%s: %d triples, %d terms; the union has %d, %d", tag, g.Len(), g.TermCount(), oracle.Len(), oracle.TermCount())
				}
				if got := g.SortedTriples(); !slices.Equal(got, want) {
					t.Fatalf("%s: the merged triples differ from the union's", tag)
				}
				for id := rdf.ID(0); int(id) < oracle.TermCount(); id++ {
					term := oracle.TermOf(id)
					if gid, ok := g.TermID(term); !ok || g.TermOf(gid) != term {
						t.Fatalf("%s: TermID(%v) = %d, %v", tag, term, gid, ok)
					}
				}
				for id := rdf.ID(1); int(id) < g.TermCount(); id++ {
					if !rdf.TermLess(g.TermOf(id-1), g.TermOf(id)) {
						t.Fatalf("%s: term %d (%v) does not sort after term %d (%v)", tag, id, g.TermOf(id), id-1, g.TermOf(id-1))
					}
				}
				refs, _ := g.RefsSince(0)
				for i := 1; i < len(refs); i++ {
					a, b := refs[i-1], refs[i]
					if a.S > b.S || (a.S == b.S && (a.P > b.P || (a.P == b.P && a.O >= b.O))) {
						t.Fatalf("%s: log position %d holds %v after %v", tag, i, b, a)
					}
				}
				for _, term := range absent {
					if id, ok := g.TermID(term); ok || id != 0 {
						t.Fatalf("%s: absent TermID(%v) = %d, %v", tag, term, id, ok)
					}
				}
			}
		}
	}
}

// TestSortedMergeRefusesPastUint32: a union past the graph's uint32 limits
// is a classified rdf.ErrGraphFull, checked on the counts before anything
// of that size is allocated; at the limits it is not.
func TestSortedMergeRefusesPastUint32(t *testing.T) {
	const limit = uint64(1<<32 - 2)
	for _, c := range []struct {
		terms, triples uint64
		full           bool
	}{
		{0, 0, false},
		{limit, limit, false},
		{limit + 1, 1, true},
		{1, limit + 1, true},
		{1 << 33, 1 << 40, true},
	} {
		err := rdf.CheckCapacity(c.terms, c.triples)
		if got := errors.Is(err, rdf.ErrGraphFull); got != c.full {
			t.Fatalf("CheckCapacity(%d terms, %d triples) = %v, want full %v", c.terms, c.triples, err, c.full)
		}
	}
}
