package rdf

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// graphModel is the obviously-right reference for Graph: a set of present
// triples and the list of every successful add, in order.
type graphModel struct {
	present map[Triple]struct{}
	log     []Triple
}

func (m *graphModel) add(t Triple) bool {
	if _, dup := m.present[t]; dup {
		return false
	}
	m.present[t] = struct{}{}
	m.log = append(m.log, t)
	return true
}

// checkTable verifies the membership table's own invariants: a power-of-two
// slot array at most 3/4 full, with exactly one slot per log position.
func checkTable(t *testing.T, g *Graph) {
	t.Helper()
	n := len(g.table)
	if n&(n-1) != 0 {
		t.Fatalf("table length %d is not a power of two", n)
	}
	if len(g.log)*4 > n*3 {
		t.Fatalf("table load %d/%d above 3/4", len(g.log), n)
	}
	seen := make([]bool, len(g.log))
	for _, v := range g.table {
		if v == slotEmpty {
			continue
		}
		if int(v) > len(g.log) || seen[v-1] {
			t.Fatalf("slot value %d is out of the log (%d entries) or repeated", v, len(g.log))
		}
		seen[v-1] = true
	}
	for pos, ok := range seen {
		if !ok {
			t.Fatalf("log position %d has no table slot", pos)
		}
	}
}

// checkPinned verifies that a snapshot pins the log prefix want in order,
// with no spare capacity an append could write through.
func checkPinned(t *testing.T, s *Snapshot, want []Triple, at string) {
	t.Helper()
	if got := snapTriples(s); !slices.Equal(got, want) || s.Len() != len(want) {
		t.Fatalf("%s: snapshot holds %d triples (Len %d), not the %d-entry log prefix in order", at, len(got), s.Len(), len(want))
	}
	if cap(s.refs) != len(s.refs) {
		t.Fatalf("%s: pinned refs have cap %d beyond len %d", at, cap(s.refs), len(s.refs))
	}
}

// pinned is a snapshot with the contents it had when taken.
type pinned struct {
	snap *Snapshot
	want []Triple
}

func snapTriples(s *Snapshot) []Triple {
	var out []Triple
	s.ForEachMatch(nil, nil, nil, func(t Triple) bool {
		out = append(out, t)
		return true
	})
	return out
}

// internBothWays interns x through Intern and through InternBytes, in either
// order, and checks they are one operation: the same ID — the next dense one
// if x is new — and the dictionary's own term equal to x in all four fields,
// whatever happens to the caller's bytes afterwards.
func internBothWays(t *testing.T, g *Graph, rng *rand.Rand, x Term, at string) {
	t.Helper()
	before := g.TermCount()
	_, known := g.TermID(x)
	buf := []byte(x.Value)
	var id, byBytes ID
	if rng.Intn(2) == 0 {
		id = g.Intern(x)
		byBytes = g.InternBytes(x.Kind, buf, x.Lang, x.Datatype)
	} else {
		byBytes = g.InternBytes(x.Kind, buf, x.Lang, x.Datatype)
		id = g.Intern(x)
	}
	for i := range buf {
		buf[i] ^= 0xff
	}
	if own := g.TermOf(byBytes); own != x || g.TermOf(id) != x {
		t.Fatalf("%s: InternBytes holds %#v, TermOf(%d) = %#v, want %#v", at, own, id, g.TermOf(id), x)
	}
	if back, ok := g.TermID(x); !ok || back != id || byBytes != id {
		t.Fatalf("%s: %#v has ID %d by Intern, %d by InternBytes, (%d, %v) by TermID", at, x, id, byBytes, back, ok)
	}
	if want := before; !known && (id != ID(want) || g.TermCount() != want+1) {
		t.Fatalf("%s: new term %#v got ID %d of %d terms, want the next dense ID %d", at, x, id, g.TermCount(), want)
	}
	if known && g.TermCount() != before {
		t.Fatalf("%s: interning a held term grew the dictionary from %d to %d", at, before, g.TermCount())
	}
}

// TestGraphModelEquivalence drives random Add/AddBatch/AddRefs interleavings
// through Graph and the model, with terms — those of the triples and an
// adversarial universe of others — interned by value bytes and as Terms in
// between, and checks everything the write side promises: Len, Has, the delta
// cursor (RefsSince), Merge out of the graph, and snapshot contents — the log
// prefix in order, pinned in place with cap == len, extended across table
// growth with and without a built index. Snapshots taken along the way must
// still read what they read then.
func TestGraphModelEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		irng := rand.New(rand.NewSource(-seed)) // interning draws from its own stream, not the graph ops'
		g := NewGraph()
		m := &graphModel{present: map[Triple]struct{}{}}
		randT := func() Triple {
			return tr(fmt.Sprintf("s%d", rng.Intn(60)), fmt.Sprintf("p%d", rng.Intn(5)), fmt.Sprintf("o%d", rng.Intn(30)))
		}
		var pins []pinned
		var views [][2][]TripleID // a LogSince view and the copy RefsSince took with it
		maxTable := 0
		for step := 0; step < 3000; step++ {
			switch op := rng.Intn(7); {
			case op < 4:
				x := randT()
				if got, want := g.Add(x), m.add(x); got != want {
					t.Fatalf("seed %d step %d: Add(%v) = %v, model %v", seed, step, x, got, want)
				}
			case op < 5:
				// AddRefs: pre-interned refs, one of them naming an ID the
				// dictionary never handed out — skipped, not inserted.
				refs := make([]TripleID, 1+rng.Intn(14))
				want := 0
				for i := range refs {
					x := randT()
					refs[i] = TripleID{g.Intern(x.S), g.Intern(x.P), g.Intern(x.O)}
					if m.add(x) {
						want++
					}
				}
				bogus := refs[0]
				bogus.O = ID(g.TermCount() + rng.Intn(3))
				refs = append(refs, bogus)
				if got := g.AddRefs(refs); got != want {
					t.Fatalf("seed %d step %d: AddRefs added %d, model %d", seed, step, got, want)
				}
			default:
				batch := make([]Triple, 1+rng.Intn(14))
				want := 0
				for i := range batch {
					batch[i] = randT()
					if i > 0 && rng.Intn(4) == 0 {
						batch[i] = batch[i-1]
					}
					if m.add(batch[i]) {
						want++
					}
				}
				if got := g.AddBatch(batch); got != want {
					t.Fatalf("seed %d step %d: AddBatch added %d, model %d", seed, step, got, want)
				}
			}
			term := IRI(fmt.Sprintf("http://e/s%d", irng.Intn(120))) // half of them subjects of randT
			if irng.Intn(2) == 0 {
				term = adversarialTerm(byte(irng.Intn(3)), byte(irng.Intn(256)), byte(irng.Intn(64)))
			}
			internBothWays(t, g, irng, term, fmt.Sprintf("seed %d step %d", seed, step))
			if g.Len() != len(m.log) {
				t.Fatalf("seed %d step %d: Len %d, model %d", seed, step, g.Len(), len(m.log))
			}
			x := randT()
			if _, want := m.present[x]; g.Has(x) != want {
				t.Fatalf("seed %d step %d: Has(%v) = %v, model %v", seed, step, x, !want, want)
			}
			if len(g.table) > maxTable {
				maxTable = len(g.table)
			}
			if step%37 != 0 {
				continue
			}
			checkTable(t, g)
			at := fmt.Sprintf("seed %d step %d", seed, step)

			n := rng.Intn(len(m.log) + 1)
			refs, end := g.RefsSince(n)
			if end != len(m.log) || len(refs) != len(m.log)-n {
				t.Fatalf("%s: RefsSince(%d) = %d refs to %d, model %d to %d", at, n, len(refs), end, len(m.log)-n, len(m.log))
			}
			if got := deltaOf(g, n); !slices.Equal(got, m.log[n:]) {
				t.Fatalf("%s: RefsSince(%d) is not the model's log from %d in order", at, n, n)
			}
			if view, vend := g.LogSince(n); vend != end || !slices.Equal(view, refs) || cap(view) != len(view) {
				t.Fatalf("%s: LogSince(%d) = %d refs (cap %d) to %d, RefsSince %d to %d", at, n, len(view), cap(view), vend, len(refs), end)
			} else {
				views = append(views, [2][]TripleID{view, refs})
			}

			// Three merges and a rebuilt reference graph per call: every fourth
			// checkpoint keeps the test's time under the race detector.
			if len(pins)%4 == 0 {
				checkMerge(t, g, m, rng, at)
			}

			snap := g.Snapshot()
			checkPinned(t, snap, m.log, at)
			// Build the index on every other pin, so later snapshots take
			// both the extend-the-index and the build-it-lazily route.
			if len(pins)%2 == 0 {
				snap.IndexStats()
			}
			subjects := map[Term]struct{}{}
			for x := range m.present {
				subjects[x.S] = struct{}{}
			}
			if ns, _, _ := snap.IndexStats(); ns != len(subjects) {
				t.Fatalf("%s: snapshot index has %d subjects, model %d", at, ns, len(subjects))
			}
			pins = append(pins, pinned{snap, m.log})
		}
		for i, p := range pins {
			checkPinned(t, p.snap, p.want, fmt.Sprintf("seed %d: snapshot %d after the run", seed, i))
			if !slices.Equal(p.want, m.log[:len(p.want)]) {
				t.Fatalf("seed %d: snapshot %d is not a prefix of the final log", seed, i)
			}
		}
		for i, v := range views {
			if !slices.Equal(v[0], v[1]) {
				t.Fatalf("seed %d: LogSince view %d changed after the run", seed, i)
			}
		}
		if maxTable <= minTable {
			t.Fatalf("seed %d: table never grew past %d slots", seed, minTable)
		}
	}
}

// checkMerge merges g into an empty graph and into one that already holds
// some of its triples and terms, and merges g into itself. A merge must add
// exactly the missing triples, log them in g's log order after the
// destination's own, and intern terms in that order too.
func checkMerge(t *testing.T, g *Graph, m *graphModel, rng *rand.Rand, at string) {
	t.Helper()
	order := m.log
	if n := g.Merge(g); n != 0 {
		t.Fatalf("%s: self-merge added %d triples", at, n)
	}

	empty := NewGraph()
	if n := empty.Merge(g); n != len(order) {
		t.Fatalf("%s: Merge into an empty graph added %d, model %d", at, n, len(order))
	}
	checkPinned(t, empty.Snapshot(), order, at+": merged into an empty graph")
	byAdd := NewGraph()
	for _, x := range order {
		byAdd.Add(x)
	}
	for id := 0; id < byAdd.TermCount(); id++ {
		if empty.TermOf(ID(id)) != byAdd.TermOf(ID(id)) {
			t.Fatalf("%s: merged graph interned term %d out of first-use order", at, id)
		}
	}
	if empty.TermCount() != byAdd.TermCount() {
		t.Fatalf("%s: merged graph interned %d terms, per-triple adds %d", at, empty.TermCount(), byAdd.TermCount())
	}

	part := NewGraph()
	partLog := []Triple{tr("elsewhere", "p0", "o0")}
	had := map[Triple]bool{}
	for _, x := range order {
		if rng.Intn(3) == 0 {
			partLog = append(partLog, x)
			had[x] = true
		}
	}
	part.AddBatch(partLog)
	for _, x := range order {
		if !had[x] {
			partLog = append(partLog, x)
		}
	}
	if n := part.Merge(g); n != len(order)-len(had) {
		t.Fatalf("%s: Merge into a graph holding %d of %d added %d", at, len(had), len(order), n)
	}
	checkPinned(t, part.Snapshot(), partLog, at+": merged into a graph holding some of it")
}

// TestMergeConcurrentWithAdd merges while both graphs take inserts (run
// under -race): every triple the source held when a merge started must be
// in the destination when that merge returns.
func TestMergeConcurrentWithAdd(t *testing.T) {
	src, dst := NewGraph(), NewGraph()
	var wg sync.WaitGroup
	for w, g := range []*Graph{src, dst} {
		wg.Add(1)
		go func(w int, g *Graph) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				g.Add(tr(fmt.Sprintf("w%d-s%d", w, i%97), "p", fmt.Sprintf("o%d", i)))
			}
		}(w, g)
	}
	for round := 0; round < 20; round++ {
		before := deltaOf(src, 0)
		dst.Merge(src)
		for _, x := range before {
			if !dst.Has(x) {
				t.Fatalf("round %d: merge lost %v", round, x)
			}
		}
	}
	wg.Wait()
	dst.Merge(src)
	if want := 4000; dst.Len() != want {
		t.Fatalf("after the final merge the destination holds %d triples, want %d", dst.Len(), want)
	}
}
