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

func (m *graphModel) remove(t Triple) bool {
	if _, ok := m.present[t]; !ok {
		return false
	}
	delete(m.present, t)
	return true
}

// since is the TriplesSince contract: every log entry at position >= n whose
// triple is present now — by value, so a triple removed and re-added counts
// once per log entry.
func (m *graphModel) since(n int) []Triple {
	var out []Triple
	for _, t := range m.log[n:] {
		if _, ok := m.present[t]; ok {
			out = append(out, t)
		}
	}
	return out
}

// checkTable verifies the membership table's own invariants.
func checkTable(t *testing.T, g *Graph) {
	t.Helper()
	n := len(g.table)
	if n&(n-1) != 0 {
		t.Fatalf("table length %d is not a power of two", n)
	}
	if g.used*4 > n*3 {
		t.Fatalf("table load %d/%d above 3/4", g.used, n)
	}
	live, tombs := 0, 0
	for _, v := range g.table {
		switch v {
		case slotEmpty:
		case slotTomb:
			tombs++
		default:
			live++
		}
	}
	if live != g.size || live+tombs != g.used {
		t.Fatalf("table holds %d live + %d tombstones, graph says size %d used %d", live, tombs, g.size, g.used)
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

// TestGraphModelEquivalence drives random Add/AddBatch/AddRefs/Remove/re-add
// interleavings through Graph and the model, with terms — those of the
// triples and an adversarial universe of others — interned by value bytes and
// as Terms in between, and checks everything the write side promises: Len,
// Has, the delta cursor (TriplesSince/RefsSince), Merge out of the graph (tombstones and repeated log entries included), and
// snapshot contents — pinned in place while nothing was removed, extended
// incrementally, rebuilt after a Remove — across table growth and tombstone
// reuse. Snapshots taken along the way must still read what they read then.
func TestGraphModelEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		irng := rand.New(rand.NewSource(-seed)) // interning draws from its own stream, not the graph ops'
		// Seeds differ in how soon the first Remove comes, so the
		// never-removed fast paths get both short and long runs.
		firstRemove := int(seed-1) * 400
		g := NewGraph()
		m := &graphModel{present: map[Triple]struct{}{}}
		randT := func() Triple {
			return tr(fmt.Sprintf("s%d", rng.Intn(60)), fmt.Sprintf("p%d", rng.Intn(5)), fmt.Sprintf("o%d", rng.Intn(30)))
		}
		var pins []pinned
		maxTable := 0
		for step := 0; step < 3000; step++ {
			switch op := rng.Intn(10); {
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
			case op < 7:
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
			case step >= firstRemove:
				// Half the removals target a triple known to be present, so
				// tombstones accumulate and later adds reuse them.
				x := randT()
				if len(m.log) > 0 && rng.Intn(2) == 0 {
					x = m.log[rng.Intn(len(m.log))]
				}
				if got, want := g.Remove(x), m.remove(x); got != want {
					t.Fatalf("seed %d step %d: Remove(%v) = %v, model %v", seed, step, x, got, want)
				}
			}
			term := IRI(fmt.Sprintf("http://e/s%d", irng.Intn(120))) // half of them subjects of randT
			if irng.Intn(2) == 0 {
				term = adversarialTerm(byte(irng.Intn(3)), byte(irng.Intn(256)), byte(irng.Intn(64)))
			}
			internBothWays(t, g, irng, term, fmt.Sprintf("seed %d step %d", seed, step))
			if g.Len() != len(m.present) || g.LogLen() != len(m.log) {
				t.Fatalf("seed %d step %d: Len %d LogLen %d, model %d %d", seed, step, g.Len(), g.LogLen(), len(m.present), len(m.log))
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

			n := rng.Intn(len(m.log) + 1)
			want := m.since(n)
			if got := g.TriplesSince(n); !slices.Equal(got, want) {
				t.Fatalf("seed %d step %d: TriplesSince(%d) has %d entries, model %d", seed, step, n, len(got), len(want))
			}
			refs, end := g.RefsSince(n)
			if end != len(m.log) || len(refs) != len(want) {
				t.Fatalf("seed %d step %d: RefsSince(%d) = %d refs to %d, model %d to %d", seed, step, n, len(refs), end, len(want), len(m.log))
			}
			for i, r := range refs {
				if got := (Triple{S: g.TermOf(r.S), P: g.TermOf(r.P), O: g.TermOf(r.O)}); got != want[i] {
					t.Fatalf("seed %d step %d: RefsSince(%d)[%d] = %v, model %v", seed, step, n, i, got, want[i])
				}
			}

			// Three merges and a rebuilt reference graph per call: every fourth
			// checkpoint keeps the test's time under the race detector.
			if len(pins)%4 == 0 {
				checkMerge(t, g, m, rng, fmt.Sprintf("seed %d step %d", seed, step))
			}

			snap := g.Snapshot()
			got := snapTriples(snap)
			if len(got) != len(m.present) || snap.Len() != len(m.present) {
				t.Fatalf("seed %d step %d: snapshot holds %d triples (Len %d), model %d", seed, step, len(got), snap.Len(), len(m.present))
			}
			seen := make(map[Triple]struct{}, len(got))
			for _, x := range got {
				if _, ok := m.present[x]; !ok {
					t.Fatalf("seed %d step %d: snapshot holds absent triple %v", seed, step, x)
				}
				seen[x] = struct{}{}
			}
			if len(seen) != len(got) {
				t.Fatalf("seed %d step %d: snapshot repeats a triple", seed, step)
			}
			if snap.RemoveEpoch() == 0 && !slices.Equal(got, m.log) {
				t.Fatalf("seed %d step %d: never-removed snapshot is not the log in order", seed, step)
			}
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
				t.Fatalf("seed %d step %d: snapshot index has %d subjects, model %d", seed, step, ns, len(subjects))
			}
			pins = append(pins, pinned{snap, got})
		}
		for i, p := range pins {
			if !slices.Equal(snapTriples(p.snap), p.want) {
				t.Fatalf("seed %d: snapshot %d changed after it was taken", seed, i)
			}
		}
		if maxTable <= minTable {
			t.Fatalf("seed %d: table never grew past %d slots", seed, minTable)
		}
	}
}

// checkMerge merges g into an empty graph and into one that already holds
// some of its triples and terms, and merges g into itself. A merge must add
// exactly the missing triples, log them in the order of their first
// surviving entry in g's log, and intern terms in that order too.
func checkMerge(t *testing.T, g *Graph, m *graphModel, rng *rand.Rand, at string) {
	t.Helper()
	var order []Triple // the model's surviving log, first occurrences only
	seen := map[Triple]struct{}{}
	for _, x := range m.since(0) {
		if _, dup := seen[x]; !dup {
			seen[x] = struct{}{}
			order = append(order, x)
		}
	}
	if n := g.Merge(g); n != 0 {
		t.Fatalf("%s: self-merge added %d triples", at, n)
	}

	empty := NewGraph()
	if n := empty.Merge(g); n != len(order) {
		t.Fatalf("%s: Merge into an empty graph added %d, model %d", at, n, len(order))
	}
	if got := empty.TriplesSince(0); !slices.Equal(got, order) {
		t.Fatalf("%s: merged log is not the source's surviving log in order", at)
	}
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
	part.Add(tr("elsewhere", "p0", "o0"))
	had := 0
	for _, x := range order {
		if rng.Intn(3) == 0 {
			part.Add(x)
			had++
		}
	}
	if n := part.Merge(g); n != len(order)-had {
		t.Fatalf("%s: Merge into a graph holding %d of %d added %d", at, had, len(order), n)
	}
	if part.Len() != len(order)+1 {
		t.Fatalf("%s: merged graph holds %d triples, want %d", at, part.Len(), len(order)+1)
	}
	for _, x := range order {
		if !part.Has(x) {
			t.Fatalf("%s: merged graph lacks %v", at, x)
		}
	}
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
		before := src.TriplesSince(0)
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

// TestTableTombstonesDoNotGrowTable: churn at a constant size keeps the
// table at its size — removed slots are reused or purged by a same-size
// rebuild, not papered over by doubling.
func TestTableTombstonesDoNotGrowTable(t *testing.T) {
	g := NewGraph()
	const live = minTable / 4
	for i := 0; i < live; i++ {
		g.Add(tr("s", "p", fmt.Sprintf("o%d", i)))
	}
	for i := 0; i < 5000; i++ {
		if !g.Remove(tr("s", "p", fmt.Sprintf("o%d", i))) {
			t.Fatalf("round %d: oldest triple missing", i)
		}
		if !g.Add(tr("s", "p", fmt.Sprintf("o%d", i+live))) {
			t.Fatalf("round %d: fresh triple reported present", i)
		}
		// Removed and re-added at once: the add lands on its own tombstone.
		x := tr("s", "p", fmt.Sprintf("o%d", i+1))
		if !g.Remove(x) || g.Has(x) || !g.Add(x) || !g.Has(x) {
			t.Fatalf("round %d: remove/re-add of %v misbehaved", i, x)
		}
	}
	checkTable(t, g)
	if g.Len() != live || len(g.table) != minTable {
		t.Fatalf("after churn: Len %d in %d slots, want %d in %d", g.Len(), len(g.table), live, minTable)
	}
}
