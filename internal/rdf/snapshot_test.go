package rdf

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
)

// snapRandGraph builds a graph of n random triples drawn from a small
// vocabulary (lots of shared subjects/predicates/objects so every index
// shape — inline, spilled, shared posting lists — gets exercised).
func snapRandGraph(rng *rand.Rand, n int) *Graph {
	g := NewGraph()
	for i := 0; i < n; i++ {
		g.Add(tr(
			fmt.Sprintf("s%d", rng.Intn(12)),
			fmt.Sprintf("p%d", rng.Intn(4)),
			fmt.Sprintf("o%d", rng.Intn(9)),
		))
	}
	return g
}

// idsOf collects a pattern enumeration into a sorted-free slice of refs.
func idsOf(fe func(func(s, p, o ID) bool)) []TripleID {
	var out []TripleID
	fe(func(s, p, o ID) bool {
		out = append(out, TripleID{s, p, o})
		return true
	})
	return out
}

// multiset turns refs into a count map, for comparisons that are about
// content (TestSnapshotEnumerationOrderPinned is the one about order).
func multiset(refs []TripleID) map[TripleID]int {
	m := make(map[TripleID]int, len(refs))
	for _, r := range refs {
		m[r]++
	}
	return m
}

func multisetEq(a, b []TripleID) bool {
	if len(a) != len(b) {
		return false
	}
	ma, mb := multiset(a), multiset(b)
	if len(ma) != len(mb) {
		return false
	}
	for k, v := range ma {
		if mb[k] != v {
			return false
		}
	}
	return true
}

// snapPatterns enumerates every bound/wildcard combination over the test
// vocabulary, including IDs that exist and the NoID wildcard.
func snapPatterns(g *Graph) [][3]ID {
	var ids []ID
	ids = append(ids, NoID)
	for _, name := range []string{"s0", "s5", "p0", "p2", "o0", "o7"} {
		if id, ok := g.TermID(IRI("http://e/" + name)); ok {
			ids = append(ids, id)
		}
	}
	var pats [][3]ID
	for _, s := range ids {
		for _, p := range ids {
			for _, o := range ids {
				pats = append(pats, [3]ID{s, p, o})
			}
		}
	}
	return pats
}

// TestSnapshotMatchesGraph: every pattern probe (enumeration, count, stats)
// answers the same from the snapshot, from the Graph methods that delegate to
// it, and from a brute-force filter over the full triple list — the index's
// independent oracle now that the graph keeps no adjacency of its own.
func TestSnapshotMatchesGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 20; iter++ {
		g := snapRandGraph(rng, 5+rng.Intn(300))
		checkSnapshotMatchesGraph(t, fmt.Sprintf("iter %d", iter), g, snapPatterns(g))
	}

	checkSnapshotMatchesGraph(t, "empty graph", NewGraph(), [][3]ID{{NoID, NoID, NoID}, {0, NoID, NoID}, {NoID, 0, 0}})

	one := NewGraph()
	one.Add(tr("s0", "p0", "o0"))
	checkSnapshotMatchesGraph(t, "one triple", one, snapPatterns(one))

	// Terms that name no triple own empty runs; the last of them sits at the
	// end of the offset tables.
	idle := snapRandGraph(rng, 40)
	lone := idle.Intern(IRI("http://e/in-no-triple"))
	last := idle.Intern(IRI("http://e/in-no-triple-either"))
	checkSnapshotMatchesGraph(t, "idle terms", idle, [][3]ID{
		{lone, NoID, NoID}, {NoID, lone, NoID}, {NoID, NoID, lone}, {NoID, lone, lone},
		{last, NoID, NoID}, {NoID, last, NoID}, {NoID, NoID, last}, {NoID, last, last},
		{NoID, mustID(t, idle, "p0"), last}, {mustID(t, idle, "s0"), last, NoID},
	})

	// A term interned after the pin is beyond the snapshot's term table (the
	// watermark did not move, so the graph still answers from that snapshot).
	pinned := idle.Snapshot()
	late := idle.Intern(IRI("http://e/after-the-pin"))
	if idle.Snapshot() != pinned || int(late) < pinned.TermCount() {
		t.Fatalf("late term %d: snapshot repinned or term table grew (%d terms)", late, pinned.TermCount())
	}
	checkSnapshotMatchesGraph(t, "late term", idle, [][3]ID{
		{late, NoID, NoID}, {NoID, late, NoID}, {NoID, NoID, late}, {NoID, late, late}, {late, late, late},
		{NoID, mustID(t, idle, "p0"), late},
	})
}

// checkSnapshotMatchesGraph is TestSnapshotMatchesGraph's body for one graph.
func checkSnapshotMatchesGraph(t *testing.T, label string, g *Graph, pats [][3]ID) {
	t.Helper()
	snap := g.Snapshot()
	if snap.Len() != g.Len() {
		t.Fatalf("%s: snapshot Len = %d, graph Len = %d", label, snap.Len(), g.Len())
	}
	all := idsOf(func(fn func(s, p, o ID) bool) { snap.ForEachMatchIDs(NoID, NoID, NoID, fn) })
	for _, pat := range pats {
		s, p, o := pat[0], pat[1], pat[2]
		var want []TripleID
		subjects, objects := map[ID]struct{}{}, map[ID]struct{}{}
		for _, r := range all {
			if (s == NoID || r.S == s) && (p == NoID || r.P == p) && (o == NoID || r.O == o) {
				want = append(want, r)
				subjects[r.S], objects[r.O] = struct{}{}, struct{}{}
			}
		}
		got := idsOf(func(fn func(s, p, o ID) bool) { snap.ForEachMatchIDs(s, p, o, fn) })
		if !multisetEq(got, want) {
			t.Fatalf("%s pattern (%v %v %v): snapshot %d rows, brute force %d rows",
				label, s, p, o, len(got), len(want))
		}
		if viaGraph := idsOf(func(fn func(s, p, o ID) bool) { g.ForEachMatchIDs(s, p, o, fn) }); !multisetEq(viaGraph, want) {
			t.Fatalf("%s pattern (%v %v %v): graph %d rows, brute force %d rows",
				label, s, p, o, len(viaGraph), len(want))
		}
		if sc, gc := snap.CountMatchIDs(s, p, o), g.CountMatchIDs(s, p, o); sc != len(want) || gc != len(want) {
			t.Fatalf("%s pattern (%v %v %v): snapshot count %d, graph count %d, want %d", label, s, p, o, sc, gc, len(want))
		}
		if n := snap.ScanLen(s, p, o); n < len(want) {
			t.Fatalf("%s pattern (%v %v %v): ScanLen %d below the %d matches", label, s, p, o, n, len(want))
		}
		if p != NoID && s == NoID && o == NoID {
			t1, s1, o1 := snap.PredStats(p)
			t2, s2, o2 := g.PredStats(p)
			if t1 != len(want) || s1 != len(subjects) || o1 != len(objects) || t2 != t1 || s2 != s1 || o2 != o1 {
				t.Fatalf("%s PredStats(%v): snapshot (%d,%d,%d) graph (%d,%d,%d) want (%d,%d,%d)",
					label, p, t1, s1, o1, t2, s2, o2, len(want), len(subjects), len(objects))
			}
		}
	}
	ds, dp, do := map[ID]struct{}{}, map[ID]struct{}{}, map[ID]struct{}{}
	for _, r := range all {
		ds[r.S], dp[r.P], do[r.O] = struct{}{}, struct{}{}, struct{}{}
	}
	s1, p1, o1 := snap.IndexStats()
	s2, p2, o2 := g.IndexStats()
	if s1 != len(ds) || p1 != len(dp) || o1 != len(do) || s2 != s1 || p2 != p1 || o2 != o1 {
		t.Fatalf("%s IndexStats: snapshot (%d,%d,%d) graph (%d,%d,%d) want (%d,%d,%d)",
			label, s1, p1, o1, s2, p2, o2, len(ds), len(dp), len(do))
	}
	subs := g.Subjects()
	if len(subs) != len(ds) {
		t.Fatalf("%s: Subjects() has %d entries, want %d", label, len(subs), len(ds))
	}
	for i, sub := range subs {
		if id, ok := g.TermID(sub); !ok || i > 0 && !termLess(subs[i-1], sub) {
			t.Fatalf("%s: Subjects()[%d] = %v is unsorted or not interned", label, i, sub)
		} else if _, isSubj := ds[id]; !isSubj {
			t.Fatalf("%s: Subjects()[%d] = %v is no triple's subject", label, i, sub)
		}
	}
}

// TestSnapshotImmutable: mutations after capture are invisible to the
// snapshot and visible to the next one.
func TestSnapshotImmutable(t *testing.T) {
	g := NewGraph()
	g.Add(tr("a", "p", "b"))
	g.Add(tr("b", "p", "c"))
	s1 := g.Snapshot()
	if s1.Len() != 2 {
		t.Fatalf("s1 Len = %d, want 2", s1.Len())
	}
	// Build s1's index before extending, so the eager-extension path runs.
	if s1.CountMatchIDs(NoID, mustID(t, g, "p"), NoID) != 2 {
		t.Fatal("s1 predicate count wrong")
	}

	g.Add(tr("c", "p", "d"))
	g.Add(tr("a", "q", "e"))
	if s1.Len() != 2 {
		t.Fatalf("s1 grew to %d after Add", s1.Len())
	}
	s2 := g.Snapshot()
	if s2.Len() != 4 {
		t.Fatalf("s2 Len = %d, want 4", s2.Len())
	}
	if s1.CountMatchIDs(NoID, mustID(t, g, "p"), NoID) != 2 {
		t.Fatal("s1 changed after graph mutation")
	}
	if s2.CountMatchIDs(NoID, mustID(t, g, "p"), NoID) != 3 {
		t.Fatal("s2 missed extension delta")
	}
	// The q term was interned after s1: invisible there, visible in s2.
	if _, ok := s1.TermID(IRI("http://e/q")); ok {
		t.Fatal("s1 sees term interned after its capture")
	}
	if _, ok := s2.TermID(IRI("http://e/q")); !ok {
		t.Fatal("s2 missing its own term")
	}

}

func mustID(t *testing.T, g *Graph, name string) ID {
	t.Helper()
	id, ok := g.TermID(IRI("http://e/" + name))
	if !ok {
		t.Fatalf("term %s not interned", name)
	}
	return id
}

// TestSnapshotCached: quiescent graphs hand out the identical snapshot;
// appends produce a new one.
func TestSnapshotCached(t *testing.T) {
	g := NewGraph()
	g.Add(tr("a", "p", "b"))
	s1 := g.Snapshot()
	if s2 := g.Snapshot(); s2 != s1 {
		t.Fatal("quiescent Snapshot() returned a new view")
	}
	g.Add(tr("a", "p", "c"))
	if s3 := g.Snapshot(); s3 == s1 {
		t.Fatal("Snapshot() after Add returned the stale view")
	}
}

// TestSnapshotScanRangePartition: concatenating ScanRange over any chunking
// of [0, ScanLen) reproduces ForEachMatchIDs exactly, in order — the
// property morsel-driven execution depends on.
func TestSnapshotScanRangePartition(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 10; iter++ {
		g := snapRandGraph(rng, 50+rng.Intn(400))
		snap := g.Snapshot()
		for _, pat := range snapPatterns(g) {
			s, p, o := pat[0], pat[1], pat[2]
			full := idsOf(func(fn func(s, p, o ID) bool) { snap.ForEachMatchIDs(s, p, o, fn) })
			n := snap.ScanLen(s, p, o)
			if n < len(full) {
				t.Fatalf("ScanLen(%v %v %v) = %d < %d emitted rows", s, p, o, n, len(full))
			}
			chunk := 1 + rng.Intn(7)
			var cat []TripleID
			for lo := 0; lo < n; lo += chunk {
				hi := lo + chunk
				if hi > n {
					hi = n
				}
				snap.ScanRange(s, p, o, lo, hi, func(si, pi, oi ID) bool {
					cat = append(cat, TripleID{si, pi, oi})
					return true
				})
			}
			if len(cat) != len(full) {
				t.Fatalf("pattern (%v %v %v): chunked scan %d rows, full scan %d", s, p, o, len(cat), len(full))
			}
			for i := range cat {
				if cat[i] != full[i] {
					t.Fatalf("pattern (%v %v %v): row %d differs: chunked %v, full %v", s, p, o, i, cat[i], full[i])
				}
			}
		}
	}
}

// TestForEachMatchReentrant: a scan callback may mutate the graph, in term
// space and in ID space alike — no graph lock is held across it — and the
// iteration still sees exactly the pre-mutation triples.
func TestForEachMatchReentrant(t *testing.T) {
	g := NewGraph()
	for i := 0; i < 10; i++ {
		g.Add(tr(fmt.Sprintf("s%d", i), "p", "o"))
	}
	seen := 0
	g.ForEachMatch(nil, nil, nil, func(x Triple) bool {
		seen++
		g.Add(tr(fmt.Sprintf("new%d", seen), "p", "o")) // would deadlock before
		return true
	})
	if seen != 10 {
		t.Fatalf("iteration saw %d triples, want the 10 pre-mutation ones", seen)
	}
	if g.Len() != 20 {
		t.Fatalf("graph Len = %d after callback mutations, want 20", g.Len())
	}
	seen = 0
	g.ForEachMatchIDs(NoID, mustID(t, g, "p"), NoID, func(s, p, o ID) bool {
		seen++
		g.AddRefs([]TripleID{{S: g.Intern(IRI(fmt.Sprintf("http://e/newer%d", seen))), P: p, O: o}})
		return true
	})
	if seen != 20 || g.Len() != 40 {
		t.Fatalf("ID-space iteration saw %d triples and left %d, want 20 and 40", seen, g.Len())
	}
}

// TestSnapshotConcurrentIngest: snapshots taken while writers append always
// hold a consistent prefix — Len matches watermark-visible triples and every
// scan agrees with the pinned refs.
func TestSnapshotConcurrentIngest(t *testing.T) {
	g := NewGraph()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				g.Add(tr(fmt.Sprintf("w%d-s%d", w, i), fmt.Sprintf("p%d", i%3), fmt.Sprintf("o%d", i%17)))
			}
		}(w)
	}
	for i := 0; i < 200; i++ {
		snap := g.Snapshot()
		n := 0
		snap.ForEachMatchIDs(NoID, NoID, NoID, func(s, p, o ID) bool {
			if int(s) >= snap.TermCount() || int(p) >= snap.TermCount() || int(o) >= snap.TermCount() {
				t.Errorf("snapshot emitted ID beyond its term table")
				return false
			}
			n++
			return true
		})
		if n != snap.Len() {
			t.Fatalf("full scan %d rows, Len %d", n, snap.Len())
		}
		if snap.Len() > g.Len() {
			t.Fatalf("snapshot pins %d triples, beyond the log's %d", snap.Len(), g.Len())
		}
	}
	close(stop)
	wg.Wait()
}

// TestSnapshotIndexLayout pins the CSR invariants the read API leans on:
// the two offset tables are monotone over [0, len(refs)], the cards' runs
// partition flat in ascending p with no empty run, each of the three arrays
// is a permutation of the log positions 0..len(refs)-1, and every run holds
// exactly its key's triples in ascending position.
func TestSnapshotIndexLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 20; iter++ {
		g := snapRandGraph(rng, 1+rng.Intn(400))
		g.Intern(IRI("http://e/in-no-triple"))
		snap := g.Snapshot()
		ix, n, refs := snap.index(), snap.TermCount(), snap.refs
		for name, off := range map[string][]uint32{"sOff": ix.sOff, "oOff": ix.oOff} {
			if len(off) != n+1 || off[0] != 0 || int(off[n]) != len(snap.refs) {
				t.Fatalf("iter %d: %s has %d entries for %d terms, spans [%d, %d] of %d refs",
					iter, name, len(off), n, off[0], off[len(off)-1], len(snap.refs))
			}
			for k := 1; k < len(off); k++ {
				if off[k] < off[k-1] {
					t.Fatalf("iter %d: %s[%d] = %d < %s[%d] = %d", iter, name, k, off[k], name, k-1, off[k-1])
				}
			}
		}
		// The cards' runs partition flat in ascending p, none empty; as an
		// offset table they are flatOff, which the walk below checks like the
		// other two.
		flatOff := make([]uint32, n+1)
		end := uint32(0)
		for i, c := range ix.cards {
			if c.lo != end || c.hi <= c.lo || (i > 0 && c.p <= ix.cards[i-1].p) {
				t.Fatalf("iter %d: card %d (p %d) spans [%d, %d) after a run ending at %d", iter, i, c.p, c.lo, c.hi, end)
			}
			flatOff[c.p+1], end = c.hi-c.lo, c.hi
		}
		if int(end) != len(refs) {
			t.Fatalf("iter %d: the cards' runs cover %d of %d refs", iter, end, len(refs))
		}
		prefixSum(flatOff)
		// Walk each array run by run: every entry is its key's triple, and
		// positions ascend.
		for _, a := range []struct {
			name     string
			arr, off []uint32
			key      func(TripleID) ID
		}{
			{"spo", ix.spo, ix.sOff, func(r TripleID) ID { return r.S }},
			{"flat", ix.flat, flatOff, func(r TripleID) ID { return r.P }},
			{"osp", ix.osp, ix.oOff, func(r TripleID) ID { return r.O }},
		} {
			name, arr, off := a.name, a.arr, a.off
			if len(arr) != len(refs) {
				t.Fatalf("iter %d: %s has %d entries for %d refs", iter, name, len(arr), len(refs))
			}
			seen := make([]bool, len(refs))
			for k := ID(0); int(k) < n; k++ {
				run := arr[off[k]:off[k+1]]
				for i, pos := range run {
					if int(pos) >= len(refs) || seen[pos] {
						t.Fatalf("iter %d: %s holds position %d twice or beyond the %d refs", iter, name, pos, len(refs))
					}
					seen[pos] = true
					if got := a.key(refs[pos]); got != k {
						t.Fatalf("iter %d: %s run of %d holds position %d, the triple %v of %d", iter, name, k, pos, refs[pos], got)
					}
					if i > 0 && run[i-1] >= pos {
						t.Fatalf("iter %d: %s run of %d holds position %d (%v) before %d (%v)", iter, name, k, run[i-1], refs[run[i-1]], pos, refs[pos])
					}
				}
			}
		}
	}
}

// TestSnapshotEnumerationOrderPinned states the enumeration contract: for
// every pattern shape, ForEachMatchIDs yields exactly the matching refs in
// log order — the order parallel morsels are stitched back into and the
// golden query fixtures were recorded in.
func TestSnapshotEnumerationOrderPinned(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for iter := 0; iter < 12; iter++ {
		g := snapRandGraph(rng, 20+rng.Intn(400))
		snap := g.Snapshot()
		for _, pat := range snapPatterns(g) {
			s, p, o := pat[0], pat[1], pat[2]
			var want []TripleID
			for _, r := range snap.refs {
				if (s == NoID || r.S == s) && (p == NoID || r.P == p) && (o == NoID || r.O == o) {
					want = append(want, r)
				}
			}
			got := idsOf(func(fn func(s, p, o ID) bool) { snap.ForEachMatchIDs(s, p, o, fn) })
			if len(got) != len(want) {
				t.Fatalf("iter %d pattern (%v %v %v): %d rows, log filter %d rows", iter, s, p, o, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("iter %d pattern (%v %v %v): row %d is %v, log order has %v", iter, s, p, o, i, got[i], want[i])
				}
			}
		}
	}
}

// TestSnapshotOldViewDuringRebuilds: a snapshot with a built index stays
// scannable, and unchanged, while the graph grows and every re-pin builds a
// new index next to it (run under -race).
func TestSnapshotOldViewDuringRebuilds(t *testing.T) {
	g := snapRandGraph(rand.New(rand.NewSource(17)), 300)
	old := g.Snapshot()
	p := mustID(t, g, "p0")
	want := idsOf(func(fn func(s, p, o ID) bool) { old.ForEachMatchIDs(NoID, p, NoID, fn) })

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			g.Add(tr(fmt.Sprintf("late-s%d", i), "p0", fmt.Sprintf("o%d", i%9)))
			if g.Snapshot().idx.Load() == nil {
				t.Error("re-pin after an indexed snapshot came without an index")
				return
			}
		}
	}()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		got := idsOf(func(fn func(s, p, o ID) bool) { old.ForEachMatchIDs(NoID, p, NoID, fn) })
		if len(got) != len(want) || len(got) > 0 && got[len(got)-1] != want[len(want)-1] {
			t.Fatalf("old snapshot now yields %d rows for p0, had %d", len(got), len(want))
		}
	}
	if n := g.Snapshot().CountMatchIDs(NoID, p, NoID); n != len(want)+200 {
		t.Fatalf("final snapshot counts %d p0 triples, want %d", n, len(want)+200)
	}
}

// TestSnapshotIndexHubLinear: a hub subject whose pairs of one predicate are
// followed by as many of a second must index in time linear in its pairs
// (counting a predicate's subjects used to rescan the hub's earlier pairs per
// insert), with exact cardinalities.
func TestSnapshotIndexHubLinear(t *testing.T) {
	const k = 20000
	g := NewGraph()
	hub, p1, p2 := g.Intern(IRI("http://e/hub")), g.Intern(IRI("http://e/p1")), g.Intern(IRI("http://e/p2"))
	refs := make([]TripleID, 0, 2*k)
	for _, p := range []ID{p1, p2} {
		for i := 0; i < k; i++ {
			refs = append(refs, TripleID{hub, p, g.Intern(IRI(fmt.Sprintf("http://e/n%d", i)))})
		}
	}
	if n := g.AddRefs(refs); n != 2*k {
		t.Fatalf("AddRefs = %d, want %d", n, 2*k)
	}
	for _, p := range []ID{p1, p2} {
		if tr, su, ob := g.PredStats(p); tr != k || su != 1 || ob != k {
			t.Errorf("PredStats(%d) = (%d,%d,%d), want (%d,1,%d)", p, tr, su, ob, k, k)
		}
	}
	if su, pr, ob := g.IndexStats(); su != 1 || pr != 2 || ob != k {
		t.Errorf("IndexStats = (%d,%d,%d), want (1,2,%d)", su, pr, ob, k)
	}
}

// h5benchShaped returns the pinned refs and term count of a graph shaped like
// the perf harness's h5bench workload: per rank one program and eight
// datasets, per record one I/O activity of six triples — few entities, many
// activities, a handful of predicates.
func h5benchShaped(ranks, records int) ([]TripleID, int) {
	g := NewGraph()
	iri := func(format string, a ...any) ID { return g.Intern(IRI(fmt.Sprintf("http://e/"+format, a...))) }
	typ, assoc, wrote, elapsed, started, rank := iri("type"), iri("wasAssociatedWith"), iri("wasWrittenBy"), iri("elapsed"), iri("startedAt"), iri("rank")
	classes := []ID{iri("H5Dwrite"), iri("H5Dread"), iri("H5Fflush")}
	var refs []TripleID
	for r := 0; r < ranks; r++ {
		prog := iri("prog%d", r)
		for i := 0; i < records; i++ {
			act := iri("r%d/io%d", r, i)
			refs = append(refs,
				TripleID{act, typ, classes[i%len(classes)]},
				TripleID{act, assoc, prog},
				TripleID{act, elapsed, g.Intern(Integer(int64(1000 + i%257)))},
				TripleID{act, started, g.Intern(Integer(int64(r*records + i)))},
				TripleID{iri("r%d/dset%d", r, i%8), wrote, act},
				TripleID{act, rank, g.Intern(Integer(int64(r)))})
		}
	}
	g.AddRefs(refs)
	snap := g.Snapshot()
	return snap.refs, snap.TermCount()
}

// TestSnapshotIndexAllocs: the index is a fixed set of flat arrays, so its
// build allocates the same small number of objects at any size — not one per
// subject, per object and per (predicate, object).
func TestSnapshotIndexAllocs(t *testing.T) {
	var allocs [2]float64
	for i, records := range []int{1024 / 6, 64 * 1024 / 6} {
		refs, nTerms := h5benchShaped(1, records)
		allocs[i] = testing.AllocsPerRun(5, func() { buildSnapIndex(refs, nTerms) })
	}
	if allocs[0] > 16 || allocs[0] != allocs[1] {
		t.Fatalf("index build allocates %v objects at 1k triples and %v at 64k, want equal and <= 16", allocs[0], allocs[1])
	}
}

// liveHeap returns the heap bytes in use after two collections, so that
// everything unreachable, finalizers included, is gone.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// indexBytesPerTriple returns what the index of refs keeps live, offset
// tables included, per triple. The refs are held across both readings: they
// belong to the snapshot, not to its index.
func indexBytesPerTriple(refs []TripleID, nTerms int) float64 {
	before := liveHeap()
	ix := buildSnapIndex(refs, nTerms)
	after := liveHeap()
	runtime.KeepAlive(ix)
	runtime.KeepAlive(refs)
	return float64(after-before) / float64(len(refs))
}

// TestSnapshotIndexBytesPerTriple pins what a resident triple costs in the
// index over the harness's h5bench shape: three 4-byte log positions, plus
// the two offset tables' 8 bytes per term spread over the triples (2.68
// here: 32 921 terms for 98 304 triples), plus the cards and the page
// rounding of the large arrays — 14.84 in all. Four permutations with a
// third, per-term offset table read 20.25; an index of 8-byte pairs 36.25.
func TestSnapshotIndexBytesPerTriple(t *testing.T) {
	if raceEnabled {
		t.Skip("heap sizes are not meaningful under the race detector")
	}
	const budget = 15.5
	refs, nTerms := h5benchShaped(16, 1024)
	got := indexBytesPerTriple(refs, nTerms)
	t.Logf("%.2f B per triple retained by the index (%d triples, %d terms)", got, len(refs), nTerms)
	if got > budget {
		t.Fatalf("the index keeps %.2f B per triple live, budget %.1f", got, budget)
	}
}

var sinkIndex *snapIndex

// BenchmarkSnapshotIndex builds the index of an h5bench-shaped graph at the
// perf harness's standard size (16 ranks x 1024 records, 98 304 triples), and
// reports the retained index bytes per triple TestSnapshotIndexBytesPerTriple
// guards.
func BenchmarkSnapshotIndex(b *testing.B) {
	refs, nTerms := h5benchShaped(16, 1024)
	perTriple := indexBytesPerTriple(refs, nTerms)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkIndex = buildSnapIndex(refs, nTerms)
	}
	b.ReportMetric(perTriple, "B/triple")
}

// TestSnapshotPredObjRuns: (? p o) walks the shorter of p's and o's runs
// through the residual filter. Over random graphs whose runs are skewed
// either way, ScanRange over random partitions of [0, ScanLen) equals
// ForEachMatchIDs, which equals a filter of the log, and CountMatchIDs is
// exact.
func TestSnapshotPredObjRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	var predShorter, objShorter int
	for iter := 0; iter < 40; iter++ {
		// A hub predicate and a hub object, each dominating its position,
		// plus a tail of rare predicates and objects.
		g := NewGraph()
		for i, n := 0, 200+rng.Intn(600); i < n; i++ {
			p, o := "hub-p", "hub-o"
			if rng.Intn(4) > 0 {
				p = fmt.Sprintf("p%d", rng.Intn(6))
			}
			if rng.Intn(4) > 0 {
				o = fmt.Sprintf("o%d", rng.Intn(8))
			}
			g.Add(tr(fmt.Sprintf("s%d", rng.Intn(50)), p, o))
		}
		snap := g.Snapshot()
		ix := snap.index()
		var preds, objs []ID
		for _, name := range []string{"hub-p", "p0", "p1", "p5"} {
			if id, ok := g.TermID(IRI("http://e/" + name)); ok {
				preds = append(preds, id)
			}
		}
		for _, name := range []string{"hub-o", "o0", "o3", "o7", "s0"} {
			if id, ok := g.TermID(IRI("http://e/" + name)); ok {
				objs = append(objs, id)
			}
		}
		for _, p := range preds {
			for _, o := range objs {
				if len(ix.pred(p)) <= len(ix.obj(o)) {
					predShorter++
				} else {
					objShorter++
				}
				var want []TripleID
				for _, r := range snap.refs {
					if r.P == p && r.O == o {
						want = append(want, r)
					}
				}
				full := idsOf(func(fn func(s, p, o ID) bool) { snap.ForEachMatchIDs(NoID, p, o, fn) })
				if !slices.Equal(full, want) {
					t.Fatalf("iter %d (? %d %d): ForEachMatchIDs gave %d rows, the log filter %d, or another order", iter, p, o, len(full), len(want))
				}
				if c := snap.CountMatchIDs(NoID, p, o); c != len(want) {
					t.Fatalf("iter %d (? %d %d): CountMatchIDs = %d, want %d", iter, p, o, c, len(want))
				}
				n := snap.ScanLen(NoID, p, o)
				if m := min(len(ix.pred(p)), len(ix.obj(o))); n != m {
					t.Fatalf("iter %d (? %d %d): ScanLen = %d, the shorter run holds %d", iter, p, o, n, m)
				}
				var cat []TripleID
				for lo := 0; lo < n; {
					hi := lo + 1 + rng.Intn(n-lo)
					snap.ScanRange(NoID, p, o, lo, hi, func(si, pi, oi ID) bool {
						cat = append(cat, TripleID{si, pi, oi})
						return true
					})
					lo = hi
				}
				if !slices.Equal(cat, want) {
					t.Fatalf("iter %d (? %d %d): partitioned ScanRange gave %d rows, want %d in log order", iter, p, o, len(cat), len(want))
				}
			}
		}
	}
	if predShorter == 0 || objShorter == 0 {
		t.Fatalf("runs never skewed both ways: p shorter %d times, o shorter %d", predShorter, objShorter)
	}
}

var sinkCount int

// BenchmarkSnapshotPredObjHub counts (? p o) where p's run and o's run each
// hold 50 000 triples and share one: the walk of the shorter run is the
// price of keeping no (P, O)-ordered permutation.
func BenchmarkSnapshotPredObjHub(b *testing.B) {
	const k = 50000
	g := NewGraph()
	p, o, q := g.Intern(IRI("http://e/p")), g.Intern(IRI("http://e/o")), g.Intern(IRI("http://e/q"))
	refs := make([]TripleID, 0, 2*k+1)
	for i := 0; i < k; i++ {
		refs = append(refs,
			TripleID{g.Intern(IRI(fmt.Sprintf("http://e/a%d", i))), p, g.Intern(IRI(fmt.Sprintf("http://e/x%d", i)))},
			TripleID{g.Intern(IRI(fmt.Sprintf("http://e/b%d", i))), q, o})
	}
	refs = append(refs, TripleID{p, p, o})
	g.AddRefs(refs)
	snap := g.Snapshot()
	if c := snap.CountMatchIDs(NoID, p, o); c != 1 {
		b.Fatalf("CountMatchIDs = %d, want 1", c)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkCount = snap.CountMatchIDs(NoID, p, o)
	}
}
