package rdf

import (
	"fmt"
	"math/rand"
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

// multiset turns refs into a count map (index enumeration order is per index
// node, not the full scan's log order).
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
		if iter%3 == 1 {
			// Exercise the post-Remove rebuild path too.
			for _, tp := range g.Triples()[:g.Len()/3] {
				g.Remove(tp)
			}
		}
		snap := g.Snapshot()
		if snap.Len() != g.Len() {
			t.Fatalf("iter %d: snapshot Len = %d, graph Len = %d", iter, snap.Len(), g.Len())
		}
		all := idsOf(func(fn func(s, p, o ID) bool) { snap.ForEachMatchIDs(NoID, NoID, NoID, fn) })
		for _, pat := range snapPatterns(g) {
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
				t.Fatalf("iter %d pattern (%v %v %v): snapshot %d rows, brute force %d rows",
					iter, s, p, o, len(got), len(want))
			}
			if viaGraph := idsOf(func(fn func(s, p, o ID) bool) { g.ForEachMatchIDs(s, p, o, fn) }); !multisetEq(viaGraph, want) {
				t.Fatalf("iter %d pattern (%v %v %v): graph %d rows, brute force %d rows",
					iter, s, p, o, len(viaGraph), len(want))
			}
			if sc, gc := snap.CountMatchIDs(s, p, o), g.CountMatchIDs(s, p, o); sc != len(want) || gc != len(want) {
				t.Fatalf("iter %d pattern (%v %v %v): snapshot count %d, graph count %d, want %d", iter, s, p, o, sc, gc, len(want))
			}
			if p != NoID && s == NoID && o == NoID {
				t1, s1, o1 := snap.PredStats(p)
				t2, s2, o2 := g.PredStats(p)
				if t1 != len(want) || s1 != len(subjects) || o1 != len(objects) || t2 != t1 || s2 != s1 || o2 != o1 {
					t.Fatalf("iter %d PredStats(%v): snapshot (%d,%d,%d) graph (%d,%d,%d) want (%d,%d,%d)",
						iter, p, t1, s1, o1, t2, s2, o2, len(want), len(subjects), len(objects))
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
			t.Fatalf("iter %d IndexStats: snapshot (%d,%d,%d) graph (%d,%d,%d) want (%d,%d,%d)",
				iter, s1, p1, o1, s2, p2, o2, len(ds), len(dp), len(do))
		}
		if subs := g.Subjects(); len(subs) != len(ds) {
			t.Fatalf("iter %d: Subjects() has %d entries, want %d", iter, len(subs), len(ds))
		}
	}
}

// TestSnapshotImmutable: mutations after capture are invisible to the
// snapshot, visible to the next one, and removal forces a correct rebuild.
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

	g.Remove(tr("b", "p", "c"))
	s3 := g.Snapshot()
	if s3.Len() != 3 {
		t.Fatalf("s3 Len = %d, want 3 after Remove", s3.Len())
	}
	if s2.Len() != 4 {
		t.Fatal("s2 changed after Remove")
	}
	// Remove + re-add: the log holds two surviving entries for the triple;
	// the snapshot must deduplicate.
	g.Add(tr("b", "p", "c"))
	s4 := g.Snapshot()
	if s4.Len() != 4 || s4.CountMatchIDs(NoID, NoID, NoID) != 4 {
		t.Fatalf("s4 Len = %d, want 4 after re-add", s4.Len())
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
		g.Remove(x)
		return true
	})
	if seen != 10 {
		t.Fatalf("iteration saw %d triples, want the 10 pre-mutation ones", seen)
	}
	if g.Len() != 10 {
		t.Fatalf("graph Len = %d after callback mutations, want 10", g.Len())
	}
	seen = 0
	g.ForEachMatchIDs(NoID, mustID(t, g, "p"), NoID, func(s, p, o ID) bool {
		seen++
		g.Add(tr(fmt.Sprintf("newer%d", seen), "p", "o"))
		g.Remove(Triple{S: g.TermOf(s), P: g.TermOf(p), O: g.TermOf(o)})
		return true
	})
	if seen != 10 || g.Len() != 10 {
		t.Fatalf("ID-space iteration saw %d triples and left %d, want 10 and 10", seen, g.Len())
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
		if snap.Watermark() > g.LogLen() {
			t.Fatalf("watermark %d beyond log %d", snap.Watermark(), g.LogLen())
		}
	}
	close(stop)
	wg.Wait()
}
