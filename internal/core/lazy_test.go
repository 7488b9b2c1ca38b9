package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"github.com/hpc-io/prov-io/internal/faultfs"
	"github.com/hpc-io/prov-io/internal/model"
	"github.com/hpc-io/prov-io/internal/rdf"
	"github.com/hpc-io/prov-io/internal/sparql"
	"github.com/hpc-io/prov-io/internal/vfs"
)

// queryBytes runs q over src with the parallel executor and returns the
// serialized result rows — the byte-level fingerprint the out-of-core parity
// properties compare. The engine's finish path orders rows
// deterministically, so equal solution multisets serialize identically.
func queryBytes(t *testing.T, src sparql.ScanSource, query string, workers int) []byte {
	t.Helper()
	q, err := sparql.Parse(query, model.Namespaces())
	if err != nil {
		t.Fatalf("parse %q: %v", query, err)
	}
	res, _, err := sparql.EvalParallelOnInfo(src, q, workers)
	if err != nil {
		t.Fatalf("eval %q: %v", query, err)
	}
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// buildScatteredStore writes a seeded random graph across delta segments,
// packs the first wave, and leaves a second wave loose — the mixed pack +
// loose layout every out-of-core read has to federate. Same generator family
// as TestPrunedVsExhaustiveProperty.
func buildScatteredStore(t testing.TB, rng *rand.Rand) *Store {
	t.Helper()
	store := newBinaryVFSStore(t)
	node := func() rdf.Term { return rdf.IRI(fmt.Sprintf("urn:n%d", rng.Intn(40))) }
	pred := func() rdf.Term {
		rels := model.AllRelations()
		if rng.Intn(4) == 0 {
			return rdf.IRI(fmt.Sprintf("urn:p%d", rng.Intn(6)))
		}
		return rels[rng.Intn(len(rels))].IRI()
	}
	writeSegments := func(pidBase, nSegs int) {
		for s := 0; s < nSegs; s++ {
			n := 1 + rng.Intn(8)
			triples := make([]rdf.Triple, 0, n)
			for i := 0; i < n; i++ {
				o := node()
				if rng.Intn(5) == 0 {
					o = rdf.Literal(fmt.Sprintf("v%d", rng.Intn(10)))
				}
				triples = append(triples, rdf.Triple{S: node(), P: pred(), O: o})
			}
			if err := writeDelta(store, pidBase+s%3, s/3, triples); err != nil {
				t.Fatal(err)
			}
		}
	}
	writeSegments(0, 6+rng.Intn(6))
	if _, err := store.PackSegments(1); err != nil {
		t.Fatalf("PackSegments: %v", err)
	}
	writeSegments(10, 3+rng.Intn(4))
	return store
}

// lazyParityQueries is the fixed query mix of the parity property: full
// scans, bound positions, a join, and a union — enough shapes to exercise
// morsel partitioning, constant resolution through the shared dictionary,
// and cross-unit joins — plus constants no unit holds, in a BGP, a property
// path and a FILTER, which must resolve as absent as they do on a snapshot.
func lazyParityQueries(rng *rand.Rand) []string {
	rel := model.AllRelations()[rng.Intn(len(model.AllRelations()))].IRI().Value
	return []string{
		`SELECT ?s ?p ?o WHERE { ?s ?p ?o }`,
		fmt.Sprintf(`SELECT ?s ?o WHERE { ?s <urn:p%d> ?o }`, rng.Intn(6)),
		fmt.Sprintf(`SELECT ?p ?o WHERE { <urn:n%d> ?p ?o }`, rng.Intn(40)),
		fmt.Sprintf(`SELECT ?s ?p WHERE { ?s ?p <urn:n%d> }`, rng.Intn(40)),
		fmt.Sprintf(`SELECT ?a ?c WHERE { ?a <%s> ?b . ?b ?p ?c }`, rel),
		fmt.Sprintf(`SELECT ?s WHERE { { ?s <urn:p%d> ?o } UNION { ?s <%s> ?o } }`, rng.Intn(6), rel),
		`SELECT ?s ?o WHERE { ?s <urn:absent-p> ?o }`,
		fmt.Sprintf(`SELECT ?s ?x WHERE { ?s <%s> ?o OPTIONAL { ?o <urn:absent-p> ?x } }`, rel),
		fmt.Sprintf(`SELECT ?s ?o WHERE { ?s <%s>/<urn:absent-p>* ?o }`, rel),
		fmt.Sprintf(`SELECT ?o WHERE { <urn:absent-n> <%s>* ?o }`, rel),
		`SELECT ?s ?o WHERE { ?s ?p ?o FILTER(?o != <urn:absent-n>) }`,
		`SELECT ?s WHERE { ?s ?p ?o FILTER(?o = <urn:absent-n>) }`,
	}
}

// TestLazyParityProperty is the out-of-core equivalence property: for random
// mixed layouts, every query and lineage reduction over a LazyView must be
// byte-identical to the eager path, for cache budgets unbounded, half the
// decoded footprint, and an eighth of it, at 1 and 4 workers — and the
// resident decoded set must never exceed the budget.
func TestLazyParityProperty(t *testing.T) {
	sawEviction := false
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		store := buildScatteredStore(t, rng)

		full, scan, err := store.MergePruned(nil, 3)
		if err != nil {
			t.Fatal(err)
		}
		if scan.Packs != 1 {
			t.Fatalf("seed %d: layout lost its pack: %+v", seed, scan)
		}
		fullNT := ntBytes(t, full)
		queries := lazyParityQueries(rng)
		eager := make([][]byte, len(queries))
		for i, q := range queries {
			eager[i] = queryBytes(t, full.Snapshot(), q, 2)
		}

		// The unbounded view's resident bytes after full materialization are
		// the store's total decoded footprint — the yardstick the bounded
		// budgets divide.
		v0, err := store.OpenLazy(CacheConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if g0, _, err := v0.MaterializeGraph(2); err != nil {
			t.Fatal(err)
		} else if !bytes.Equal(fullNT, ntBytes(t, g0)) {
			t.Fatalf("seed %d: unbounded MaterializeGraph differs from eager merge", seed)
		}
		total := v0.Stats().ResidentBytes
		if total <= 0 {
			t.Fatalf("seed %d: empty decoded footprint", seed)
		}

		node := func() rdf.Term { return rdf.IRI(fmt.Sprintf("urn:n%d", rng.Intn(40))) }
		for _, budget := range []int64{0, total / 2, total / 8} {
			for _, workers := range []int{1, 4} {
				tag := fmt.Sprintf("seed %d budget %d workers %d", seed, budget, workers)
				v, err := store.OpenLazy(CacheConfig{MaxBytes: budget})
				if err != nil {
					t.Fatal(err)
				}
				src := v.Source(nil)
				for i, q := range queries {
					got := queryBytes(t, src, q, workers)
					if err := src.Err(); err != nil {
						t.Fatalf("%s query %d: view failed: %v", tag, i, err)
					}
					if !bytes.Equal(eager[i], got) {
						t.Fatalf("%s query %d (%s): lazy result differs from eager", tag, i, q)
					}
				}
				if g, _, err := v.MaterializeGraph(workers); err != nil {
					t.Fatalf("%s: MaterializeGraph: %v", tag, err)
				} else if !bytes.Equal(fullNT, ntBytes(t, g)) {
					t.Fatalf("%s: MaterializeGraph differs from eager merge", tag)
				}

				for trial := 0; trial < 2; trial++ {
					roots := []rdf.Term{node()}
					hops := 1 + rng.Intn(3)
					want := ReduceLineage(full, roots, hops)
					got, _, err := v.ReduceLineagePruned(roots, hops, workers)
					if err != nil {
						t.Fatalf("%s: lazy lineage: %v", tag, err)
					}
					if !bytes.Equal(ntBytes(t, want), ntBytes(t, got)) {
						t.Fatalf("%s: lazy lineage differs from eager (roots=%v hops=%d)", tag, roots, hops)
					}
				}

				// A pruner admits the same units lazily as eagerly: hydrating
				// the lazy source's unit list reproduces the pruned merge.
				p := PrunePattern{S: termPtr(node())}
				if rng.Intn(2) == 0 {
					p = PrunePattern{O: termPtr(node())}
				}
				pr := &SegmentPruner{Patterns: []PrunePattern{p}}
				wantPruned, _, err := store.MergePruned(pr, workers)
				if err != nil {
					t.Fatal(err)
				}
				ps := v.Source(pr)
				gotPruned := rdf.NewGraph()
				if err := v.hydrateAll(ps.units, workers, gotPruned); err != nil {
					t.Fatalf("%s: hydrating pruned source: %v", tag, err)
				}
				if !bytes.Equal(ntBytes(t, wantPruned), ntBytes(t, gotPruned)) {
					t.Fatalf("%s: pruned lazy source differs from eager pruned merge", tag)
				}

				st := v.Stats()
				if budget > 0 {
					if st.PeakBytes > budget {
						t.Fatalf("%s: peak resident %d exceeds budget %d", tag, st.PeakBytes, budget)
					}
					if st.ResidentBytes > budget {
						t.Fatalf("%s: resident %d exceeds budget %d", tag, st.ResidentBytes, budget)
					}
					if st.Evictions > 0 {
						sawEviction = true
					}
				}
				if st.Hits+st.Misses == 0 {
					t.Fatalf("%s: cache never touched", tag)
				}
			}
		}
	}
	if !sawEviction {
		t.Fatal("no bounded run ever evicted: the budgets are not exercising the cache")
	}
}

// TestLazyScanRangePartitioning pins the ScanSource contract on the
// federation: concatenating adjacent ScanRange windows reproduces the full
// enumeration exactly, for arbitrary split points — the property the
// parallel executor's morsel scheduler relies on.
func TestLazyScanRangePartitioning(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	store := buildScatteredStore(t, rng)
	v, err := store.OpenLazy(CacheConfig{MaxBytes: 1}) // everything transient: worst case
	if err != nil {
		t.Fatal(err)
	}
	src := v.Source(nil)

	collect := func(s, p, o rdf.ID, cuts []int) []string {
		var out []string
		prev := 0
		for _, c := range append(cuts, src.ScanLen(s, p, o)) {
			src.ScanRange(s, p, o, prev, c, func(a, b, cc rdf.ID) bool {
				out = append(out, fmt.Sprintf("%d %d %d", a, b, cc))
				return true
			})
			prev = c
		}
		return out
	}
	pid, _ := src.TermID(rdf.IRI("urn:p1"))
	nid, _ := src.TermID(rdf.IRI("urn:n3"))
	patterns := [][3]rdf.ID{
		{rdf.NoID, rdf.NoID, rdf.NoID},
		{rdf.NoID, pid, rdf.NoID},
		{nid, rdf.NoID, rdf.NoID},
		{rdf.NoID, rdf.NoID, nid},
	}
	for _, pat := range patterns {
		n := src.ScanLen(pat[0], pat[1], pat[2])
		whole := collect(pat[0], pat[1], pat[2], nil)
		for trial := 0; trial < 4; trial++ {
			var cuts []int
			for c := 0; c < 1+rng.Intn(3); c++ {
				if n > 0 {
					cuts = append(cuts, rng.Intn(n+1))
				}
			}
			// ScanRange windows must be ordered; sort the cut points.
			for i := range cuts {
				for j := i + 1; j < len(cuts); j++ {
					if cuts[j] < cuts[i] {
						cuts[i], cuts[j] = cuts[j], cuts[i]
					}
				}
			}
			split := collect(pat[0], pat[1], pat[2], cuts)
			if len(split) != len(whole) {
				t.Fatalf("pattern %v cuts %v: %d emitted, want %d", pat, cuts, len(split), len(whole))
			}
			for i := range whole {
				if whole[i] != split[i] {
					t.Fatalf("pattern %v cuts %v: item %d is %s, want %s", pat, cuts, i, split[i], whole[i])
				}
			}
		}
	}
	if err := src.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestLazyViewServesOldLayoutFromCache: a fully resident view must keep
// answering with its open-time layout after PackSegments and Compact rewrite
// the store underneath it — the "old consistent layout" half of the race
// contract.
func TestLazyViewServesOldLayoutFromCache(t *testing.T) {
	store := newBinaryVFSStore(t)
	for pid := 0; pid < 3; pid++ {
		smallHistory(t, store, pid)
	}
	baseline := ntBytes(t, mustMerge(t, store))
	v, err := store.OpenLazy(CacheConfig{}) // unbounded: everything stays resident
	if err != nil {
		t.Fatal(err)
	}
	if g, _, err := v.MaterializeGraph(2); err != nil {
		t.Fatal(err)
	} else if !bytes.Equal(baseline, ntBytes(t, g)) {
		t.Fatal("pre-maintenance materialization differs from merge")
	}
	if _, err := store.PackSegments(1); err != nil {
		t.Fatal(err)
	}
	if err := store.Compact(); err != nil {
		t.Fatal(err)
	}
	g, _, err := v.MaterializeGraph(2)
	if err != nil {
		t.Fatalf("resident view failed after maintenance: %v", err)
	}
	if !bytes.Equal(baseline, ntBytes(t, g)) {
		t.Fatal("resident view's answer changed under maintenance")
	}
	if err := v.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestLazyViewStaleAfterMaintenance: a view that must re-fetch (tiny budget,
// nothing resident) after Compact/PackSegments rewrote the layout fails with
// an error classified as ErrStaleView, and the error sticks in Err() whichever
// read saw it — the other half of the race contract: never a partial mixture
// of generations.
func TestLazyViewStaleAfterMaintenance(t *testing.T) {
	compacted := func(t *testing.T) *LazyView {
		store := newBinaryVFSStore(t)
		smallHistory(t, store, 0)
		smallHistory(t, store, 1)
		v, err := store.OpenLazy(CacheConfig{MaxBytes: 1})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := v.MaterializeGraph(1); err != nil {
			t.Fatal(err)
		}
		if err := store.Compact(); err != nil {
			t.Fatal(err)
		}
		return v
	}
	t.Run("compact", func(t *testing.T) {
		v := compacted(t)
		if _, _, err := v.MaterializeGraph(1); !errors.Is(err, ErrStaleView) {
			t.Fatalf("materialize after Compact: err=%v, want ErrStaleView", err)
		}
		if err := v.Err(); !errors.Is(err, ErrStaleView) {
			t.Fatalf("materialize after Compact: Err()=%v, want ErrStaleView", err)
		}
	})
	t.Run("lineage", func(t *testing.T) {
		v := compacted(t)
		root := []rdf.Term{rdf.IRI(model.NodeIRI(model.Program, "verify.exe"))}
		if _, _, err := v.ReduceLineagePruned(root, 2, 1); !errors.Is(err, ErrStaleView) {
			t.Fatalf("lineage after Compact: err=%v, want ErrStaleView", err)
		}
		if err := v.Err(); !errors.Is(err, ErrStaleView) {
			t.Fatalf("lineage after Compact: Err()=%v, want ErrStaleView", err)
		}
	})
	t.Run("pack", func(t *testing.T) {
		store := newBinaryVFSStore(t)
		smallHistory(t, store, 0)
		smallHistory(t, store, 1)
		v, err := store.OpenLazy(CacheConfig{MaxBytes: 1})
		if err != nil {
			t.Fatal(err)
		}
		src := v.Source(nil)
		baseline := queryBytes(t, src, `SELECT ?s ?p ?o WHERE { ?s ?p ?o }`, 2)
		if err := src.Err(); err != nil {
			t.Fatal(err)
		}
		if _, err := store.PackSegments(1); err != nil {
			t.Fatal(err)
		}
		// The segments the view pinned are gone; the sticky view error must
		// classify the staleness, and the discarded result must not be
		// mistaken for an answer.
		queryBytes(t, src, `SELECT ?s ?p ?o WHERE { ?s ?p ?o }`, 2)
		if err := src.Err(); !errors.Is(err, ErrStaleView) {
			t.Fatalf("query after PackSegments: Err()=%v, want ErrStaleView", err)
		}
		// A fresh view over the new layout answers identically.
		v2, err := store.OpenLazy(CacheConfig{MaxBytes: 1})
		if err != nil {
			t.Fatal(err)
		}
		src2 := v2.Source(nil)
		if got := queryBytes(t, src2, `SELECT ?s ?p ?o WHERE { ?s ?p ?o }`, 2); !bytes.Equal(baseline, got) {
			t.Fatal("reopened view answers differently over the packed layout")
		}
		if err := src2.Err(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestEagerScanStaleClassification: the eager scan path classifies a unit
// list raced by maintenance the same way — a pack that vanished between
// listing and decode surfaces ErrStaleView, not a bare read error.
func TestEagerScanStaleClassification(t *testing.T) {
	store := newBinaryVFSStore(t)
	smallHistory(t, store, 0)
	smallHistory(t, store, 1)
	if _, err := store.PackSegments(1); err != nil {
		t.Fatal(err)
	}
	l, err := store.listUnits()
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Compact(); err != nil { // folds the pack away
		t.Fatal(err)
	}
	members := 0
	for _, u := range l.units {
		if u.member == "" {
			continue
		}
		members++
		u.data = nil
		if _, err := u.fetch(store); !errors.Is(err, ErrStaleView) {
			t.Fatalf("fetch of vanished pack member %s: err=%v, want ErrStaleView", u.member, err)
		}
	}
	if members == 0 {
		t.Fatal("layout grew no pack members; the race never happened")
	}
}

// TestLazyReadFaultInjection drives lazy reads through faultfs: injected
// read failures and a mid-read crash must surface as classified errors on a
// cold view while a warm view keeps serving its cached, consistent decode —
// never partial output.
func TestLazyReadFaultInjection(t *testing.T) {
	inner := VFSBackend{View: vfs.NewStore().NewView()}
	ffs := faultfs.New(inner, 1)
	store, err := NewStore(ffs, "/prov", FormatBinary)
	if err != nil {
		t.Fatal(err)
	}
	smallHistory(t, store, 0)
	smallHistory(t, store, 1)
	if _, err := store.PackSegments(1); err != nil {
		t.Fatal(err)
	}
	baseline := ntBytes(t, mustMerge(t, store))

	warm, err := store.OpenLazy(CacheConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if g, _, err := warm.MaterializeGraph(2); err != nil || !bytes.Equal(baseline, ntBytes(t, g)) {
		t.Fatalf("warm view baseline: err=%v", err)
	}
	cold, err := store.OpenLazy(CacheConfig{MaxBytes: 1})
	if err != nil {
		t.Fatal(err)
	}

	ffs.FailReads(true)
	if _, _, err := cold.MaterializeGraph(2); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("cold view under failing reads: err=%v, want ErrInjected", err)
	}
	if g, _, err := warm.MaterializeGraph(2); err != nil || !bytes.Equal(baseline, ntBytes(t, g)) {
		t.Fatalf("warm view under failing reads: err=%v (cache must serve)", err)
	}
	ffs.Heal()

	// Crash point during a lazy read epoch: the crash fires on the next
	// mutating operation, after which every backend read returns ErrCrashed.
	ffs.CrashAt(0, 0)
	if err := writeDelta(store, 9, 0, []rdf.Triple{
		{S: rdf.IRI("urn:a"), P: rdf.IRI("urn:p"), O: rdf.IRI("urn:b")},
	}); err == nil {
		t.Fatal("write survived the armed crash point")
	}
	cold2, err := store.OpenLazy(CacheConfig{MaxBytes: 1})
	if err == nil {
		if _, _, merr := cold2.MaterializeGraph(2); !errors.Is(merr, faultfs.ErrCrashed) {
			t.Fatalf("cold view across crash: err=%v, want ErrCrashed", merr)
		}
	}
	if g, _, err := warm.MaterializeGraph(2); err != nil || !bytes.Equal(baseline, ntBytes(t, g)) {
		t.Fatalf("warm view across crash: err=%v (cache must serve)", err)
	}
}

// readCountingBackend records, per path, every whole-file read and the
// offset of every range read that reaches the wrapped backend.
type readCountingBackend struct {
	VFSBackend
	mu     sync.Mutex
	whole  map[string]int
	ranges map[string][]int64
}

func (b *readCountingBackend) ReadFile(path string) ([]byte, error) {
	b.mu.Lock()
	b.whole[path]++
	b.mu.Unlock()
	return b.VFSBackend.ReadFile(path)
}

func (b *readCountingBackend) ReadFileRange(path string, off, n int64) ([]byte, error) {
	b.mu.Lock()
	b.ranges[path] = append(b.ranges[path], off)
	b.mu.Unlock()
	return b.VFSBackend.ReadFileRange(path, off, n)
}

// TestOpenLazyReadsEachPackHeaderOnce: opening a view lists the store
// through the one unit listing, so each pack costs exactly one header fetch
// — a single range read at offset 0 — and no read of member bytes: no
// whole-file read of a pack, no range read past the header prefix. (Loose
// files are read whole once, to digest them.)
func TestOpenLazyReadsEachPackHeaderOnce(t *testing.T) {
	cb := &readCountingBackend{VFSBackend: VFSBackend{View: vfs.NewStore().NewView()},
		whole: map[string]int{}, ranges: map[string][]int64{}}
	store, err := NewStore(cb, "/prov", FormatBinary)
	if err != nil {
		t.Fatal(err)
	}
	// Two L1 packs (a pack is never folded into one of its own level) plus
	// the loose canonical files of all four pids.
	for pid := 0; pid < 4; pid++ {
		smallHistory(t, store, pid)
		if pid%2 == 1 {
			if _, err := store.PackSegments(1); err != nil {
				t.Fatal(err)
			}
		}
	}
	cb.whole, cb.ranges = map[string]int{}, map[string][]int64{}

	view, err := store.OpenLazy(CacheConfig{})
	if err != nil {
		t.Fatal(err)
	}
	packs := map[string]bool{}
	for _, u := range view.layout.units {
		if u.member != "" {
			packs[u.path] = true
		}
	}
	if len(packs) != 2 {
		t.Fatalf("layout has %d pack(s), want 2", len(packs))
	}
	for p := range packs {
		if offs := cb.ranges[p]; len(offs) != 1 || offs[0] != 0 {
			t.Errorf("%s: range reads at offsets %v during OpenLazy, want exactly one at 0 (the header)", p, offs)
		}
		if n := cb.whole[p]; n != 0 {
			t.Errorf("%s: %d whole-file read(s) during OpenLazy, want 0", p, n)
		}
	}
	for p, n := range cb.whole {
		if n != 1 {
			t.Errorf("%s: read whole %d times during OpenLazy, want once", p, n)
		}
	}
}
