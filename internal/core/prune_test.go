package core

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"strings"
	"testing"
	"time"

	"github.com/hpc-io/prov-io/internal/model"
	"github.com/hpc-io/prov-io/internal/rdf"
	"github.com/hpc-io/prov-io/internal/rdf/segcodec"
	"github.com/hpc-io/prov-io/internal/vfs"
)

// newBinaryVFSStore opens an empty binary-format store on a fresh VFS view.
func newBinaryVFSStore(t testing.TB) *Store {
	t.Helper()
	store, err := NewStore(VFSBackend{View: vfs.NewStore().NewView()}, "/prov", FormatBinary)
	if err != nil {
		t.Fatal(err)
	}
	return store
}

// matchSubset asserts every triple of full matching the pattern is present in
// pruned — the soundness contract of statistics pushdown: pruning may drop
// whole segments, never answers.
func matchSubset(t *testing.T, full, pruned *rdf.Graph, p PrunePattern, label string) {
	t.Helper()
	missing := 0
	full.ForEachMatch(p.S, p.P, p.O, func(tr rdf.Triple) bool {
		if !pruned.Has(tr) {
			missing++
			if missing <= 3 {
				t.Errorf("%s: pruned merge lost %v", label, tr)
			}
		}
		return true
	})
	if missing > 0 {
		t.Fatalf("%s: %d matching triples missing from pruned merge", label, missing)
	}
}

// TestPackPreservesHeadsAndMerge: leveled compaction relocates members
// verbatim, so the merged graph, the audit, and chain heads recorded BEFORE
// packing all survive PackSegments — at level 1 and again when level 2 folds
// the level-1 pack.
func TestPackPreservesHeadsAndMerge(t *testing.T) {
	store := newBinaryVFSStore(t)
	for pid := 0; pid < 3; pid++ {
		smallHistory(t, store, pid)
	}
	before, err := store.Merge()
	if err != nil {
		t.Fatal(err)
	}
	want := ntBytes(t, before)
	heads := mustVerify(t, store).Heads

	for i, level := range []int{1, 2} {
		name, err := store.PackSegments(level)
		if err != nil {
			t.Fatalf("PackSegments(%d): %v", level, err)
		}
		if n, ok := parseStoreName(name); !ok || n.kind != kindPack || n.level != level {
			t.Fatalf("pack name %q does not parse back to level %d", name, level)
		}
		rep := mustVerify(t, store)
		if !rep.Clean() {
			t.Fatalf("after PackSegments(%d): %v", level, rep.Defects)
		}
		if rep.Packs != 1 {
			t.Fatalf("after PackSegments(%d): Packs=%d, want 1", level, rep.Packs)
		}
		anchored, err := store.VerifyAgainst(heads)
		if err != nil {
			t.Fatal(err)
		}
		if !anchored.Clean() {
			t.Fatalf("pre-pack heads rejected after PackSegments(%d): %v", level, anchored.Defects)
		}
		g, _, err := store.MergePruned(nil, 1+i*3)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, ntBytes(t, g)) {
			t.Fatalf("merged graph changed across PackSegments(%d)", level)
		}
	}

	// Loose segments are gone; the canonical anchors stay loose.
	files := provFiles(t, store)
	packs, canonicals := 0, 0
	for _, f := range files {
		switch {
		case strings.HasSuffix(f, segcodec.Pack.Ext()):
			packs++
		case strings.Contains(f, ".seg"):
			t.Fatalf("loose segment survived packing: %s", f)
		default:
			canonicals++
		}
	}
	if packs != 1 || canonicals != 3 {
		t.Fatalf("layout after packing: %d packs, %d canonicals (want 1, 3): %v", packs, canonicals, files)
	}

	levels, err := store.Levels()
	if err != nil {
		t.Fatal(err)
	}
	if len(levels) != 2 || levels[0].Level != 0 || levels[1].Level != 2 {
		t.Fatalf("Levels() = %+v, want L0 + L2", levels)
	}
}

// TestCompactFoldsPacks: Compact is the inverse door of leveled compaction —
// it folds pack members back into canonical files, removes every pack, and
// preserves the merged graph and a clean audit.
func TestCompactFoldsPacks(t *testing.T) {
	store := newBinaryVFSStore(t)
	for pid := 0; pid < 3; pid++ {
		smallHistory(t, store, pid)
	}
	before, err := store.Merge()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.PackSegments(1); err != nil {
		t.Fatal(err)
	}
	if err := store.Compact(); err != nil {
		t.Fatalf("Compact on packed store: %v", err)
	}
	files := provFiles(t, store)
	for _, f := range files {
		if strings.HasSuffix(f, segcodec.Pack.Ext()) {
			t.Fatalf("pack survived Compact: %s", f)
		}
		if strings.Contains(f, ".seg") {
			t.Fatalf("segment survived Compact: %s", f)
		}
	}
	after, err := store.Merge()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ntBytes(t, before), ntBytes(t, after)) {
		t.Fatal("Compact of a packed store changed the merged graph")
	}
	if rep := mustVerify(t, store); !rep.Clean() {
		t.Fatalf("post-Compact audit: %v", rep.Defects)
	}
}

// TestMixedFormatPruningNeverDropsResults: a store mixing N-Triples files,
// a pbs v1 file stripped of its stats frame and seal (the shape of a store
// written before both the stats and the integrity layers) and current
// binary files holds units with no generation 2 stats to prune on. No read
// drops those units and answers from the rest: every pruned and exhaustive
// merge, the lazy view and PackSegments refuse the store with
// ErrNeedsMigration and leave it as it was — with the text files, and with
// the v1 file alone beside the current ones. The current files on their own
// answer every pattern identically with and without pruning.
func TestMixedFormatPruningNeverDropsResults(t *testing.T) {
	text := newBinaryVFSStore(t) // pids 0 and 1, spelled as N-Triples
	for pid := 0; pid < 2; pid++ {
		smallHistory(t, text, pid)
	}
	binary := newBinaryVFSStore(t)
	smallHistory(t, binary, 2)
	smallHistory(t, binary, 3)
	v1, _ := legacyStoreFiles(t, 1, "loose")
	old := v1["prov_p000000.pbs"]
	start, end := statsFrameAt(t, old)
	withV1 := storeFiles(t, binary)
	withV1["prov_p000004.pbs"] = stripChain(append(old[:start:start], old[end:]...))
	combined := maps.Clone(withV1)
	maps.Copy(combined, asLayout(t, storeFiles(t, text), "nt"))

	user := rdf.IRI(model.ProvIONS + "user/alice")
	patterns := []PrunePattern{
		{},                                  // match-all
		{O: &user},                          // object present in every pid's files
		{S: &user},                          // subject present everywhere
		{S: termPtr(rdf.IRI("urn:absent"))}, // matches nothing
		{P: termPtr(rdf.IRI(model.AssociatedWith.IRI().Value))}, // predicate hint
	}
	for what, files := range map[string]map[string][]byte{"text and v1 beside pbs": combined, "v1 beside pbs": withV1} {
		store := openDir(t, files)
		refused := func(op string, err error) {
			t.Helper()
			if !errors.Is(err, segcodec.ErrNeedsMigration) || !strings.Contains(err.Error(), migratingBuild) {
				t.Errorf("%s: %s returned %v, want ErrNeedsMigration naming %q", what, op, err, migratingBuild)
			}
		}
		_, _, err := store.MergePruned(nil, 2)
		refused("exhaustive merge", err)
		for i, p := range patterns {
			_, _, err := store.MergePruned(&SegmentPruner{Patterns: []PrunePattern{p}}, 1)
			refused(fmt.Sprintf("pruned merge, pattern %d", i), err)
		}
		_, err = store.OpenLazy(CacheConfig{})
		refused("lazy view", err)
		_, err = store.PackSegments(2)
		refused("PackSegments", err)
		if after := storeFiles(t, store); !maps.EqualFunc(files, after, bytes.Equal) {
			t.Errorf("%s: a refused read changed the store", what)
		}
	}

	full := mustMerge(t, binary)
	for i, p := range patterns {
		pruned, _, err := binary.MergePruned(&SegmentPruner{Patterns: []PrunePattern{p}}, 1)
		if err != nil {
			t.Fatalf("pattern %d: %v", i, err)
		}
		matchSubset(t, full, pruned, p, fmt.Sprintf("current files, pattern %d", i))
	}
}

func termPtr(t rdf.Term) *rdf.Term { return &t }

// TestPrunedVsExhaustiveProperty is the randomized equivalence property over
// mixed pack + loose layouts: for arbitrary graphs scattered across delta
// segments, (a) a nil-pruner MergePruned equals the exhaustive merge, (b) for
// random patterns the pruned merge retains every matching triple, and (c) the
// lineage of a lazy view, which decodes only the units its probes can hit,
// is triple-identical to reducing the full graph.
func TestPrunedVsExhaustiveProperty(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		store := newBinaryVFSStore(t)

		node := func() rdf.Term { return rdf.IRI(fmt.Sprintf("urn:n%d", rng.Intn(40))) }
		pred := func() rdf.Term {
			// Mostly lineage relations so ReduceLineage has edges to walk.
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

		// First wave of segments gets packed; the second stays loose, so every
		// read crosses pack members and loose files.
		writeSegments(0, 6+rng.Intn(6))
		if _, err := store.PackSegments(1); err != nil {
			t.Fatalf("seed %d: PackSegments: %v", seed, err)
		}
		writeSegments(10, 3+rng.Intn(4))

		full, err := store.Merge()
		if err != nil {
			t.Fatal(err)
		}
		exhaustive, scan, err := store.MergePruned(nil, 3)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ntBytes(t, full), ntBytes(t, exhaustive)) {
			t.Fatalf("seed %d: nil-pruner merge differs from exhaustive", seed)
		}
		if scan.Packs != 1 || scan.Units < 9 {
			t.Fatalf("seed %d: scan %+v does not cover pack + loose layout", seed, scan)
		}

		for trial := 0; trial < 8; trial++ {
			var p PrunePattern
			if rng.Intn(2) == 0 {
				p.S = termPtr(node())
			}
			if rng.Intn(2) == 0 {
				p.P = termPtr(pred())
			}
			if rng.Intn(3) == 0 {
				p.O = termPtr(node())
			}
			pruned, _, err := store.MergePruned(&SegmentPruner{Patterns: []PrunePattern{p}}, 1+rng.Intn(3))
			if err != nil {
				t.Fatalf("seed %d trial %d: %v", seed, trial, err)
			}
			matchSubset(t, full, pruned, p, fmt.Sprintf("seed %d trial %d", seed, trial))
		}

		view, err := store.OpenLazy(CacheConfig{})
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 4; trial++ {
			roots := []rdf.Term{node()}
			if rng.Intn(2) == 0 {
				roots = append(roots, node())
			}
			hops := 1 + rng.Intn(3)
			want := ReduceLineage(full, roots, hops)
			got, lscan, err := view.ReduceLineagePruned(roots, hops, 1+rng.Intn(3))
			if err != nil {
				t.Fatalf("seed %d lineage %d: %v", seed, trial, err)
			}
			if !bytes.Equal(ntBytes(t, want), ntBytes(t, got)) {
				t.Fatalf("seed %d lineage %d (roots=%v hops=%d): pruned lineage differs from full reduction",
					seed, trial, roots, hops)
			}
			if lscan.Decoded > lscan.Units {
				t.Fatalf("seed %d lineage %d: scan accounting broken: %+v", seed, trial, lscan)
			}
		}
	}
}

// TestSelectiveReadsDecodeFewUnits: pushdown has to skip most of a store, not
// merely never lose an answer. Twelve processes own disjoint entities; ten
// leave sealed delta segments that PackSegments(1) folds into one pack, two
// leave canonical files. A query on one process's file, and the 2-hop lineage
// of that file, may each decode at most a quarter of the store's units —
// counted from ScanStats, so the bound does not depend on the clock.
func TestSelectiveReadsDecodeFewUnits(t *testing.T) {
	const nPids, recordsPer = 12, 24
	store := newBinaryVFSStore(t)
	var probe rdf.Term // a data object private to pid 0
	for pid := 0; pid < nPids; pid++ {
		cfg := DefaultConfig()
		canonical := pid >= nPids-2
		if !canonical {
			cfg.Mode = ModePeriodic
			cfg.FlushEvery = 8
		}
		tr := NewTracker(cfg, store, pid)
		user := tr.RegisterUser(fmt.Sprintf("user-p%02d", pid))
		prog := tr.RegisterProgram(fmt.Sprintf("program-p%02d", pid), user)
		for i := 0; i < recordsPer; i++ {
			obj := tr.TrackDataObject(model.File, fmt.Sprintf("/exp/p%02d/f%03d", pid, i), "", rdf.Term{}, rdf.Term{})
			if pid == 0 && i == 0 {
				probe = obj
			}
			tr.TrackIO(model.Write, "write", obj, prog, time.Duration(i)*time.Microsecond, 0)
		}
		finish := tr.Drain
		if canonical {
			finish = tr.Close
		}
		if err := finish(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := store.PackSegments(1); err != nil {
		t.Fatal(err)
	}
	full := mustMerge(t, store)

	fewUnits := func(read string, scan *ScanStats) {
		t.Helper()
		t.Logf("%s: decoded %d of %d units (%d/%d packs pruned whole)", read, scan.Decoded, scan.Units, scan.PacksSkipped, scan.Packs)
		if scan.Units < 4*nPids {
			t.Fatalf("%s: store has only %d units; the 25%% bound needs a store worth pruning", read, scan.Units)
		}
		if scan.Decoded == 0 || 4*scan.Decoded > scan.Units {
			t.Fatalf("%s: decoded %d of %d units, want between 1 and 25%%", read, scan.Decoded, scan.Units)
		}
		if scan.Decoded+scan.Skipped != scan.Units {
			t.Fatalf("%s: scan accounting broken: %+v", read, scan)
		}
	}

	pattern := PrunePattern{S: &probe}
	pruned, qscan, err := store.MergePruned(&SegmentPruner{Patterns: []PrunePattern{pattern}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Find(&probe, nil, nil)) == 0 {
		t.Fatal("probe has no triples in the full merge")
	}
	matchSubset(t, full, pruned, pattern, "selective query")
	fewUnits("selective query", qscan)

	view, err := store.OpenLazy(CacheConfig{})
	if err != nil {
		t.Fatal(err)
	}
	lineage, lscan, err := view.ReduceLineagePruned([]rdf.Term{probe}, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if want := ReduceLineage(full, []rdf.Term{probe}, 2); want.Len() == 0 || !bytes.Equal(ntBytes(t, want), ntBytes(t, lineage)) {
		t.Fatalf("pruned 2-hop lineage (%d triples) differs from reducing the full merge (%d triples)", lineage.Len(), want.Len())
	}
	fewUnits("2-hop lineage", lscan)
}

// TestPackCorruptionMatrix flips one bit at every byte offset of a pack file
// and asserts the system never returns a wrong answer: each flip either
// surfaces a classified decode error (ErrCorrupt/ErrTruncated) from the read
// path, or — when the flip lands in bytes the read does not interpret — the
// merge is byte-identical to the intact baseline. The audit must flag every
// flip that the read path also rejects.
func TestPackCorruptionMatrix(t *testing.T) {
	store := newBinaryVFSStore(t)
	smallHistory(t, store, 0)
	smallHistory(t, store, 1)
	packFile, err := store.PackSegments(1)
	if err != nil {
		t.Fatal(err)
	}
	clean := storeFiles(t, store)
	baseline := ntBytes(t, mustMerge(t, store))

	data := clean[packFile]
	if len(data) == 0 {
		t.Fatalf("pack file %s missing from snapshot", packFile)
	}
	silentWrong, unclassified := 0, 0
	for i := range data {
		mut := make(map[string][]byte, len(clean))
		for n, d := range clean {
			mut[n] = d
		}
		flipped := append([]byte(nil), data...)
		flipped[i] ^= 1 << (i % 8)
		mut[packFile] = flipped
		tstore := openDir(t, mut)

		g, _, err := tstore.MergePruned(nil, 1)
		if err != nil {
			if !errors.Is(err, segcodec.ErrCorrupt) && !errors.Is(err, segcodec.ErrTruncated) {
				unclassified++
				if unclassified <= 3 {
					t.Errorf("flip at %d: unclassified error %v", i, err)
				}
			}
			continue
		}
		if !bytes.Equal(baseline, ntBytes(t, g)) {
			silentWrong++
			if silentWrong <= 3 {
				t.Errorf("flip at %d: merge succeeded with DIFFERENT triples", i)
			}
		}
	}
	if silentWrong > 0 || unclassified > 0 {
		t.Fatalf("%d silent wrong answers, %d unclassified errors over %d flips",
			silentWrong, unclassified, len(data))
	}
}

// TestStatsFrameCorruptionMatrix flips every byte of a LOOSE segment's stats
// frame region: the pruner-facing reader (StatsOf) must refuse the segment as
// ErrCorrupt or — if the damaged frame still parses — the strict decode must.
// A damaged stats frame must never silently mis-prune: a pruned merge for a
// pattern matching the segment's triples either errors or still returns them
// all. And a current file with a damaged magic is damage to every read, as it
// is to the audit — never text, and never a file in need of migration.
func TestStatsFrameCorruptionMatrix(t *testing.T) {
	store := newBinaryVFSStore(t)
	triples := []rdf.Triple{
		{S: rdf.IRI("urn:a"), P: rdf.IRI("urn:p"), O: rdf.IRI("urn:b")},
		{S: rdf.IRI("urn:b"), P: rdf.IRI("urn:p"), O: rdf.Literal("x")},
	}
	if err := writeDelta(store, 0, 0, triples); err != nil {
		t.Fatal(err)
	}
	files := provFiles(t, store)
	var segPath string
	for _, f := range files {
		if strings.Contains(f, ".seg") {
			segPath = f
		}
	}
	data, err := store.backend.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	statsOff, statsEnd := statsFrameAt(t, data) // a chain frame may follow it

	subj := rdf.IRI("urn:a")
	pruner := &SegmentPruner{Patterns: []PrunePattern{{S: &subj}}}
	for i := statsOff; i < statsEnd; i++ {
		for bit := 0; bit < 8; bit++ {
			flipped := append([]byte(nil), data...)
			flipped[i] ^= 1 << bit
			if err := store.backend.WriteFile(segPath, flipped); err != nil {
				t.Fatal(err)
			}
			g, _, err := store.MergePruned(pruner, 1)
			if err != nil {
				if !errors.Is(err, segcodec.ErrCorrupt) && !errors.Is(err, segcodec.ErrTruncated) {
					t.Fatalf("flip %d/bit %d: unclassified error %v", i, bit, err)
				}
				continue
			}
			for _, tr := range triples {
				if tr.S == subj && !g.Has(tr) {
					t.Fatalf("flip %d/bit %d: damaged stats frame silently dropped %v", i, bit, tr)
				}
			}
		}
	}
	if err := store.backend.WriteFile(segPath, data); err != nil {
		t.Fatal(err)
	}

	demo := storeFiles(t, demoStore(t, VFSBackend{View: vfs.NewStore().NewView()}))
	seg := append([]byte(nil), demo["prov_p000000.seg0000.pbs"]...)
	seg[1] ^= 1
	demo["prov_p000000.seg0000.pbs"] = seg
	damaged := openDir(t, demo)
	_, _, merr := damaged.MergePruned(nil, 1)
	view, lerr := damaged.OpenLazy(CacheConfig{})
	if lerr == nil {
		_, _, lerr = view.MaterializeGraph(1)
	}
	for op, err := range map[string]error{"MergePruned": merr, "lazy MaterializeGraph": lerr} {
		if !errors.Is(err, segcodec.ErrCorrupt) || errors.Is(err, segcodec.ErrNeedsMigration) {
			t.Errorf("damaged magic: %s returned %v, want ErrCorrupt", op, err)
		}
	}
	rep := mustVerify(t, damaged)
	if len(rep.Defects) == 0 || rep.Defects[0].Name != "prov_p000000.seg0000.pbs" || rep.Defects[0].Kind != DefectTampered ||
		!strings.Contains(rep.Defects[0].Detail, "missing PBS magic") {
		t.Errorf("damaged magic: Verify found %v", rep.Defects)
	}
}

func mustMerge(t *testing.T, store *Store) *rdf.Graph {
	t.Helper()
	g, err := store.Merge()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestPackedStoreQueryAfterCrashDuplicate: a crash between the pack write and
// source removal leaves members duplicated as loose files; reads and audits
// must treat the byte-identical pair as one unit and stay clean, and a re-run
// of PackSegments converges.
func TestPackedStoreQueryAfterCrashDuplicate(t *testing.T) {
	store := newBinaryVFSStore(t)
	smallHistory(t, store, 0)
	before := storeFiles(t, store)
	baseline := ntBytes(t, mustMerge(t, store))
	packFile, err := store.PackSegments(1)
	if err != nil {
		t.Fatal(err)
	}
	// Reconstruct the crash state: pack present AND sources still loose.
	crashed := make(map[string][]byte, len(before)+1)
	for n, d := range before {
		crashed[n] = d
	}
	pdata, err := store.backend.ReadFile("/prov/" + packFile)
	if err != nil {
		t.Fatal(err)
	}
	crashed[packFile] = pdata
	cstore := openDir(t, crashed)
	if rep := mustVerify(t, cstore); !rep.Clean() {
		t.Fatalf("crash-duplicated store audits dirty: %v", rep.Defects)
	}
	if got := ntBytes(t, mustMerge(t, cstore)); !bytes.Equal(baseline, got) {
		t.Fatal("crash-duplicated store merges differently (duplicates double-counted?)")
	}
	if _, err := cstore.PackSegments(2); err != nil {
		t.Fatalf("re-packing the crash state: %v", err)
	}
	if rep := mustVerify(t, cstore); !rep.Clean() {
		t.Fatalf("after re-pack: %v", rep.Defects)
	}
	if got := ntBytes(t, mustMerge(t, cstore)); !bytes.Equal(baseline, got) {
		t.Fatal("re-pack changed the merged graph")
	}
}
