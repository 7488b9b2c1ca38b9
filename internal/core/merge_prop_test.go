package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"github.com/hpc-io/prov-io/internal/model"
	"github.com/hpc-io/prov-io/internal/rdf"
	"github.com/hpc-io/prov-io/internal/rdf/segcodec"
	"github.com/hpc-io/prov-io/internal/vfs"
)

// buildMultiProcessStore populates a store with procs sub-graphs sharing
// some nodes (users, files) and holding private ones (activities). Periodic
// delta mode leaves uncompacted segments for odd pids, so merges see a mix
// of canonical files and segments.
func buildMultiProcessStore(t *testing.T, procs int) *Store {
	t.Helper()
	view := vfs.NewStore().NewView()
	store, err := NewStore(VFSBackend{View: view}, "/prov", FormatBinary)
	if err != nil {
		t.Fatal(err)
	}
	for pid := 0; pid < procs; pid++ {
		cfg := DefaultConfig()
		if pid%2 == 1 {
			cfg.Mode = ModePeriodic
			cfg.FlushEvery = 3
			cfg.Pipeline = PipelineDelta
		}
		tr := NewTracker(cfg, store, pid)
		user := tr.RegisterUser("shared-user")
		prog := tr.RegisterProgram(fmt.Sprintf("prog-%d", pid%3), user)
		for i := 0; i < 10; i++ {
			obj := tr.TrackDataObject(model.File, fmt.Sprintf("/shared/f%d", i%4), "", rdf.Term{}, prog)
			tr.TrackIO(model.Read, "read", obj, prog, 0, 0)
		}
		if pid%2 == 1 {
			// Leave the segments in place: no Close, just a drain of
			// nothing (PipelineDelta writes inline). The canonical file for
			// this pid never exists.
			continue
		}
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return store
}

// ntBytes canonicalizes a graph to sorted N-Triples for byte comparison.
func ntBytes(t *testing.T, g *rdf.Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := rdf.WriteNTriples(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestMergeParallelMatchesSequential(t *testing.T) {
	store := buildMultiProcessStore(t, 9)
	seq, err := store.Merge()
	if err != nil {
		t.Fatal(err)
	}
	want := ntBytes(t, seq)
	for _, workers := range []int{2, 3, 8, 64} {
		par, _, err := store.MergePruned(nil, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !bytes.Equal(want, ntBytes(t, par)) {
			t.Errorf("workers=%d: parallel merge differs from sequential", workers)
		}
	}
}

// TestMergeIdempotent: merging the same store repeatedly yields
// triple-identical graphs (merge is a pure function of the store).
func TestMergeIdempotent(t *testing.T) {
	store := buildMultiProcessStore(t, 5)
	first, err := store.Merge()
	if err != nil {
		t.Fatal(err)
	}
	want := ntBytes(t, first)
	for i := 0; i < 3; i++ {
		again, _, err := store.MergePruned(nil, 4)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, ntBytes(t, again)) {
			t.Fatalf("merge %d differs", i)
		}
	}
}

// mergeFiles decodes an explicit file list (in the given order) into one
// graph through the store's unit path.
func mergeFiles(s *Store, files []string, workers int) (*rdf.Graph, error) {
	units := make([]*scanUnit, len(files))
	for i, f := range files {
		units[i] = &scanUnit{path: f}
	}
	return mergeUnits(units, workers, s.decode)
}

// TestMergeOrderIndependent: merging shuffled file lists yields
// triple-identical graphs — graph union commutes.
func TestMergeOrderIndependent(t *testing.T) {
	store := buildMultiProcessStore(t, 7)
	files := provFiles(t, store)
	if len(files) < 4 {
		t.Fatalf("want several files, got %v", files)
	}
	base, err := mergeFiles(store, files, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := ntBytes(t, base)
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 5; trial++ {
		shuffled := append([]string(nil), files...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		for _, workers := range []int{1, 4} {
			g, err := mergeFiles(store, shuffled, workers)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(want, ntBytes(t, g)) {
				t.Fatalf("trial %d workers %d: shuffled merge differs", trial, workers)
			}
		}
	}
}

// TestMergeParallelPropagatesErrors: a corrupt file fails the parallel
// merge just like the sequential one.
func TestMergeParallelPropagatesErrors(t *testing.T) {
	view := vfs.NewStore().NewView()
	store, err := NewStore(VFSBackend{View: view}, "/prov", FormatBinary)
	if err != nil {
		t.Fatal(err)
	}
	for pid := 0; pid < 6; pid++ {
		tr := NewTracker(DefaultConfig(), store, pid)
		tr.RegisterUser("u")
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if err := view.WriteFile("/prov/prov_p000003.pbs", []byte("PBS\x05 not a segment")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := store.MergePruned(nil, 4); !errors.Is(err, segcodec.ErrCorrupt) {
		t.Errorf("parallel merge of a corrupt sub-graph returned %v, want ErrCorrupt", err)
	}
}

// TestCompactFoldsSegments: Store.Compact folds orphaned segments (a
// crashed run's leftovers) into canonical files without changing the merged
// graph.
func TestCompactFoldsSegments(t *testing.T) {
	store := buildMultiProcessStore(t, 6)
	before, err := store.Merge()
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Compact(); err != nil {
		t.Fatal(err)
	}
	files := provFiles(t, store)
	for _, f := range files {
		if bytes.Contains([]byte(f), []byte(".seg")) {
			t.Errorf("segment survived compaction: %s", f)
		}
	}
	after, err := store.Merge()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ntBytes(t, before), ntBytes(t, after)) {
		t.Error("compaction changed the merged graph")
	}
}
