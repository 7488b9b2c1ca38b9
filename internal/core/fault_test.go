package core

import (
	"errors"
	"testing"

	"github.com/hpc-io/prov-io/internal/faultfs"
	"github.com/hpc-io/prov-io/internal/model"
	"github.com/hpc-io/prov-io/internal/rdf"
	"github.com/hpc-io/prov-io/internal/vfs"
)

// The fault injector lives in internal/faultfs; these tests exercise the
// error paths a Lustre outage would hit mid-run through it. faultfs.FS
// satisfies core.Backend structurally — no adapter.
func newFaultBackend(view *vfs.View) *faultfs.FS {
	return faultfs.New(VFSBackend{View: view}, 1)
}

func TestFlushPropagatesWriteFailure(t *testing.T) {
	fb := newFaultBackend(vfs.NewStore().NewView())
	store, err := NewStore(fb, "/prov", FormatBinary)
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTracker(DefaultConfig(), store, 0)
	tr.RegisterUser("u")
	fb.FailWrites(true)
	if err := tr.Flush(); !errors.Is(err, faultfs.ErrInjected) {
		t.Errorf("Flush err = %v, want injected", err)
	}
	if err := tr.Close(); !errors.Is(err, faultfs.ErrInjected) {
		t.Errorf("Close err = %v, want injected", err)
	}
	// Recovery: once the backend heals, a retry succeeds and the graph is
	// intact (nothing was lost from memory).
	fb.FailWrites(false)
	if err := tr.Flush(); err != nil {
		t.Errorf("Flush after recovery: %v", err)
	}
	n, err := store.TotalBytes()
	if err != nil || n == 0 {
		t.Errorf("provenance not persisted after recovery: %d, %v", n, err)
	}
}

func TestMergePropagatesReadFailure(t *testing.T) {
	fb := newFaultBackend(vfs.NewStore().NewView())
	store, _ := NewStore(fb, "/prov", FormatBinary)
	tr := NewTracker(DefaultConfig(), store, 0)
	tr.RegisterUser("u")
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	fb.FailReads(true)
	if _, err := store.Merge(); !errors.Is(err, faultfs.ErrInjected) {
		t.Errorf("Merge err = %v, want injected", err)
	}
	fb.FailReads(false)
	fb.FailList(true)
	if _, err := store.Merge(); !errors.Is(err, faultfs.ErrInjected) {
		t.Errorf("Merge with list failure err = %v", err)
	}
	if _, err := store.TotalBytes(); !errors.Is(err, faultfs.ErrInjected) {
		t.Errorf("TotalBytes with list failure err = %v", err)
	}
}

func TestMergeRejectsCorruptSubgraph(t *testing.T) {
	view := vfs.NewStore().NewView()
	store, _ := NewStore(VFSBackend{View: view}, "/prov", FormatBinary)
	tr := NewTracker(DefaultConfig(), store, 0)
	tr.RegisterUser("u")
	tr.Close()
	// Corrupt the flushed file.
	view.WriteFile("/prov/prov_p000000.pbs", []byte("PBS broken"))
	if _, err := store.Merge(); err == nil {
		t.Error("corrupt sub-graph merged without error")
	}
}

func TestPeriodicFlushSurvivesTransientFailure(t *testing.T) {
	// A failing periodic flush must not corrupt the in-memory graph; the
	// final Close (after recovery) persists everything.
	fb := newFaultBackend(vfs.NewStore().NewView())
	store, _ := NewStore(fb, "/prov", FormatBinary)
	cfg := DefaultConfig()
	cfg.Mode = ModePeriodic
	cfg.FlushEvery = 5
	tr := NewTracker(cfg, store, 0)
	fb.FailWrites(true)
	for i := 0; i < 20; i++ {
		tr.TrackIO(model.Write, "write", rdf.Term{}, rdf.Term{}, 0, 0)
	}
	// The async writer's failures are not dropped: Drain surfaces the first
	// one (and clears it) once every enqueued segment has been attempted.
	if err := tr.Drain(); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("Drain must surface the deferred periodic flush error, got %v", err)
	}
	fb.FailWrites(false)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	g, err := store.Merge()
	if err != nil {
		t.Fatal(err)
	}
	acts := g.Find(nil, rdf.IRI(rdf.RDFType).Ptr(), model.Write.IRI().Ptr())
	if len(acts) != 20 {
		t.Errorf("activities persisted = %d, want 20", len(acts))
	}
}

func TestPartialFlushThenFinalClose(t *testing.T) {
	fb := newFaultBackend(vfs.NewStore().NewView())
	// A flush is one write, the sealed canonical file. Let the first
	// flush's through, fail later ones.
	fb.FailWritesAfter(1)
	store, _ := NewStore(fb, "/prov", FormatBinary)
	tr := NewTracker(DefaultConfig(), store, 0)
	tr.RegisterUser("u")
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	tr.RegisterProgram("p", rdf.Term{})
	if err := tr.Flush(); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("second flush err = %v", err)
	}
	// The store still holds the first flush's consistent snapshot.
	g, err := store.Merge()
	if err != nil {
		t.Fatal(err)
	}
	user := rdf.IRI(model.NodeIRI(model.User, "u"))
	if len(g.Find(user.Ptr(), nil, nil)) == 0 {
		t.Error("first flush's snapshot lost")
	}
	// And that snapshot verifies clean: the failed rewrite left no partial
	// state behind (the canonical write itself was rejected atomically).
	rep, err := store.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Errorf("store not clean after failed flush: %v", rep.Defects)
	}
}
