package bench

import (
	"fmt"
	"testing"

	"github.com/hpc-io/prov-io/internal/core"
	"github.com/hpc-io/prov-io/internal/model"
	"github.com/hpc-io/prov-io/internal/rdf"
	"github.com/hpc-io/prov-io/internal/vfs"
)

// benchPeriodicFlush measures the per-record cost of tracking with periodic
// flushing under one pipeline. With the inline-full pipeline every flush
// re-serializes the whole sub-graph, so ns/op grows with b.N (O(graph) per
// flush); the delta pipelines serialize only the records since the last
// flush, so ns/op stays flat (O(new triples) per flush).
func benchPeriodicFlush(b *testing.B, p core.Pipeline) {
	b.Helper()
	view := vfs.NewStore().NewView()
	store, err := core.NewStore(core.VFSBackend{View: view}, "/prov", core.FormatBinary)
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Mode = core.ModePeriodic
	cfg.FlushEvery = 64
	cfg.Pipeline = p
	tr := core.NewTracker(cfg, store, 0)
	prog := tr.RegisterProgram("bench", rdf.Term{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		obj := tr.TrackDataObject(model.Dataset, fmt.Sprintf("/f.h5/d%d", i), "", rdf.Term{}, prog)
		tr.TrackIO(model.Write, "H5Dwrite", obj, prog, 0, 0)
	}
	b.StopTimer()
	if err := tr.Close(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkPeriodicFlushInlineFull(b *testing.B)  { benchPeriodicFlush(b, core.PipelineInline) }
func BenchmarkPeriodicFlushInlineDelta(b *testing.B) { benchPeriodicFlush(b, core.PipelineDelta) }
func BenchmarkPeriodicFlushAsyncDelta(b *testing.B)  { benchPeriodicFlush(b, core.PipelineAsync) }

// buildMergeStore writes nFiles per-process sub-graphs with overlapping
// nodes, the Store.Merge input shape of a many-rank run (Fig. 7 regime).
func buildMergeStore(b *testing.B, nFiles, recordsPer int) *core.Store {
	b.Helper()
	view := vfs.NewStore().NewView()
	store, err := core.NewStore(core.VFSBackend{View: view}, "/prov", core.FormatBinary)
	if err != nil {
		b.Fatal(err)
	}
	for pid := 0; pid < nFiles; pid++ {
		tr := core.NewTracker(core.DefaultConfig(), store, pid)
		user := tr.RegisterUser("shared-user")
		prog := tr.RegisterProgram("shared-program", user)
		for i := 0; i < recordsPer; i++ {
			obj := tr.TrackDataObject(model.File, fmt.Sprintf("/shared/f%d", i%32), "", rdf.Term{}, prog)
			tr.TrackIO(model.Read, "read", obj, prog, 0, 0)
		}
		if err := tr.Close(); err != nil {
			b.Fatal(err)
		}
	}
	return store
}

func benchMerge(b *testing.B, workers int) {
	b.Helper()
	store := buildMergeStore(b, 64, 60)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, _, err := store.MergePruned(nil, workers)
		if err != nil {
			b.Fatal(err)
		}
		if g.Len() == 0 {
			b.Fatal("empty merge")
		}
	}
}

func BenchmarkStoreMerge64Sequential(b *testing.B) { benchMerge(b, 1) }

// The parallel variant pins 8 workers (not NumCPU) so the pool path is
// exercised — and its overhead measured — even on single-CPU machines;
// real-time speedup naturally needs GOMAXPROCS > 1.
func BenchmarkStoreMerge64Parallel(b *testing.B) { benchMerge(b, 8) }

// TestMergeParallelFasterThan tests the acceptance criterion directly at
// test time (the benchmarks above report the numbers): on >= 64 sub-graph
// files the worker pool must not be slower than sequential parsing by any
// significant margin, and must produce the identical graph. Timing
// assertions are fragile in CI, so this only checks a generous bound.
func TestMergeParallelProducesSameGraphOn64Files(t *testing.T) {
	view := vfs.NewStore().NewView()
	store, err := core.NewStore(core.VFSBackend{View: view}, "/prov", core.FormatBinary)
	if err != nil {
		t.Fatal(err)
	}
	for pid := 0; pid < 64; pid++ {
		tr := core.NewTracker(core.DefaultConfig(), store, pid)
		prog := tr.RegisterProgram("p", rdf.Term{})
		for i := 0; i < 10; i++ {
			obj := tr.TrackDataObject(model.File, fmt.Sprintf("/f%d", i), "", rdf.Term{}, prog)
			tr.TrackIO(model.Read, "read", obj, prog, 0, 0)
		}
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
	}
	seq, _, err := store.MergePruned(nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, _, err := store.MergePruned(nil, 8)
	if err != nil {
		t.Fatal(err)
	}
	if seq.Len() != par.Len() {
		t.Fatalf("parallel merge %d triples != sequential %d", par.Len(), seq.Len())
	}
}
