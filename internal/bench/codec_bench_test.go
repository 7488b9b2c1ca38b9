package bench

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"github.com/hpc-io/prov-io/internal/core"
	"github.com/hpc-io/prov-io/internal/model"
	"github.com/hpc-io/prov-io/internal/rdf"
	"github.com/hpc-io/prov-io/internal/rdf/segcodec"
	"github.com/hpc-io/prov-io/internal/vfs"
)

// buildFormatStore is buildMergeStore parameterized by codec: nFiles
// per-process sub-graphs with overlapping nodes, written through the full
// tracker pipeline, then — for a text codec — each canonical file rewritten
// in it, the store an older build wrote in that format.
func buildFormatStore(b *testing.B, codec segcodec.Codec, nFiles, recordsPer int) *core.Store {
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
		if codec == segcodec.Binary {
			continue
		}
		var text bytes.Buffer
		if err := codec.Encode(&text, tr.Graph(), model.Namespaces()); err != nil {
			b.Fatal(err)
		}
		base := fmt.Sprintf("/prov/prov_p%06d", pid)
		if err := view.WriteFile(base+codec.Ext(), text.Bytes()); err != nil {
			b.Fatal(err)
		}
		if err := view.Remove(base + segcodec.Binary.Ext()); err != nil {
			b.Fatal(err)
		}
	}
	return store
}

var codecBenchFormats = []segcodec.Codec{segcodec.NTriples, segcodec.Turtle, segcodec.Binary}

// BenchmarkMerge measures Store.Merge (sequential decode of every sub-graph
// into one graph). Reads take pbs only; a text store is Compact's to
// migrate, so there is no text merge to compare against.
func BenchmarkMerge(b *testing.B) {
	b.Run("pbs", func(b *testing.B) {
		store := buildFormatStore(b, segcodec.Binary, 64, 60)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g, err := store.Merge()
			if err != nil {
				b.Fatal(err)
			}
			if g.Len() == 0 {
				b.Fatal("empty merge")
			}
		}
	})
}

// BenchmarkStoreLoad measures decoding one large canonical sub-graph file —
// the per-file cost Merge is built from, isolated from listing and union.
func BenchmarkStoreLoad(b *testing.B) {
	b.Run("pbs", func(b *testing.B) {
		store := buildFormatStore(b, segcodec.Binary, 1, 4000)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g, err := store.Merge()
			if err != nil {
				b.Fatal(err)
			}
			if g.Len() == 0 {
				b.Fatal("empty load")
			}
		}
	})
}

// TestBinaryMergeMatchesText guards the format stores' premise: each holds
// the same triple multiset — a text store read through its migration, which
// its merge refuses until Compact has run.
func TestBinaryMergeMatchesText(t *testing.T) {
	b := &testing.B{}
	graphs := map[string]*rdf.Graph{}
	for _, fc := range codecBenchFormats {
		store := buildFormatStore(b, fc, 4, 50)
		if fc != segcodec.Binary {
			if _, err := store.Merge(); !errors.Is(err, segcodec.ErrNeedsMigration) {
				t.Fatalf("%s store merged before its migration: %v", fc.Ext(), err)
			}
			if err := store.Compact(); err != nil {
				t.Fatal(err)
			}
		}
		g, err := store.Merge()
		if err != nil {
			t.Fatal(err)
		}
		graphs[fc.Ext()] = g
	}
	if graphs[".pbs"].Len() != graphs[".nt"].Len() || graphs[".ttl"].Len() != graphs[".nt"].Len() {
		t.Fatalf("per-format stores diverged: nt=%d ttl=%d pbs=%d triples",
			graphs[".nt"].Len(), graphs[".ttl"].Len(), graphs[".pbs"].Len())
	}
}
