package bench

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/hpc-io/prov-io/internal/core"
	"github.com/hpc-io/prov-io/internal/model"
	"github.com/hpc-io/prov-io/internal/rdf"
	"github.com/hpc-io/prov-io/internal/rdf/segcodec"
	"github.com/hpc-io/prov-io/internal/vfs"
)

// buildFormatStore writes nFiles per-process sub-graphs with overlapping
// nodes through the full tracker pipeline.
func buildFormatStore(b *testing.B, nFiles, recordsPer int) *core.Store {
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

// BenchmarkMerge measures Store.Merge (sequential decode of every sub-graph
// into one graph).
func BenchmarkMerge(b *testing.B) {
	b.Run("pbs", func(b *testing.B) {
		store := buildFormatStore(b, 64, 60)
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
		store := buildFormatStore(b, 1, 4000)
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

// TestBinaryMergeMatchesText guards the store's premise against its text
// forms: the pbs store's merge, written by either text codec — what export
// writes — and parsed back, holds the same triple multiset. (A text store
// an older build wrote is no longer read: every path refuses it.)
func TestBinaryMergeMatchesText(t *testing.T) {
	g, err := buildFormatStore(&testing.B{}, 4, 50).Merge()
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := segcodec.NTriples.Encode(&want, g, nil); err != nil {
		t.Fatal(err)
	}
	for _, codec := range []segcodec.Codec{segcodec.NTriples, segcodec.Turtle} {
		var text, got bytes.Buffer
		if err := codec.Encode(&text, g, model.Namespaces()); err != nil {
			t.Fatal(err)
		}
		back := rdf.NewGraph()
		if err := codec.Decode(&text, back); err != nil {
			t.Fatalf("%s: %v", codec.Ext(), err)
		}
		if err := segcodec.NTriples.Encode(&got, back, nil); err != nil {
			t.Fatal(err)
		}
		if back.Len() != g.Len() || !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%s: the pbs merge's %d triples read back as %d, or others", codec.Ext(), g.Len(), back.Len())
		}
	}
}
