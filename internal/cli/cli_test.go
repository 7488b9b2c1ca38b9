package cli

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"github.com/hpc-io/prov-io/internal/backend"
	"github.com/hpc-io/prov-io/internal/core"
	"github.com/hpc-io/prov-io/internal/rdf"
)

// threeProcessStore writes three sub-graphs that share nodes, so a merge
// has duplicates to collapse.
func threeProcessStore(t *testing.T) *core.Store {
	t.Helper()
	store, err := core.NewStore(backend.NewMem(), "/prov", core.FormatBinary)
	if err != nil {
		t.Fatal(err)
	}
	for pid := 0; pid < 3; pid++ {
		g := rdf.NewGraph()
		for i := 0; i < 20; i++ {
			g.Add(rdf.Triple{
				S: rdf.IRI(fmt.Sprintf("urn:n%d", (pid*7+i)%25)),
				P: rdf.IRI(fmt.Sprintf("urn:p%d", i%3)),
				O: rdf.IRI(fmt.Sprintf("urn:n%d", (pid+i)%25)),
			})
		}
		if err := store.WriteSubgraph(pid, g); err != nil {
			t.Fatal(err)
		}
	}
	return store
}

func ntriples(t *testing.T, g *rdf.Graph) string {
	t.Helper()
	var buf bytes.Buffer
	if err := rdf.WriteNTriples(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestOpenSourceBudgetPicksPath: a cache budget of 0 merges the store up
// front and a positive one opens a lazy view, and Graph reads the same
// store either way.
func TestOpenSourceBudgetPicksPath(t *testing.T) {
	store := threeProcessStore(t)
	merged, scan, err := store.MergePruned(nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := ntriples(t, merged)

	eager, err := OpenSource(store, nil, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := eager.Query.(*rdf.Graph); !ok {
		t.Fatalf("budget 0 opened a %T, want the merged *rdf.Graph", eager.Query)
	}
	if got := eager.Scan().String(); got != scan.String() {
		t.Fatalf("budget 0 scan %q, want the merge's %q", got, scan)
	}

	const budget = 1 << 20
	lazy, err := OpenSource(store, nil, 2, budget)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := lazy.Query.(*core.LazySource); !ok {
		t.Fatalf("budget %d opened a %T, want a *core.LazySource", budget, lazy.Query)
	}
	if got := lazy.Pushdown(); !strings.Contains(got, fmt.Sprintf("cache %d bytes", budget)) {
		t.Fatalf("lazy pushdown %q does not name the budget", got)
	}

	for _, src := range []*Source{eager, lazy} {
		g, _, err := src.Graph()
		if err != nil {
			t.Fatal(err)
		}
		if got := ntriples(t, g); got != want {
			t.Fatalf("%T source's graph differs from the merge:\n%s\nwant:\n%s", src.Query, got, want)
		}
	}
}
