package bench

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	provio "github.com/hpc-io/prov-io"
	"github.com/hpc-io/prov-io/internal/backend"
	"github.com/hpc-io/prov-io/internal/core"
	"github.com/hpc-io/prov-io/internal/model"
	"github.com/hpc-io/prov-io/internal/rdf"
)

// packedLineageStore builds a binary store whose history is mostly packed
// (several pids flush delta segments that PackSegments folds into one L1
// pack; the last pid keeps a loose canonical file), so pruned reads have
// pack-level and member-level statistics to work with. It returns the store
// and one tracked file whose 2-hop neighbourhood the lineage query walks.
func packedLineageStore(t *testing.T) (*core.Store, rdf.Term) {
	t.Helper()
	store, err := core.NewStore(backend.NewMem(), "/prov", core.FormatBinary)
	if err != nil {
		t.Fatal(err)
	}
	var probe rdf.Term
	const pids, records = 5, 24
	for pid := 0; pid < pids; pid++ {
		cfg := core.DefaultConfig()
		if pid < pids-1 {
			cfg.Mode = core.ModePeriodic
			cfg.FlushEvery = 8
		}
		tr := core.NewTracker(cfg, store, pid)
		user := tr.RegisterUser(fmt.Sprintf("user-p%02d", pid))
		prog := tr.RegisterProgram(fmt.Sprintf("program-p%02d", pid), user)
		for i := 0; i < records; i++ {
			obj := tr.TrackDataObject(model.File, fmt.Sprintf("/exp/p%02d/f%03d", pid, i), "", rdf.Term{}, prog)
			if pid == 1 && i == 3 {
				probe = obj
			}
			tr.TrackIO(model.Write, "write", obj, prog, time.Duration(i)*time.Microsecond, 0)
		}
		if pid < pids-1 {
			err = tr.Drain()
		} else {
			err = tr.Close()
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := store.PackSegments(1); err != nil {
		t.Fatal(err)
	}
	return store, probe
}

// TestQueryEntryPointAcrossSources drives the §6 query set, a selective
// single-pattern lookup, and a 2-hop lineage join through the one public
// entry point — provio.Query / provio.Explain — over every kind of source:
// the eagerly merged graph, a lazy view with an unbounded cache, and a lazy
// view that can keep nothing resident (MaxBytes 1), at 1 and 4 workers.
// Results JSON must be byte-identical everywhere (and match the golden
// fixture where one exists), and because eager and lazy reads admit units
// through the same predicate, the lazy source must admit exactly the units
// the eager pruned merge decodes, skip the same packs whole, and never
// decode more than it.
func TestQueryEntryPointAcrossSources(t *testing.T) {
	type entryCase struct {
		section6Case
		golden     bool // a testdata/query_<name>.json fixture pins the bytes
		sameDecode bool // one pattern: lazy must decode exactly the admitted units
	}
	var cases []entryCase
	for _, c := range section6Queries(t) {
		cases = append(cases, entryCase{section6Case: c, golden: true})
	}
	packed, probe := packedLineageStore(t)
	cases = append(cases,
		entryCase{section6Case: section6Case{name: "packed_probe_lookup", store: packed,
			query: fmt.Sprintf(`SELECT ?p ?o WHERE { <%s> ?p ?o . }`, probe.Value)}, sameDecode: true},
		entryCase{section6Case: section6Case{name: "packed_2hop_lineage", store: packed,
			query: fmt.Sprintf(`SELECT DISTINCT ?agent WHERE {
				<%s> provio:wasWrittenBy ?api .
				?api prov:wasAssociatedWith ?agent .
			}`, probe.Value)}},
	)

	for _, c := range cases {
		q, err := provio.ParseQuery(c.query)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		pruner := provio.PrunerForQuery(q)
		var want []byte
		if c.golden {
			if want, err = os.ReadFile(filepath.Join("testdata", "query_"+c.name+".json")); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		}
		for _, workers := range []int{1, 4} {
			merged, eager, err := c.store.MergePruned(pruner, workers)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			type source struct {
				name string
				src  provio.QuerySource
			}
			sources := []source{{"merged graph", merged}}
			for _, budget := range []int64{0, 1} {
				// With nothing resident every duplicate-ownership probe re-parses
				// a whole Turtle file; over DASSA's large per-rank files that is
				// ~6 s a run, so the combination runs once, outside -short.
				if budget == 1 && c.name == "dassa_lineage" && (workers > 1 || testing.Short()) {
					continue
				}
				view, err := c.store.OpenLazy(provio.CacheConfig{MaxBytes: budget})
				if err != nil {
					t.Fatalf("%s: %v", c.name, err)
				}
				sources = append(sources, source{fmt.Sprintf("lazy MaxBytes:%d", budget), view.Source(pruner)})
			}
			for _, s := range sources {
				tag := fmt.Sprintf("%s over %s, %d worker(s)", c.name, s.name, workers)
				plan, err := provio.Explain(s.src, c.query, workers)
				if err != nil {
					t.Fatalf("%s: Explain: %v", tag, err)
				}
				if !strings.Contains(plan, "\nparallel: ") {
					t.Errorf("%s: plan lacks the parallel-execution decision:\n%s", tag, plan)
				}
				res, _, err := provio.Query(s.src, c.query, workers)
				if err != nil {
					t.Fatalf("%s: Query: %v", tag, err)
				}
				if len(res.Rows) == 0 {
					t.Fatalf("%s: no results", tag)
				}
				var buf bytes.Buffer
				if err := res.WriteJSON(&buf); err != nil {
					t.Fatalf("%s: %v", tag, err)
				}
				if want == nil {
					want = buf.Bytes() // first source (the merged graph) is the reference
				}
				if !bytes.Equal(buf.Bytes(), want) {
					t.Errorf("%s: results JSON differs\ngot:\n%s\nwant:\n%s", tag, buf.Bytes(), want)
				}
				ls, ok := s.src.(*provio.LazySource)
				if !ok {
					continue
				}
				lazy := ls.Stats()
				if lazy.Units != eager.Units || lazy.PacksSkipped != eager.PacksSkipped || ls.Admitted() != eager.Decoded {
					t.Errorf("%s: lazy admission (units %d, packs skipped %d, admitted %d) != eager pruned merge (units %d, packs skipped %d, decoded %d)",
						tag, lazy.Units, lazy.PacksSkipped, ls.Admitted(), eager.Units, eager.PacksSkipped, eager.Decoded)
				}
				if lazy.Decoded > eager.Decoded || (c.sameDecode && lazy.Decoded != eager.Decoded) {
					t.Errorf("%s: lazy source decoded %d unit(s), eager pruned merge %d", tag, lazy.Decoded, eager.Decoded)
				}
			}
			if !c.golden {
				want = nil // each worker count re-derives the reference from its merged graph
			}
		}
		if c.name == "packed_probe_lookup" {
			_, st, err := c.store.MergePruned(pruner, 1)
			if err != nil {
				t.Fatal(err)
			}
			if st.Decoded == st.Units {
				t.Errorf("%s: pruner skipped nothing (%s); the case no longer exercises pushdown", c.name, st)
			}
		}
	}
}

// TestQueryOverStaleLazySourceFails: once maintenance has moved the layout
// under an open view, provio.Query over a source of that view must return
// an error matching ErrStaleView — never rows computed from a mixture of
// layouts — and Explain, which touches no unit, reports the same sticky
// error afterwards.
func TestQueryOverStaleLazySourceFails(t *testing.T) {
	store, probe := packedLineageStore(t)
	view, err := store.OpenLazy(provio.CacheConfig{})
	if err != nil {
		t.Fatal(err)
	}
	src := view.Source(nil)
	if err := store.Compact(); err != nil { // folds the pack away, rewrites canonicals
		t.Fatal(err)
	}
	query := fmt.Sprintf(`SELECT ?p ?o WHERE { <%s> ?p ?o . }`, probe.Value)
	for _, workers := range []int{1, 4} {
		res, _, err := provio.Query(src, query, workers)
		if !errors.Is(err, provio.ErrStaleView) {
			t.Fatalf("workers=%d: Query over a stale view: err=%v (rows=%v), want ErrStaleView", workers, err, res)
		}
		if res != nil {
			t.Fatalf("workers=%d: Query returned rows alongside %v", workers, err)
		}
	}
	if _, err := provio.Explain(src, query, 1); !errors.Is(err, provio.ErrStaleView) {
		t.Fatalf("Explain after the view went stale: err=%v, want ErrStaleView", err)
	}
}
