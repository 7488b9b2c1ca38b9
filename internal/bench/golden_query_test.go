package bench

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/hpc-io/prov-io/internal/core"
	"github.com/hpc-io/prov-io/internal/model"
	"github.com/hpc-io/prov-io/internal/rdf"
	"github.com/hpc-io/prov-io/internal/sparql"
	"github.com/hpc-io/prov-io/internal/vfs"
	"github.com/hpc-io/prov-io/internal/workloads/dassa"
	"github.com/hpc-io/prov-io/internal/workloads/h5bench"
	"github.com/hpc-io/prov-io/internal/workloads/topreco"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files under testdata/")

// The paper's §6 query set (Table 5) pinned as W3C SPARQL results-JSON
// golden fixtures. Deterministic GUIDs and the simulated clock make the
// workload graphs reproducible, so any drift in parser, planner, executor,
// or workload generation shows up as a fixture diff. Regenerate with
// `go test ./internal/bench -run TestGoldenSection6Queries -update`.

// section6Case is one Table 5 query with the store it runs over and that
// store's exhaustive merge, keyed by a stable fixture name.
type section6Case struct {
	name  string
	store *core.Store
	g     *rdf.Graph
	query string
}

// section6Queries builds the Table 5 stores and returns each query with its
// store and merged graph.
func section6Queries(t *testing.T) []section6Case {
	t.Helper()
	runH5 := func(cfg h5bench.Config) (*core.Store, *rdf.Graph) {
		res, err := h5bench.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		g, err := res.Store.Merge()
		if err != nil {
			t.Fatal(err)
		}
		return res.Store, g
	}

	// DASSA backward file lineage.
	dassaCfg := dassa.Config{Files: 4, Ranks: 2, Lineage: dassa.FileLineage}
	store := vfs.NewStore()
	if err := dassa.GenerateInputs(store.NewView(), dassaCfg); err != nil {
		t.Fatal(err)
	}
	dres, err := dassa.Run(store, dassaCfg)
	if err != nil {
		t.Fatal(err)
	}
	dg, err := dres.Store.Merge()
	if err != nil {
		t.Fatal(err)
	}
	product := model.NodeIRI(model.File, "/das/products/WestSac_0000.decimate.h5")
	prog := model.NodeIRI(model.Program, "decimate-a1")
	dassaQ := fmt.Sprintf(`SELECT DISTINCT ?file WHERE {
		<%s> prov:wasAttributedTo ?program .
		?file provio:wasReadBy ?api .
		?api prov:wasAssociatedWith <%s> .
	}`, product, prog)

	// H5bench scenarios (2 answers q1+q2, 3 answers q3).
	h5cfg := h5bench.Config{Ranks: 2, Steps: 2, Scenario: h5bench.Scenario2, Pattern: h5bench.WriteRead}
	h5s2, h5g2 := runH5(h5cfg)
	h5cfg.Scenario = h5bench.Scenario3
	h5s3, h5g3 := runH5(h5cfg)
	fileNode := model.NodeIRI(model.File, "/scratch/vpic.h5")

	// Top Reco metadata version control.
	tres, err := topreco.Run(topreco.Config{Epochs: 5, Events: ScaleSmall.topRecoEvents(),
		Instrument: topreco.InstrumentProvIO, Version: 1})
	if err != nil {
		t.Fatal(err)
	}
	tg, err := tres.Store.Merge()
	if err != nil {
		t.Fatal(err)
	}

	return []section6Case{
		{"dassa_lineage", dres.Store, dg, dassaQ},
		{"h5bench_q1_op_counts", h5s2, h5g2,
			`SELECT (COUNT(?api) AS ?n) WHERE { ?api prov:wasMemberOf prov:Activity . }`},
		{"h5bench_q2_op_durations", h5s2, h5g2,
			`SELECT ?api ?duration WHERE {
				?api prov:wasMemberOf prov:Activity ;
				     provio:elapsed ?duration .
			} ORDER BY ?api LIMIT 20`},
		{"h5bench_q3_who_modified", h5s3, h5g3, fmt.Sprintf(
			`SELECT DISTINCT ?user WHERE {
				<%s> prov:wasAttributedTo ?program .
				?thread prov:actedOnBehalfOf ?program .
				?program prov:actedOnBehalfOf ?user .
			}`, fileNode)},
		{"topreco_version_accuracy", tres.Store, tg,
			`SELECT ?version ?accuracy WHERE {
				?configuration provio:Version ?version ;
				               provio:hasAccuracy ?accuracy .
			}`},
	}
}

func TestGoldenSection6Queries(t *testing.T) {
	for _, c := range section6Queries(t) {
		res, _, err := sparql.ExecParallelInfo(c.g, c.query, model.Namespaces(), 1)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if len(res.Rows) == 0 {
			t.Fatalf("%s: query returned no results", c.name)
		}
		var buf bytes.Buffer
		if err := res.WriteJSON(&buf); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		checkGolden(t, "query_"+c.name+".json", buf.Bytes())
	}
}

// checkGolden compares got with the fixture testdata/name, or rewrites the
// fixture under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	i := 0
	for i < min(len(gl), len(wl)) && gl[i] == wl[i] {
		i++
	}
	line := func(ls []string) string {
		if i < len(ls) {
			return ls[i]
		}
		return "<end of file>"
	}
	t.Errorf("%s drifted from its golden fixture at line %d\ngot:  %s\nwant: %s", path, i+1, line(gl), line(wl))
}

// TestGoldenSection6QueriesParallel re-runs the §6 fixture queries through
// the morsel-driven executor at every worker count and requires the rendered
// results JSON to be byte-identical to the serial golden fixtures — the
// parallel path must be invisible in query output, row order included.
func TestGoldenSection6QueriesParallel(t *testing.T) {
	for _, c := range section6Queries(t) {
		q, err := sparql.Parse(c.query, model.Namespaces())
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		path := filepath.Join("testdata", "query_"+c.name+".json")
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v (run TestGoldenSection6Queries with -update first)", c.name, err)
		}
		for _, workers := range []int{1, 2, 4, 8} {
			res, err := sparql.EvalParallel(c.g, q, workers)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", c.name, workers, err)
			}
			var buf bytes.Buffer
			if err := res.WriteJSON(&buf); err != nil {
				t.Fatalf("%s workers=%d: %v", c.name, workers, err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("%s workers=%d: parallel results diverge from golden fixture %s\ngot:\n%s\nwant:\n%s",
					c.name, workers, path, buf.Bytes(), want)
			}
		}
	}
}
