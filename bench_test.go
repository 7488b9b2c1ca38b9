package provio_test

// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation (§6). Each benchmark regenerates its exhibit through
// internal/bench and reports the headline numbers as custom metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces the entire evaluation. Set PROVIO_BENCH_SCALE=paper to sweep
// the paper's full parameter ranges (minutes of wall time); the default
// "small" scale keeps every series but shrinks the axes.
//
// Microbenchmarks of the substrate hot paths (RDF insert, Turtle
// serialization, SPARQL evaluation, tracker record cost) follow the
// experiment benchmarks; they are the measurements that cross-check the
// simclock cost-model constants.

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	provio "github.com/hpc-io/prov-io"
	"github.com/hpc-io/prov-io/internal/bench"
	"github.com/hpc-io/prov-io/internal/model"
	"github.com/hpc-io/prov-io/internal/rdf"
)

func benchScale() bench.Scale {
	if os.Getenv("PROVIO_BENCH_SCALE") == "paper" {
		return bench.ScalePaper
	}
	return bench.ScaleSmall
}

// runExperiment executes one experiment per benchmark iteration and
// publishes headline metrics parsed from the report.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	scale := benchScale()
	var rep *bench.Report
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = bench.Run(id, scale)
		if err != nil {
			b.Fatal(err)
		}
	}
	publishMetrics(b, rep)
	if b.N == 1 {
		b.Logf("\n%s", rep.Render())
	}
}

// publishMetrics extracts the last row's numeric cells as custom metrics.
func publishMetrics(b *testing.B, rep *bench.Report) {
	if len(rep.Rows) == 0 {
		return
	}
	last := rep.Rows[len(rep.Rows)-1]
	for i, cell := range last {
		if i == 0 || i >= len(rep.Columns) {
			continue
		}
		val := strings.TrimSuffix(cell, "%")
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			continue
		}
		name := sanitizeMetric(rep.Columns[i])
		b.ReportMetric(f, name)
	}
}

func sanitizeMetric(col string) string {
	col = strings.ReplaceAll(col, " ", "_")
	col = strings.ReplaceAll(col, "(", "_")
	col = strings.ReplaceAll(col, ")", "")
	return col + "/last"
}

// ---- Tables ----

func BenchmarkTable1(b *testing.B) { runExperiment(b, "table1") }
func BenchmarkTable2(b *testing.B) { runExperiment(b, "table2") }
func BenchmarkTable3(b *testing.B) { runExperiment(b, "table3") }
func BenchmarkTable4(b *testing.B) { runExperiment(b, "table4") }
func BenchmarkTable5(b *testing.B) { runExperiment(b, "table5") }

// ---- Figure 6: tracking performance ----

func BenchmarkFig6a(b *testing.B) { runExperiment(b, "fig6a") }
func BenchmarkFig6b(b *testing.B) { runExperiment(b, "fig6b") }
func BenchmarkFig6c(b *testing.B) { runExperiment(b, "fig6c") }
func BenchmarkFig6d(b *testing.B) { runExperiment(b, "fig6d") }
func BenchmarkFig6e(b *testing.B) { runExperiment(b, "fig6e") }

// ---- Figure 7: storage ----

func BenchmarkFig7a(b *testing.B) { runExperiment(b, "fig7a") }
func BenchmarkFig7b(b *testing.B) { runExperiment(b, "fig7b") }
func BenchmarkFig7c(b *testing.B) { runExperiment(b, "fig7c") }
func BenchmarkFig7d(b *testing.B) { runExperiment(b, "fig7d") }
func BenchmarkFig7e(b *testing.B) { runExperiment(b, "fig7e") }

// ---- Figure 8: comparison with ProvLake ----

func BenchmarkFig8(b *testing.B) { runExperiment(b, "fig8") }

// ---- Figure 9: lineage visualization ----

func BenchmarkFig9(b *testing.B) { runExperiment(b, "fig9") }

// ---- Substrate microbenchmarks (cost-model cross-checks) ----

// BenchmarkRDFInsert measures raw triple insertion into the dictionary-
// encoded graph — the real-world counterpart of CostModel.TrackPerTriple.
func BenchmarkRDFInsert(b *testing.B) {
	g := rdf.NewGraph()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := rdf.IRI(fmt.Sprintf("https://x/e%d", i%100000))
		g.Add(rdf.Triple{S: s, P: rdf.IRI("https://x/p"), O: rdf.Integer(int64(i))})
	}
}

// BenchmarkTrackerRecord measures the full PROV-IO record path (build
// triples + insert + counters) — the counterpart of TrackPerRecord.
func BenchmarkTrackerRecord(b *testing.B) {
	tracker := provio.NewTracker(provio.DefaultConfig(), nil, 0)
	obj := tracker.TrackDataObject(model.Dataset, "/f/d", "", provio.Term{}, provio.Term{})
	agent := tracker.RegisterProgram("p", provio.Term{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tracker.TrackIO(model.Write, "H5Dwrite", obj, agent, 0, 0)
	}
}

// BenchmarkTurtleSerialize measures Turtle serialization throughput — the
// counterpart of SerializePerTriple.
func BenchmarkTurtleSerialize(b *testing.B) {
	g := rdf.NewGraph()
	for i := 0; i < 5000; i++ {
		g.Add(rdf.Triple{
			S: rdf.IRI(fmt.Sprintf("https://x/s%d", i%500)),
			P: rdf.IRI(fmt.Sprintf("https://x/p%d", i%7)),
			O: rdf.Literal(fmt.Sprintf("value-%d", i)),
		})
	}
	ns := model.Namespaces()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sb strings.Builder
		if err := rdf.WriteTurtle(&sb, g, ns); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(5000, "triples/op")
}

// BenchmarkSPARQLLineage measures the transitive lineage query the user
// engine runs for backward lineage.
func BenchmarkSPARQLLineage(b *testing.B) {
	g := rdf.NewGraph()
	derived := model.WasDerivedFrom.IRI()
	for i := 0; i < 1000; i++ {
		g.Add(rdf.Triple{
			S: rdf.IRI(fmt.Sprintf("https://x/f%d", i)),
			P: derived,
			O: rdf.IRI(fmt.Sprintf("https://x/f%d", i+1)),
		})
	}
	q := `SELECT ?anc WHERE { <https://x/f0> prov:wasDerivedFrom+ ?anc . }`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, _, err := provio.Query(g, q, 1)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 1000 {
			b.Fatalf("rows = %d", len(res.Rows))
		}
	}
}

// BenchmarkStoreMerge measures sub-graph merge (parse + union) over per-
// process pbs files.
func BenchmarkStoreMerge(b *testing.B) {
	fs := provio.NewMemStore()
	store, err := provio.NewStore(provio.VFSBackend{View: fs.NewView()}, "/prov", provio.FormatBinary)
	if err != nil {
		b.Fatal(err)
	}
	for pid := 0; pid < 8; pid++ {
		tr := provio.NewTracker(provio.DefaultConfig(), store, pid)
		prog := tr.RegisterProgram("p", provio.Term{})
		for i := 0; i < 200; i++ {
			obj := tr.TrackDataObject(model.File, fmt.Sprintf("/f%d", i), "", provio.Term{}, prog)
			tr.TrackIO(model.Write, "write", obj, prog, 0, 0)
		}
		if err := tr.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := store.Merge(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPOSIXWrapperOverhead compares the wrapped and unwrapped write
// paths — the real interposition cost of the syscall wrapper (the GOTCHA
// analog), to contrast with the modeled TrackCost.
func BenchmarkPOSIXWrapperOverhead(b *testing.B) {
	for _, wrapped := range []bool{false, true} {
		name := "raw"
		if wrapped {
			name = "wrapped"
		}
		b.Run(name, func(b *testing.B) {
			fs := provio.NewMemStore()
			view := fs.NewView()
			tracker := provio.NewTracker(provio.DefaultConfig(), nil, 0)
			agent := provio.POSIXAgent{Program: tracker.RegisterProgram("p", provio.Term{})}
			opts := provio.DefaultPOSIXOptions()
			opts.Disabled = !wrapped
			pfs := provio.WrapPOSIX(view, tracker, agent, opts)
			f, err := pfs.Create("/bench.dat")
			if err != nil {
				b.Fatal(err)
			}
			defer f.Close()
			buf := make([]byte, 4096)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := f.WriteAt(buf, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPROVJSONExport measures the W3C PROV-JSON export path.
func BenchmarkPROVJSONExport(b *testing.B) {
	tracker := provio.NewTracker(provio.DefaultConfig(), nil, 0)
	prog := tracker.RegisterProgram("p", provio.Term{})
	for i := 0; i < 500; i++ {
		obj := tracker.TrackDataObject(model.Dataset, fmt.Sprintf("/f/d%d", i), "", provio.Term{}, prog)
		tracker.TrackIO(model.Write, "H5Dwrite", obj, prog, 0, 0)
	}
	g := tracker.Graph()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sb strings.Builder
		if err := provio.ExportPROVJSON(&sb, g); err != nil {
			b.Fatal(err)
		}
	}
}
