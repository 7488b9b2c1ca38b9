package bench

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hpc-io/prov-io/internal/model"
	"github.com/hpc-io/prov-io/internal/rdf"
	"github.com/hpc-io/prov-io/internal/sparql"
	"github.com/hpc-io/prov-io/internal/vfs"
	"github.com/hpc-io/prov-io/internal/workloads/dassa"
)

// parallelQueryWorkers is the worker ladder measured by the ablation, matching
// BenchmarkQueryBGPParallel.
var parallelQueryWorkers = []int{1, 2, 4, 8}

// pqQueryRow is one executor-variant timing for one query in the artifact.
type pqQueryRow struct {
	Query        string `json:"query"`
	Executor     string `json:"executor"`
	Millis       string `json:"ms"`
	VsSerialSnap string `json:"speedup_vs_snapshot_serial"`
}

// pqMixedRow is one query-under-ingest workload measurement in the artifact.
type pqMixedRow struct {
	Variant      string `json:"variant"`
	IngestWallMs string `json:"ingest_wall_ms"`
	VsAlone      string `json:"ingest_wall_vs_alone"`
	Queries      int64  `json:"queries_completed"`
	QueryAvgMs   string `json:"query_avg_ms,omitempty"`
}

// AblationParallelQuery measures the snapshot-isolated, morsel-driven query
// path:
//
//  1. Query latency: the §6-style queries through the pinned-snapshot serial
//     executor vs the morsel-driven parallel executor at 1/2/4/8 workers.
//  2. Query-under-ingest interference: ingest wall time alone, and with a
//     concurrent serial or parallel snapshot query loop on the same graph.
//
// There is no locked-graph baseline row: the graph keeps no adjacency index
// of its own, so a query against the live *rdf.Graph scans pinned snapshots
// too and measures no distinct path.
//
// Multi-worker *speedups* need real cores; on a 1-vCPU runner the worker
// ladder measures the parallel path's overhead instead, and the artifact's
// environment section says so. The ingest-interference comparison is
// meaningful at any core count. The report's artifact is
// BENCH_parallel_query.json; a reference copy is checked in at the
// repository root.
func AblationParallelQuery(s Scale) (*Report, error) {
	files := 32
	if s == ScalePaper {
		files = 128
	}
	dassaCfg := dassa.Config{Files: files, Ranks: 4, Lineage: dassa.AttrLineage}
	store := vfs.NewStore()
	if err := dassa.GenerateInputs(store.NewView(), dassaCfg); err != nil {
		return nil, err
	}
	dres, err := dassa.Run(store, dassaCfg)
	if err != nil {
		return nil, err
	}
	g, err := dres.Store.Merge()
	if err != nil {
		return nil, err
	}

	r := &Report{
		ID:      "abl-parallel-query",
		Title:   "Ablation: snapshot vs morsel-parallel query execution",
		Columns: []string{"workload", "variant", "ms", "relative"},
		Notes: []string{
			"snapshot = Eval (pinned immutable view, one lock acquisition per query)",
			fmt.Sprintf("parallel rows use the morsel-driven executor; GOMAXPROCS=%d here, so multi-worker rows show overhead, not speedup, below 2 cores", runtime.GOMAXPROCS(0)),
			"mixed rows run a continuous query loop against the graph while 4 goroutines AddBatch fresh records into it",
		},
		ArtifactName: "BENCH_parallel_query.json",
	}

	prog := model.NodeIRI(model.Program, "decimate-a1")
	queries := []struct {
		name string
		text string
	}{
		{"BGP join (read set of a program)", fmt.Sprintf(
			`SELECT DISTINCT ?file WHERE {
				?file provio:wasReadBy ?api .
				?api prov:wasAssociatedWith <%s> .
			}`, prog)},
		{"star scan (typed objects + names)",
			`SELECT ?f ?n WHERE { ?f a provio:File . ?f provio:name ?n . }`},
	}

	const rounds = 20
	var queryRows []pqQueryRow
	for _, qc := range queries {
		q, err := sparql.Parse(qc.text, model.Namespaces())
		if err != nil {
			return nil, err
		}
		snapT, err := timeQuery(rounds, func() error {
			_, err := sparql.Eval(g, q)
			return err
		})
		if err != nil {
			return nil, err
		}
		add := func(executor string, d time.Duration) {
			queryRows = append(queryRows, pqQueryRow{
				Query: qc.name, Executor: executor, Millis: fmtMillis(d),
				VsSerialSnap: fmtSpeedup(snapT, d),
			})
			r.AddRow(qc.name, executor, fmtMillis(d), fmtSpeedup(snapT, d)+" vs snapshot serial")
		}
		add("snapshot serial", snapT)
		for _, w := range parallelQueryWorkers {
			w := w
			parT, err := timeQuery(rounds, func() error {
				_, err := sparql.EvalParallel(g, q, w)
				return err
			})
			if err != nil {
				return nil, err
			}
			add(fmt.Sprintf("snapshot parallel w=%d", w), parT)
		}
	}

	// Query-under-ingest: same BGP join, continuous query loop vs 4 AddBatch
	// ingest goroutines on one shared graph.
	mixedQ, err := sparql.Parse(queries[0].text, model.Namespaces())
	if err != nil {
		return nil, err
	}
	ingestWorkers, perWorker := 4, 10000
	if s == ScalePaper {
		perWorker = 25000
	}
	type mixedBest struct {
		wall time.Duration
		n    int64
		avg  time.Duration
	}
	variants := []struct {
		mode, label string
		workers     int
	}{
		{"none", "no queries", 0},
		{"snapshot", "snapshot query loop (serial)", 0},
		{"parallel", "snapshot query loop w=4", 4},
	}
	// Each variant starts from a fresh merge of the same store (so no variant
	// inherits a graph another one grew), and the variants interleave
	// across rounds with best-of kept — the same drift defense ingestCompare
	// uses.
	best := map[string]mixedBest{}
	for round := 0; round < 3; round++ {
		for _, mv := range variants {
			mg, err := dres.Store.Merge()
			if err != nil {
				return nil, err
			}
			wall, nq, qAvg, err := parallelMixedRun(mg, mixedQ, mv.mode, ingestWorkers, perWorker, mv.workers)
			if err != nil {
				return nil, err
			}
			if b, ok := best[mv.mode]; !ok || wall < b.wall {
				best[mv.mode] = mixedBest{wall, nq, qAvg}
			}
		}
	}
	aloneWall := best["none"].wall
	var mixedRows []pqMixedRow
	mixedRows = append(mixedRows, pqMixedRow{
		Variant: "ingest alone", IngestWallMs: fmtMillis(aloneWall), VsAlone: "1.00x",
	})
	r.AddRow("mixed ingest", "no queries", fmtMillis(aloneWall), "1.00x")
	for _, mv := range variants[1:] {
		b := best[mv.mode]
		slow := fmt.Sprintf("%.2fx", float64(b.wall)/float64(aloneWall))
		mixedRows = append(mixedRows, pqMixedRow{
			Variant: mv.label, IngestWallMs: fmtMillis(b.wall), VsAlone: slow,
			Queries: b.n, QueryAvgMs: fmtMillis(b.avg),
		})
		r.AddRow("mixed ingest", mv.label, fmtMillis(b.wall),
			fmt.Sprintf("%s slower, %d queries (%s ms avg)", slow, b.n, fmtMillis(b.avg)))
	}

	artifact, err := parallelQueryArtifactJSON(queryRows, mixedRows)
	if err != nil {
		return nil, err
	}
	r.Artifact = artifact
	return r, nil
}

// parallelMixedRun times ingesting workers disjoint record streams into graph
// g while a concurrent query loop runs in the given mode ("none", "snapshot",
// or "parallel" with queryWorkers morsel workers). It returns the ingest wall
// time, the number of queries completed, and the average query latency. The
// record streams use fresh pid-scoped IRIs each call so every run inserts new
// triples instead of hitting the dedup probe.
func parallelMixedRun(g *rdf.Graph, q *sparql.Query, mode string, workers, perWorker, queryWorkers int) (time.Duration, int64, time.Duration, error) {
	// pidBase shifts each invocation into a fresh IRI space; the package-level
	// counter survives across the variants of one ablation run.
	base := int(parallelMixedPID.Add(int64(workers)))
	streams := make([][][]rdf.Triple, workers)
	for w := range streams {
		streams[w] = ingestRecordBatches(10_000+base*100+w, perWorker)
	}
	runtime.GC()

	done := make(chan struct{})
	var queries int64
	var queryTime int64 // ns
	var queryErr atomic.Value
	var qwg sync.WaitGroup
	if mode != "none" {
		qwg.Add(1)
		go func() {
			defer qwg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				start := time.Now()
				var err error
				if mode == "snapshot" {
					_, err = sparql.Eval(g, q)
				} else {
					_, err = sparql.EvalParallel(g, q, queryWorkers)
				}
				if err != nil {
					queryErr.Store(err)
					return
				}
				atomic.AddInt64(&queryTime, int64(time.Since(start)))
				atomic.AddInt64(&queries, 1)
			}
		}()
	}

	var iwg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		iwg.Add(1)
		go func(w int) {
			defer iwg.Done()
			for _, batch := range streams[w] {
				g.AddBatch(batch)
			}
		}(w)
	}
	iwg.Wait()
	wall := time.Since(start)
	close(done)
	qwg.Wait()
	if err, ok := queryErr.Load().(error); ok && err != nil {
		return 0, 0, 0, err
	}
	n := atomic.LoadInt64(&queries)
	var avg time.Duration
	if n > 0 {
		avg = time.Duration(atomic.LoadInt64(&queryTime) / n)
	}
	return wall, n, avg, nil
}

var parallelMixedPID atomic.Int64

func parallelQueryArtifactJSON(queryRows []pqQueryRow, mixedRows []pqMixedRow) (string, error) {
	doc := struct {
		Experiment  string            `json:"experiment"`
		Environment map[string]string `json:"environment"`
		Queries     []pqQueryRow      `json:"query_latency"`
		Mixed       []pqMixedRow      `json:"query_under_ingest"`
		Acceptance  string            `json:"acceptance"`
		Notes       []string          `json:"notes"`
	}{
		Experiment: "abl-parallel-query: snapshot-isolated, morsel-driven parallel query execution",
		Environment: map[string]string{
			"goos": runtime.GOOS, "goarch": runtime.GOARCH,
			"go":         runtime.Version(),
			"num_cpu":    fmt.Sprint(runtime.NumCPU()),
			"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		},
		Queries: queryRows,
		Mixed:   mixedRows,
		Acceptance: "not measurable without spare cores (see environment): both the >=2.5x-at-4-workers query gate and the " +
			"<=10%-ingest-degradation gate assume them. On one or two vCPUs the worker ladder shows the " +
			"parallel path's overhead instead of speedup, and every concurrent query loop slows ingest " +
			"by competing for the same CPU and paying a snapshot index rebuild per query on it.",
		Notes: []string{
			"query_latency: avg of 20 rounds per variant on the quiescent merged DASSA provenance graph",
			"query_under_ingest: 4 goroutines AddBatch disjoint record streams into the live graph while one query loop runs continuously; ingest_wall_vs_alone is the ingest slowdown that loop causes; best-of-3 interleaved rounds, fresh graph per run",
			"with spare cores snapshot queries touch the graph lock only to pin a view and then run on other cores",
		},
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return "", err
	}
	return string(out) + "\n", nil
}
