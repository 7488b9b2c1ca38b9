// Command provio-query is the PROV-IO user engine's SPARQL endpoint: it
// merges the per-process sub-graphs of a provenance store and evaluates a
// SPARQL SELECT query against the merged graph.
//
// Usage:
//
//	provio-query -store ./prov 'SELECT ?f WHERE { ?f a provio:File . }'
//	provio-query -store file:run.pvs -file query.rq
//	provio-query -store ./prov -plan 'SELECT ?f WHERE { ?f a provio:File . }'
//
// -store accepts a directory or any store spec (dir:/path, file:/run.pvs,
// mount:hot=...,cold=...).
//
// The prov/provio/rdf/xsd prefixes are pre-bound; queries may add more with
// PREFIX declarations. -plan prints the planner's cardinality-ordered join
// plan (EXPLAIN) without executing the query, preceded by the pushdown
// report (segments decoded vs skipped, per level); the plan ends with the
// parallel-execution decision for -workers — the task decomposition, or the
// named reason the plan runs serially. -workers N evaluates with the
// morsel-driven parallel executor (N > 1); results are byte-identical to
// serial. -repeat N runs the query N times in-process, exercising the
// epoch-keyed result cache; each run reports how it was served on stderr.
// -cpuprofile/-memprofile write pprof profiles of the run.
//
// Loading goes through statistics pushdown: segments (and whole packs) whose
// zone maps, predicate lists, and Bloom filters prove the query's patterns
// cannot match are never decoded. Results are identical to an exhaustive
// merge; -no-prune forces the exhaustive path.
//
// -cache-bytes N (N > 0) switches to out-of-core execution: instead of
// merging the store up front, the query runs over a lazy view that decodes
// segments and pack members on demand into a cache bounded by N bytes, so
// peak resident memory tracks the budget rather than the store size. Results
// are byte-identical to the eager path; the stderr scan line additionally
// reports the decoded-unit cache's hit ratio and residency.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	provio "github.com/hpc-io/prov-io"
	"github.com/hpc-io/prov-io/internal/cli"
)

func main() {
	storeSpec := flag.String("store", "", cli.StoreUsage+" (required)")
	queryFile := flag.String("file", "", "read the query from this file instead of argv")
	format := flag.String("format", "tsv", "output format: tsv | json (W3C SPARQL results JSON)")
	plan := flag.Bool("plan", false, "print the pushdown report and query plan (EXPLAIN) instead of executing")
	noPrune := flag.Bool("no-prune", false, "disable segment-statistics pushdown (decode every segment)")
	workers := flag.Int("workers", 1, "parallel query workers (1 = serial executor)")
	cacheBytes := flag.Int64("cache-bytes", 0, "out-of-core execution: decode segments on demand into a cache of this many bytes (0 = merge up front)")
	repeat := flag.Int("repeat", 1, "run the query this many times in-process (cache demo)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU pprof profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap pprof profile to this file")
	flag.Parse()

	var query string
	switch {
	case *queryFile != "":
		data, err := os.ReadFile(*queryFile)
		if err != nil {
			fatalf("%v", err)
		}
		query = string(data)
	case flag.NArg() == 1:
		query = flag.Arg(0)
	default:
		fatalf("pass the query as the single argument or via -file")
	}

	q, err := provio.ParseQuery(query)
	if err != nil {
		fatalf("%v", err)
	}
	var pruner *provio.SegmentPruner
	if !*noPrune {
		pruner = provio.PrunerForQuery(q)
	}

	store, err := cli.OpenStore(*storeSpec)
	if err != nil {
		fatalf("open store: %v", err)
	}
	if *repeat < 1 {
		*repeat = 1
	}

	src, err := cli.OpenSource(store, pruner, *workers, *cacheBytes)
	if err != nil {
		fatalf("%v", err)
	}
	if *plan {
		fmt.Printf("pushdown: %s\n", src.Pushdown())
		out, err := provio.Explain(src.Query, query, *workers)
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Print(out)
		return
	}
	var (
		res  *provio.QueryResult
		info provio.QueryInfo
	)
	stopCPU := startCPUProfile(*cpuprofile)
	for i := 1; i <= *repeat; i++ {
		res, info, err = provio.Query(src.Query, query, *workers)
		if err != nil {
			break
		}
		if *repeat > 1 {
			fmt.Fprintf(os.Stderr, "run %d/%d: %d solution(s); %s\n", i, *repeat, len(res.Rows), info.Summary())
		}
	}
	stopCPU()
	if err != nil {
		fatalf("%v", err)
	}
	writeMemProfile(*memprofile)

	if *format == "json" {
		if err := res.WriteJSON(os.Stdout); err != nil {
			fatalf("%v", err)
		}
		return
	}

	ns := provio.ModelNamespaces()
	fmt.Println(strings.Join(res.Vars, "\t"))
	for _, row := range res.Rows {
		cells := make([]string, len(res.Vars))
		for i, v := range res.Vars {
			if t, ok := row[v]; ok {
				cells[i] = renderTerm(t, ns)
			} else {
				cells[i] = "-"
			}
		}
		fmt.Println(strings.Join(cells, "\t"))
	}
	// Out of core the triple count is a statistics estimate: the store is
	// never merged.
	fmt.Fprintf(os.Stderr, "%d solution(s) over %d triples; %s; %s\n", len(res.Rows), src.Query.Len(), info.Summary(), src.Scan())
}

func renderTerm(t provio.Term, ns *provio.Namespaces) string {
	if t.IsIRI() {
		if c, ok := ns.Shrink(t.Value); ok {
			return c
		}
		return "<" + t.Value + ">"
	}
	return t.Value
}

// startCPUProfile begins CPU profiling into path (no-op when empty) and
// returns the stop function.
func startCPUProfile(path string) func() {
	if path == "" {
		return func() {}
	}
	f, err := os.Create(path)
	if err != nil {
		fatalf("cpuprofile: %v", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		fatalf("cpuprofile: %v", err)
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}
}

// writeMemProfile dumps a heap profile to path (no-op when empty).
func writeMemProfile(path string) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fatalf("memprofile: %v", err)
	}
	defer f.Close()
	runtime.GC() // materialize the retained heap before sampling
	if err := pprof.WriteHeapProfile(f); err != nil {
		fatalf("memprofile: %v", err)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "provio-query: "+format+"\n", args...)
	os.Exit(1)
}
