package bench

import (
	"fmt"
	"sync"
	"testing"

	"github.com/hpc-io/prov-io/internal/core"
	"github.com/hpc-io/prov-io/internal/model"
	"github.com/hpc-io/prov-io/internal/rdf"
	"github.com/hpc-io/prov-io/internal/sparql"
	"github.com/hpc-io/prov-io/internal/vfs"
	"github.com/hpc-io/prov-io/internal/workloads/dassa"
)

// Read-path benchmarks on one DASSA provenance graph: a §6 BGP join through
// the executor at several worker counts, and the lineage BFS. Run with
// -benchmem — allocations per query are the figure the ID-space engine is
// built around.

var (
	queryBenchOnce  sync.Once
	queryBenchGraph *rdf.Graph
	queryBenchQuery *sparql.Query
	queryBenchRoot  rdf.Term
)

func queryBenchSetup(b *testing.B) (*rdf.Graph, *sparql.Query, rdf.Term) {
	b.Helper()
	queryBenchOnce.Do(func() {
		cfg := dassa.Config{Files: 32, Ranks: 4, Lineage: dassa.AttrLineage}
		store := vfs.NewStore()
		if err := dassa.GenerateInputs(store.NewView(), cfg); err != nil {
			panic(err)
		}
		res, err := dassa.Run(store, cfg)
		if err != nil {
			panic(err)
		}
		g, err := res.Store.Merge()
		if err != nil {
			panic(err)
		}
		prog := model.NodeIRI(model.Program, "decimate-a1")
		q, err := sparql.Parse(fmt.Sprintf(
			`SELECT DISTINCT ?file WHERE {
				?file provio:wasReadBy ?api .
				?api prov:wasAssociatedWith <%s> .
			}`, prog), model.Namespaces())
		if err != nil {
			panic(err)
		}
		queryBenchGraph = g
		queryBenchQuery = q
		queryBenchRoot = rdf.IRI(model.NodeIRI(model.File, "/das/products/WestSac_0000.decimate.h5"))
	})
	return queryBenchGraph, queryBenchQuery, queryBenchRoot
}

// BenchmarkQueryBGPParallel runs the §6 query through the executor at
// 1/2/4/8 workers; workers=1 is the serial run. Multi-worker speedups
// require multiple cores (GOMAXPROCS); on a single-core runner the
// sub-benchmarks measure the parallel path's overhead instead.
func BenchmarkQueryBGPParallel(b *testing.B) {
	g, q, _ := queryBenchSetup(b)
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sparql.EvalParallel(g, q, w); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkLineageReduce(b *testing.B) {
	g, _, root := queryBenchSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Uncached so the benchmark measures the BFS, not the snapshot memo.
		core.ReduceLineageUncached(g, []rdf.Term{root}, 0)
	}
}
