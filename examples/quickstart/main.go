// Quickstart: track a tiny two-program workflow with PROV-IO, flush the
// provenance store, merge the per-process sub-graphs, and answer a lineage
// question with SPARQL.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"os"
	"strings"

	provio "github.com/hpc-io/prov-io"
)

func main() {
	// A simulated parallel filesystem; swap VFSBackend for OSBackend to
	// store provenance on a real disk.
	fs := provio.NewMemStore()
	view := fs.NewView()
	must(view.MkdirAll("/data"))

	store, err := provio.NewStore(provio.VFSBackend{View: fs.NewView()}, "/prov", provio.FormatBinary)
	must(err)

	// Process 0: a "simulate" program produces a hierarchical file.
	tracker := provio.NewTracker(provio.DefaultConfig(), store, 0)
	user := tracker.RegisterUser("alice")
	sim := tracker.RegisterProgram("simulate-a1", user)
	conn := provio.NewProvConnector(provio.NewNativeConnector(view), tracker,
		provio.Context{User: user, Program: sim}, nil)

	f, err := conn.FileCreate("/data/run42.h5")
	must(err)
	g, err := conn.GroupCreate(f.Root(), "Timestep_0")
	must(err)
	ds, err := conn.DatasetCreate(g, "x", provio.TypeFloat64, []int{8})
	must(err)
	must(conn.DatasetWrite(ds, make([]byte, 64)))
	must(provio.SetStringAttribute(ds, "units", "meters")) // untracked direct write
	must(conn.FileClose(f))

	// Process 1: an "analyze" program reads the file and writes a product.
	tracker2 := provio.NewTracker(provio.DefaultConfig(), store, 1)
	user2 := tracker2.RegisterUser("alice")
	ana := tracker2.RegisterProgram("analyze-a1", user2)
	conn2 := provio.NewProvConnector(provio.NewNativeConnector(view), tracker2,
		provio.Context{User: user2, Program: ana}, nil)

	in, err := conn2.FileOpen("/data/run42.h5", true)
	must(err)
	ds2, err := conn2.DatasetOpen(in.Root(), "Timestep_0/x")
	must(err)
	_, err = conn2.DatasetRead(ds2)
	must(err)
	out, err := conn2.FileCreate("/data/product.h5")
	must(err)
	ods, err := conn2.DatasetCreate(out.Root(), "result", provio.TypeFloat64, []int{1})
	must(err)
	must(conn2.DatasetWrite(ods, make([]byte, 8)))
	must(conn2.FileClose(out))
	must(conn2.FileClose(in))

	// Flush both sub-graphs and merge.
	must(tracker.Close())
	must(tracker2.Close())
	graph, err := store.Merge()
	must(err)
	fmt.Printf("merged provenance graph: %d triples\n\n", graph.Len())

	// Who produced /data/product.h5, and what did that program read?
	res, _, err := provio.Query(graph, `
		SELECT ?program WHERE {
			?product provio:name "/data/product.h5" ;
			         prov:wasAttributedTo ?program .
		}`, 1)
	must(err)
	fmt.Println("producer of /data/product.h5:")
	printRows(res)

	res, _, err = provio.Query(graph, `
		SELECT DISTINCT ?input WHERE {
			?input provio:wasReadBy ?api .
			?api prov:wasAssociatedWith ?program .
			?program provio:name "analyze-a1" .
		}`, 1)
	must(err)
	fmt.Println("\ninputs read by analyze-a1:")
	printRows(res)

	// Emit the provenance graph as Graphviz DOT.
	product := provio.IRI(provio.NodeIRI(provio.ModelFile, "/data/product.h5"))
	var dot strings.Builder
	must(provio.WriteDOT(&dot, graph, provio.VizOptions{
		Title:     "quickstart provenance",
		Highlight: provio.LineageHighlight(graph, product),
	}))
	fmt.Printf("\nDOT graph: %d bytes (pipe to `dot -Tpdf` to render)\n", dot.Len())
}

func printRows(res *provio.QueryResult) {
	ns := provio.ModelNamespaces()
	for _, row := range res.Rows {
		for _, v := range res.Vars {
			t := row[v]
			val := t.Value
			if t.IsIRI() {
				if c, ok := ns.Shrink(t.Value); ok {
					val = c
				}
			}
			fmt.Printf("  %s = %s\n", v, val)
		}
	}
	if len(res.Rows) == 0 {
		fmt.Println("  (no results)")
	}
}

func must(err error) {
	if err != nil {
		log.SetOutput(os.Stderr)
		log.Fatal(err)
	}
}
