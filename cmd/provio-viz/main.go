// Command provio-viz renders a provenance store as Graphviz DOT, optionally
// highlighting the backward lineage of one data product in blue (the
// paper's Figure 9).
//
// Usage:
//
//	provio-viz -store ./prov -o graph.dot
//	provio-viz -store ./prov -product /das/products/x.h5 -o lineage.dot
//	dot -Tpdf lineage.dot -o lineage.pdf
package main

import (
	"flag"
	"fmt"
	"os"

	provio "github.com/hpc-io/prov-io"
	"github.com/hpc-io/prov-io/internal/cli"
)

func main() {
	storeSpec := flag.String("store", "", cli.StoreUsage+" (required)")
	out := flag.String("o", "", "output DOT file (default stdout)")
	product := flag.String("product", "", "file path of a data product whose lineage to highlight")
	title := flag.String("title", "PROV-IO provenance", "graph title")
	flag.Parse()

	store, err := cli.OpenStore(*storeSpec)
	if err != nil {
		fatalf("open store: %v", err)
	}
	g, err := store.Merge()
	if err != nil {
		fatalf("merge: %v", err)
	}

	opts := provio.VizOptions{Title: *title}
	if *product != "" {
		node := provio.IRI(provio.NodeIRI(provio.ModelFile, *product))
		opts.Highlight = provio.LineageHighlight(g, node)
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatalf("%v", err)
		}
		defer f.Close()
		w = f
	}
	if err := provio.WriteDOT(w, g, opts); err != nil {
		fatalf("%v", err)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "provio-viz: "+format+"\n", args...)
	os.Exit(1)
}
