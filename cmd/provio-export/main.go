// Command provio-export is where provenance leaves the store as text: it
// merges a store and writes the graph as a W3C PROV-JSON interchange
// document, for consumption by PROV-compliant tools outside this framework
// (the interoperability the paper's RDF/PROV-O choice buys), or as RDF text.
//
// Usage:
//
//	provio-export -store ./prov > provenance.json
//	provio-export -store ./prov -o provenance.ttl
//
// The -o file name picks the syntax: a .ttl name gives Turtle under the
// PROV-IO prefixes, a .nt name N-Triples, and any other name, or stdout,
// PROV-JSON.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	provio "github.com/hpc-io/prov-io"
	"github.com/hpc-io/prov-io/internal/cli"
	"github.com/hpc-io/prov-io/internal/rdf"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "provio-export: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fl := flag.NewFlagSet("provio-export", flag.ExitOnError)
	storeSpec := fl.String("store", "", cli.StoreUsage+" (required)")
	out := fl.String("o", "", "output file: NAME.ttl for Turtle, NAME.nt for N-Triples, anything else for PROV-JSON (default stdout)")
	fl.Parse(args)
	store, err := cli.OpenStore(*storeSpec)
	if err != nil {
		return err
	}
	g, err := store.Merge()
	if err != nil {
		return err
	}
	write := provio.ExportPROVJSON
	switch filepath.Ext(*out) {
	case ".ttl":
		write = func(w io.Writer, g *provio.Graph) error { return rdf.WriteTurtle(w, g, provio.ModelNamespaces()) }
	case ".nt":
		write = rdf.WriteNTriples
	}
	if *out == "" {
		return write(os.Stdout, g)
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	if err := write(f, g); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
