// ADIOS-style pipeline: the paper lists integration with other HPC I/O
// libraries (e.g. ADIOS) as future work (§1.5). This example shows the
// PROV-IO model is I/O-library-agnostic: a simulation writes step-oriented
// output through an ADIOS-style engine, an analysis reads it back, and the
// provenance — same model, same store, same queries — captures the variable
// lineage across both programs.
//
//	go run ./examples/adios-pipeline
package main

import (
	"fmt"
	"log"
	"os"

	provio "github.com/hpc-io/prov-io"
)

func main() {
	fs := provio.NewMemStore()
	view := fs.NewView()
	must(view.MkdirAll("/out"))
	store, err := provio.NewStore(provio.VFSBackend{View: fs.NewView()}, "/prov", provio.FormatBinary)
	must(err)

	tracker := provio.NewTracker(provio.DefaultConfig(), store, 0)
	user := tracker.RegisterUser("fusion-scientist")

	// --- Program 1: the simulation writes 3 steps of two variables. ---
	sim := tracker.RegisterProgram("xgc-simulation-a1", user)
	w, err := provio.OpenADIOS(view, "/out/sim.bp", provio.ADIOSWrite)
	must(err)
	w.WithProvenance(tracker, sim, sim)
	for step := 0; step < 3; step++ {
		must(w.BeginStep())
		must(w.Put("temperature", []int{4}, []byte{byte(step), 1, 2, 3}))
		must(w.Put("density", []int{4}, []byte{4, 5, 6, byte(step)}))
		must(w.EndStep())
	}
	must(w.Close())

	// --- Program 2: the analysis reads the last step. ---
	ana := tracker.RegisterProgram("blob-detector-a1", user)
	r, err := provio.OpenADIOS(view, "/out/sim.bp", provio.ADIOSRead)
	must(err)
	r.WithProvenance(tracker, ana, ana)
	data, dims, err := r.Get(r.Steps()-1, "temperature")
	must(err)
	fmt.Printf("analysis read temperature: %v (dims %v) from step %d\n", data, dims, r.Steps()-1)
	must(r.Close())
	must(tracker.Close())

	// --- The same user engine answers the same questions. ---
	graph, err := store.Merge()
	must(err)
	fmt.Printf("provenance graph: %d triples\n\n", graph.Len())

	res, _, err := provio.Query(graph, `
		SELECT (COUNT(?api) AS ?writes) WHERE {
			?var a provio:Dataset ;
			     provio:name "temperature" ;
			     provio:wasWrittenBy ?api .
		}`, 1)
	must(err)
	fmt.Printf("temperature was written %s times\n", res.Rows[0]["writes"].Value)

	res, _, err = provio.Query(graph, `
		SELECT DISTINCT ?reader WHERE {
			?var provio:name "temperature" ;
			     provio:wasReadBy ?api .
			?api prov:wasAssociatedWith ?prog .
			?prog provio:name ?reader .
		}`, 1)
	must(err)
	fmt.Println("programs that read temperature:")
	for _, row := range res.Rows {
		fmt.Printf("  %s\n", row["reader"].Value)
	}

	// The engine file itself is attributed to the simulation.
	res, _, err = provio.Query(graph, `
		SELECT ?prog WHERE {
			?f a provio:File ;
			   provio:name "/out/sim.bp" ;
			   prov:wasAttributedTo ?p .
			?p provio:name ?prog .
		}`, 1)
	must(err)
	fmt.Printf("/out/sim.bp produced by: %s\n", res.Rows[0]["prog"].Value)
}

func must(err error) {
	if err != nil {
		log.SetOutput(os.Stderr)
		log.Fatal(err)
	}
}
