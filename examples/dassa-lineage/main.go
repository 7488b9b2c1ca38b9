// DASSA backward lineage (paper §1.1, §6.5): a geophysics pipeline converts
// raw .tdms sensor files to hierarchical .h5 files and decimates them into
// data products. User B then asks: where did decimate output #0 come from,
// and who ran the programs? The answer takes three SPARQL statements per
// backward step, exactly as in the paper's Table 5.
//
//	go run ./examples/dassa-lineage
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
	must(view.MkdirAll("/das"))

	store, err := provio.NewStore(provio.VFSBackend{View: fs.NewView()}, "/prov", provio.FormatBinary)
	must(err)

	// File-granularity lineage configuration (Table 3, DASSA row 1).
	cfg := provio.ScenarioConfig(false,
		"Create", "Open", "Read", "Write", "Fsync", "Rename", "File", "Program", "User")
	tracker := provio.NewTracker(cfg, store, 0)
	user := tracker.RegisterUser("Bob")

	// --- Program 1: tdms2h5 converts the raw sensor file. ---
	conv := tracker.RegisterProgram("tdms2h5", user)
	pfs := provio.WrapPOSIX(view, tracker,
		provio.POSIXAgent{User: user, Program: conv}, provio.DefaultPOSIXOptions())

	// The raw input pre-exists (write it through an untracked view).
	must(fs.NewView().WriteFile("/das/WestSac.tdms", []byte("raw acoustic samples........")))

	raw, err := pfs.Open("/das/WestSac.tdms")
	must(err)
	buf := make([]byte, 64)
	raw.Read(buf)
	must(raw.Close())

	convConn := provio.NewProvConnector(provio.NewNativeConnector(view), tracker,
		provio.Context{User: user, Program: conv}, nil)
	h5, err := convConn.FileCreate("/das/WestSac.h5")
	must(err)
	ds, err := convConn.DatasetCreate(h5.Root(), "channel_00", provio.TypeFloat32, []int{16})
	must(err)
	must(convConn.DatasetWrite(ds, make([]byte, 64)))
	must(convConn.FileClose(h5))

	// --- Program 2: decimate analyzes the converted file. ---
	dec := tracker.RegisterProgram("decimate", user)
	decConn := provio.NewProvConnector(provio.NewNativeConnector(view), tracker,
		provio.Context{User: user, Program: dec}, nil)
	in, err := decConn.FileOpen("/das/WestSac.h5", true)
	must(err)
	ids, err := decConn.DatasetOpen(in.Root(), "channel_00")
	must(err)
	_, err = decConn.DatasetRead(ids)
	must(err)
	out, err := decConn.FileCreate("/das/decimate.h5")
	must(err)
	ods, err := decConn.DatasetCreate(out.Root(), "channel_00", provio.TypeFloat32, []int{2})
	must(err)
	must(decConn.DatasetWrite(ods, make([]byte, 8)))
	must(decConn.FileClose(out))
	must(decConn.FileClose(in))
	must(tracker.Close())

	graph, err := store.Merge()
	must(err)
	fmt.Printf("provenance graph: %d triples\n", graph.Len())

	// --- User B's backward walk: decimate.h5 -> WestSac.h5 -> WestSac.tdms
	target := "/das/decimate.h5"
	fmt.Printf("\nbackward lineage of %s:\n", target)
	for step := 1; ; step++ {
		node := provio.NodeIRI(provio.ModelFile, target)
		// Statement 1: which program produced it?
		r1, _, err := provio.Query(graph, fmt.Sprintf(
			`SELECT ?program WHERE { <%s> prov:wasAttributedTo ?program . }`, node), 1)
		must(err)
		if len(r1.Rows) == 0 {
			fmt.Printf("  step %d: %s has no recorded producer (origin reached)\n", step, target)
			break
		}
		prog := r1.Rows[0]["program"]
		// Statements 2+3: what did that program read?
		r2, _, err := provio.Query(graph, fmt.Sprintf(`SELECT DISTINCT ?input WHERE {
			?input provio:wasReadBy ?api .
			?api prov:wasAssociatedWith <%s> .
		}`, prog.Value), 1)
		must(err)
		name := func(t provio.Term) string {
			r, _, err := provio.Query(graph, fmt.Sprintf(
				`SELECT ?n WHERE { <%s> provio:name ?n . }`, t.Value), 1)
			if err == nil && len(r.Rows) == 1 {
				return r.Rows[0]["n"].Value
			}
			return t.Value
		}
		if len(r2.Rows) == 0 {
			fmt.Printf("  step %d: produced by %s (no tracked inputs)\n", step, name(prog))
			break
		}
		input := r2.Rows[0]["input"]
		fmt.Printf("  step %d: %s  <- produced by %s  <- read %s\n",
			step, target, name(prog), name(input))
		target = name(input)
		if step > 4 {
			break
		}
	}

	// And who ran decimate?
	r, _, err := provio.Query(graph, `SELECT ?user WHERE {
		?prog provio:name "decimate" ; prov:actedOnBehalfOf ?user .
	}`, 1)
	must(err)
	if len(r.Rows) == 1 {
		ru, _, _ := provio.Query(graph, fmt.Sprintf(
			`SELECT ?n WHERE { <%s> provio:name ?n . }`, r.Rows[0]["user"].Value), 1)
		fmt.Printf("\ndecimate was started by: %s\n", ru.Rows[0]["n"].Value)
	}
}

func must(err error) {
	if err != nil {
		log.SetOutput(os.Stderr)
		log.Fatal(err)
	}
}
