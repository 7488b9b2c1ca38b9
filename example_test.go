package provio_test

import (
	"fmt"
	"strings"

	provio "github.com/hpc-io/prov-io"
)

// Example demonstrates the minimal end-to-end flow: track a hierarchical
// write transparently through the VOL connector stack, flush the provenance
// store, and query who produced the file.
func Example() {
	fs := provio.NewMemStore()
	view := fs.NewView()
	store, _ := provio.NewStore(provio.VFSBackend{View: fs.NewView()}, "/prov", provio.FormatBinary)

	tracker := provio.NewTracker(provio.DefaultConfig(), store, 0)
	user := tracker.RegisterUser("alice")
	prog := tracker.RegisterProgram("simulate-a1", user)
	conn := provio.NewProvConnector(provio.NewNativeConnector(view), tracker,
		provio.Context{User: user, Program: prog}, nil)

	f, _ := conn.FileCreate("/run.h5")
	ds, _ := conn.DatasetCreate(f.Root(), "x", provio.TypeFloat64, []int{4})
	_ = conn.DatasetWrite(ds, make([]byte, 32))
	_ = conn.FileClose(f)
	_ = tracker.Close()

	g, _ := store.Merge()
	res, _, _ := provio.Query(g, `
		SELECT ?p WHERE {
			?f provio:name "/run.h5" ; prov:wasAttributedTo ?prog .
			?prog provio:name ?p .
		}`, 1)
	fmt.Println("produced by:", res.Rows[0]["p"].Value)
	// Output: produced by: simulate-a1
}

// ExampleQuery shows a transitive lineage query with a property path.
func ExampleQuery() {
	g := provio.NewGraph()
	derived := provio.IRI("http://www.w3.org/ns/prov#wasDerivedFrom")
	g.Add(provio.Triple{S: provio.IRI("https://x/c"), P: derived, O: provio.IRI("https://x/b")})
	g.Add(provio.Triple{S: provio.IRI("https://x/b"), P: derived, O: provio.IRI("https://x/a")})

	res, _, _ := provio.Query(g, `SELECT ?anc WHERE { <https://x/c> prov:wasDerivedFrom+ ?anc . }`, 1)
	for _, row := range res.Rows {
		fmt.Println(row["anc"].Value)
	}
	// Output:
	// https://x/a
	// https://x/b
}

// ExampleLoadConfig shows configuration-file driven class selection — the
// transparency mechanism that lets users pick provenance features without
// touching workflow source.
func ExampleLoadConfig() {
	cfg, _ := provio.LoadConfig(strings.NewReader(`
# track file-granularity lineage with durations
track    = File, Create, Open, Read, Write, Fsync, Rename
duration = on
`))
	fmt.Println("file tracked:", cfg.Enabled(provio.ModelFile))
	fmt.Println("dataset tracked:", cfg.Enabled(provio.ModelDataset))
	fmt.Println("durations:", cfg.Duration)
	// Output:
	// file tracked: true
	// dataset tracked: false
	// durations: true
}
