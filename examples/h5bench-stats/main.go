// H5bench I/O statistics (paper §3.3, §6.2): understand the I/O behavior of
// a shared-file workload — how many operations of each type ran, how long
// they took, and who modified the file. This example runs a small VPIC-style
// write+read workload with durations tracked (usage scenario 2 + the agent
// classes of scenario 3) and answers all three scenario queries.
//
//	go run ./examples/h5bench-stats
package main

import (
	"fmt"
	"log"
	"os"
	"sort"
	"strconv"

	provio "github.com/hpc-io/prov-io"
)

func main() {
	fs := provio.NewMemStore()
	view := fs.NewView()
	must(view.MkdirAll("/scratch"))
	store, err := provio.NewStore(provio.VFSBackend{View: fs.NewView()}, "/prov", provio.FormatBinary)
	must(err)

	// I/O API + durations + agents + file: scenarios 2 and 3 combined.
	cfg := provio.ScenarioConfig(true,
		"Create", "Open", "Read", "Write", "Fsync", "Rename",
		"User", "Thread", "Program", "File")
	cost := provio.DefaultCostModel()

	const ranks = 4
	completion := provio.MPIRun(ranks, func(r *provio.MPIRank) {
		tracker := provio.NewTracker(cfg, store, r.ID())
		user := tracker.RegisterUser("h5bench-user")
		prog := tracker.RegisterProgram("vpicio_uni_h5.exe-a1", user)
		thr := tracker.RegisterThread(r.ID(), prog)
		ctx := provio.Context{User: user, Program: prog, Thread: thr}
		conn := provio.NewProvConnector(
			provio.NewCostConnector(provio.NewNativeConnector(view), r.Clock, cost, 1024, ranks),
			tracker, ctx, r.Clock)

		// Rank 0 creates the shared file and datasets.
		if r.ID() == 0 {
			f, err := conn.FileCreate("/scratch/vpic.h5")
			must(err)
			for _, v := range []string{"x", "y", "z", "px", "py", "pz"} {
				_, err := conn.DatasetCreate(f.Root(), v, provio.TypeFloat32, []int{ranks * 64})
				must(err)
			}
			must(conn.FileFlush(f))
			must(conn.FileClose(f))
		}
		r.Barrier()

		// Every rank writes then reads its slice of each variable.
		f, err := conn.FileOpen("/scratch/vpic.h5", false)
		must(err)
		for _, v := range []string{"x", "y", "z", "px", "py", "pz"} {
			ds, err := conn.DatasetOpen(f.Root(), v)
			must(err)
			must(conn.DatasetWriteRows(ds, r.ID()*64, 64, make([]byte, 64*4)))
			if _, err := conn.DatasetReadRows(ds, r.ID()*64, 64); err != nil {
				must(err)
			}
		}
		must(conn.FileClose(f))
		must(tracker.Close())
	})
	fmt.Printf("simulated completion time: %v\n\n", completion)

	graph, err := store.Merge()
	must(err)

	// Scenario 1: how many I/O operations of each type? (1 statement + GROUP-free aggregation)
	res, _, err := provio.Query(graph, `
		SELECT ?api WHERE { ?api prov:wasMemberOf prov:Activity . }`, 1)
	must(err)
	counts := map[string]int{}
	for _, row := range res.Rows {
		// Activity IRIs look like .../api/H5Dwrite-p2-b7; bucket by name.
		iri := row["api"].Value
		name := iri[lastIndex(iri, '/')+1:]
		if i := lastIndex(name, 'p') - 1; i > 0 && name[i] == '-' {
			name = name[:i]
		}
		counts[name]++
	}
	fmt.Println("scenario-1: I/O API counts")
	var names []string
	for n := range counts {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-14s %d\n", n, counts[n])
	}

	// Scenario 2: accumulated time per API type (2 statements).
	res, _, err = provio.Query(graph, `
		SELECT ?api ?duration WHERE {
			?api prov:wasMemberOf prov:Activity ;
			     provio:elapsed ?duration .
		}`, 1)
	must(err)
	totals := map[string]int64{}
	for _, row := range res.Rows {
		iri := row["api"].Value
		name := iri[lastIndex(iri, '/')+1:]
		if i := lastIndex(name, 'p') - 1; i > 0 && name[i] == '-' {
			name = name[:i]
		}
		ns, _ := strconv.ParseInt(row["duration"].Value, 10, 64)
		totals[name] += ns
	}
	fmt.Println("\nscenario-2: accumulated I/O time per API (bottleneck analysis)")
	names = names[:0]
	for n := range totals {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return totals[names[i]] > totals[names[j]] })
	for _, n := range names {
		fmt.Printf("  %-14s %.3f ms\n", n, float64(totals[n])/1e6)
	}
	if len(names) > 0 {
		fmt.Printf("  -> bottleneck: %s\n", names[0])
	}

	// Scenario 3: who modified the shared file? (3 statements)
	fileNode := provio.NodeIRI(provio.ModelFile, "/scratch/vpic.h5")
	res, _, err = provio.Query(graph, fmt.Sprintf(`
		SELECT DISTINCT ?thread ?user WHERE {
			<%s> provio:wasWrittenBy ?api .
			?api prov:wasAssociatedWith ?thread .
			?thread prov:actedOnBehalfOf/prov:actedOnBehalfOf ?user .
		}`, fileNode), 1)
	must(err)
	fmt.Println("\nscenario-3: threads that wrote /scratch/vpic.h5")
	for _, row := range res.Rows {
		t := row["thread"].Value
		fmt.Printf("  %s\n", t[lastIndex(t, '/')+1:])
	}
}

func lastIndex(s string, c byte) int {
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == c {
			return i
		}
	}
	return -1
}

func must(err error) {
	if err != nil {
		log.SetOutput(os.Stderr)
		log.Fatal(err)
	}
}
