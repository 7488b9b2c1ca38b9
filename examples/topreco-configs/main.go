// Top Reco metadata version control (paper §3.1, §6.2): the scientists run
// the training workflow several times with different hyperparameters and
// preselections and need the mapping from each configuration version to the
// accuracy it achieved — without copying config files around by hand. This
// example records three runs through the PROV-IO extensible-class APIs and
// then asks: which configuration gave the best accuracy?
//
//	go run ./examples/topreco-configs
package main

import (
	"fmt"
	"log"
	"os"
	"sort"

	provio "github.com/hpc-io/prov-io"
)

type runCfg struct {
	learningRate float64
	batchSize    int
	preselection float64
	accuracy     float64 // measured by the (simulated) training run
}

func main() {
	fs := provio.NewMemStore()
	store, err := provio.NewStore(provio.VFSBackend{View: fs.NewView()}, "/prov", provio.FormatBinary)
	must(err)

	// Track only the extensible classes (Table 3's Top Reco row).
	cfg := provio.ScenarioConfig(false, "Type", "Configuration", "Metrics", "Program", "User")
	tracker := provio.NewTracker(cfg, store, 0)
	user := tracker.RegisterUser("physicist")
	wf := tracker.RegisterProgram("topreco", user)
	tracker.TrackType(wf, "Machine Learning")

	// Three runs with different configurations. In the real workflow each
	// run takes hours; the accuracy arrives at the end of training.
	runs := []runCfg{
		{learningRate: 0.01, batchSize: 32, preselection: 0.3, accuracy: 0.842},
		{learningRate: 0.05, batchSize: 64, preselection: 0.5, accuracy: 0.911},
		{learningRate: 0.10, batchSize: 64, preselection: 0.7, accuracy: 0.897},
	}
	for version, r := range runs {
		tracker.TrackConfiguration(wf, "learning_rate", provio.Double(r.learningRate), version)
		tracker.TrackConfiguration(wf, "batch_size", provio.Integer(int64(r.batchSize)), version)
		tracker.TrackConfiguration(wf, "preselection", provio.Double(r.preselection), version)
		// The per-run accuracy is attached to the configuration version.
		tracker.TrackConfigurationAccuracy(wf, "run", provio.Integer(int64(version)), version, r.accuracy)
	}
	must(tracker.Close())

	graph, err := store.Merge()
	must(err)
	fmt.Printf("provenance graph: %d triples\n\n", graph.Len())

	// Table 5's Top Reco query: versions and their accuracies (2 statements).
	res, _, err := provio.Query(graph, `
		SELECT ?version ?accuracy WHERE {
			?configuration provio:Version ?version ;
			               provio:hasAccuracy ?accuracy .
		} ORDER BY DESC(?accuracy)`, 1)
	must(err)
	fmt.Println("configuration versions ranked by accuracy:")
	for _, row := range res.Rows {
		fmt.Printf("  version %s -> accuracy %s\n", row["version"].Value, row["accuracy"].Value)
	}
	best := res.Rows[0]["version"].Value

	// Expand the winning version's full configuration.
	res, _, err = provio.Query(graph, fmt.Sprintf(`
		SELECT ?name ?value WHERE {
			?c provio:Version %s ;
			   provio:name ?name ;
			   provio:value ?value .
		}`, best), 1)
	must(err)
	type kv struct{ k, v string }
	var kvs []kv
	for _, row := range res.Rows {
		kvs = append(kvs, kv{row["name"].Value, row["value"].Value})
	}
	sort.Slice(kvs, func(i, j int) bool { return kvs[i].k < kvs[j].k })
	fmt.Printf("\nbest configuration (version %s):\n", best)
	for _, p := range kvs {
		fmt.Printf("  %s = %s\n", p.k, p.v)
	}
}

func must(err error) {
	if err != nil {
		log.SetOutput(os.Stderr)
		log.Fatal(err)
	}
}
