package bench

import (
	"fmt"

	"github.com/hpc-io/prov-io/internal/core"
	"github.com/hpc-io/prov-io/internal/model"
	"github.com/hpc-io/prov-io/internal/rdf"
	"github.com/hpc-io/prov-io/internal/rdf/segcodec"
	"github.com/hpc-io/prov-io/internal/vfs"
	"github.com/hpc-io/prov-io/internal/workloads/h5bench"
)

// Ablation experiments for the design choices DESIGN.md calls out. They are
// not paper exhibits; provio-bench exposes them under abl-* IDs.

// AblationFlush compares the two serialization modes of the provenance
// store (§4.2: "the serialization operation may be triggered either
// periodically or by the end of the workflow"): at-end keeps the critical
// path clean but risks losing provenance on a crash; periodic pays a small
// recurring cost.
func AblationFlush(s Scale) (*Report, error) {
	r := &Report{
		ID:      "abl-flush",
		Title:   "Ablation: at-end vs periodic provenance serialization",
		Columns: []string{"flush_every", "completion(s)", "overhead vs at-end"},
		Notes:   []string{"periodic mode bounds provenance loss at a small recurring serialization cost"},
	}
	run := func(mode core.Mode, every int) (*h5bench.Result, error) {
		cfg := h5bench.Config{Ranks: 8, Steps: 4, Pattern: h5bench.WriteRead, Scenario: h5bench.Scenario1}
		// Run through a tweaked scenario config.
		provCfg := h5bench.Scenario1.ProvConfig()
		provCfg.Mode = mode
		provCfg.FlushEvery = every
		res, err := h5bench.RunWithProvConfig(cfg, provCfg)
		return &res, err
	}
	atEnd, err := run(core.ModeAtEnd, 0)
	if err != nil {
		return nil, err
	}
	r.AddRow("at-end", fmtSeconds(atEnd.Completion), "0.000%")
	for _, every := range []int{256, 64, 16} {
		res, err := run(core.ModePeriodic, every)
		if err != nil {
			return nil, err
		}
		r.AddRow(itoa(every), fmtSeconds(res.Completion), fmtPercent(atEnd.Completion, res.Completion))
	}
	return r, nil
}

// AblationPipeline compares the three periodic-flush pipelines at a fixed
// flush interval: inline full re-serialization (O(graph) on the critical
// path per flush), inline delta segments (O(new triples)), and the async
// writer (only the handoff on the critical path, plus modeled backpressure
// when the bounded queue fills). This is the repository's rendering of the
// paper's §4.3 claim that overlapping periodic serialization with
// computation keeps tracking overhead negligible.
func AblationPipeline(s Scale) (*Report, error) {
	r := &Report{
		ID:      "abl-pipeline",
		Title:   "Ablation: periodic flush pipeline (inline-full vs delta vs async)",
		Columns: []string{"pipeline", "completion(s)", "overhead vs at-end"},
		Notes:   []string{"async delta flushing moves serialization off the critical path (paper §4.3)"},
	}
	run := func(mode core.Mode, pipeline core.Pipeline) (*h5bench.Result, error) {
		cfg := h5bench.Config{Ranks: 8, Steps: 8, Pattern: h5bench.WriteRead, Scenario: h5bench.Scenario1}
		provCfg := h5bench.Scenario1.ProvConfig()
		provCfg.Mode = mode
		// A tight interval keeps the pipelines apart: inline-full pays
		// O(graph) per flush and the graph keeps growing, delta pays
		// O(interval), async pays only the enqueue handoff.
		provCfg.FlushEvery = 8
		provCfg.Pipeline = pipeline
		res, err := h5bench.RunWithProvConfig(cfg, provCfg)
		return &res, err
	}
	atEnd, err := run(core.ModeAtEnd, core.PipelineAsync)
	if err != nil {
		return nil, err
	}
	r.AddRow("at-end", fmtSeconds(atEnd.Completion), "0.000%")
	for _, p := range []core.Pipeline{core.PipelineInline, core.PipelineDelta, core.PipelineAsync} {
		res, err := run(core.ModePeriodic, p)
		if err != nil {
			return nil, err
		}
		r.AddRow(p.String(), fmtSeconds(res.Completion), fmtPercent(atEnd.Completion, res.Completion))
	}
	return r, nil
}

// AblationGranularity quantifies the completeness/overhead tradeoff of the
// User Engine's class switches (§4.2): each enabled Data Object class adds
// records and bytes.
func AblationGranularity(s Scale) (*Report, error) {
	r := &Report{
		ID:      "abl-granularity",
		Title:   "Ablation: sub-class switches vs provenance volume",
		Columns: []string{"enabled classes", "records", "triples", "storage(KB)"},
		Notes:   []string{"the model's per-class switches trade completeness for overhead (paper §4.2)"},
	}
	levels := []struct {
		name    string
		classes []string
	}{
		{"I/O API only", []string{"Create", "Open", "Read", "Write", "Fsync", "Rename"}},
		{"+File", []string{"Create", "Open", "Read", "Write", "Fsync", "Rename", "File"}},
		{"+Dataset", []string{"Create", "Open", "Read", "Write", "Fsync", "Rename", "File", "Dataset"}},
		{"+Attribute", []string{"Create", "Open", "Read", "Write", "Fsync", "Rename", "File", "Dataset", "Attribute"}},
		{"+Agents", []string{"Create", "Open", "Read", "Write", "Fsync", "Rename", "File", "Dataset", "Attribute", "User", "Thread", "Program"}},
	}
	for _, lvl := range levels {
		provCfg := core.ScenarioConfig(false, lvl.classes...)
		cfg := h5bench.Config{Ranks: 4, Steps: 3, Pattern: h5bench.WriteRead}
		res, err := h5bench.RunWithProvConfig(cfg, provCfg)
		if err != nil {
			return nil, err
		}
		r.AddRow(lvl.name, fmt.Sprintf("%d", res.Records), fmt.Sprintf("%d", res.Triples), fmtKB(res.ProvBytes))
	}
	return r, nil
}

// AblationFormat compares the two text serializations a store once wrote:
// Turtle's subject-grouping amortizes long IRIs, N-Triples repeats them per
// triple.
func AblationFormat(s Scale) (*Report, error) {
	r := &Report{
		ID:      "abl-format",
		Title:   "Ablation: Turtle vs N-Triples store size",
		Columns: []string{"format", "bytes", "ratio"},
		Notes:   []string{"Turtle's predicate lists amortize subject IRIs (paper stores Turtle 'for simplicity')"},
	}
	// The store writes pbs; the two sizes are the graph's text encodings,
	// what a store of each text format held for it.
	tr := core.NewTracker(core.DefaultConfig(), nil, 0)
	prog := tr.RegisterProgram("p", rdf.Term{})
	for i := 0; i < 500; i++ {
		obj := tr.TrackDataObject(model.Dataset, fmt.Sprintf("/f.h5/d%d", i), "", rdf.Term{}, prog)
		tr.TrackIO(model.Write, "H5Dwrite", obj, prog, 0, 0)
	}
	turtle, err := core.TextBytes(segcodec.Turtle, tr.Graph())
	if err != nil {
		return nil, err
	}
	nt, err := core.TextBytes(segcodec.NTriples, tr.Graph())
	if err != nil {
		return nil, err
	}
	r.AddRow("turtle", fmt.Sprintf("%d", turtle), "1.00")
	r.AddRow("ntriples", fmt.Sprintf("%d", nt), fmt.Sprintf("%.2f", float64(nt)/float64(turtle)))
	return r, nil
}

// AblationGUIDMerge quantifies the GUID-based merge deduplication (§5):
// processes touching the same objects collapse into shared nodes.
func AblationGUIDMerge(s Scale) (*Report, error) {
	r := &Report{
		ID:      "abl-guid",
		Title:   "Ablation: GUID-based sub-graph merge deduplication",
		Columns: []string{"processes", "sum of sub-graph triples", "merged triples", "dedup"},
		Notes:   []string{"shared data objects and agents merge into single nodes (paper §5)"},
	}
	for _, procs := range []int{2, 8, 32} {
		view := vfs.NewStore().NewView()
		store, err := core.NewStore(core.VFSBackend{View: view}, "/prov", core.FormatBinary)
		if err != nil {
			return nil, err
		}
		var sum int64
		for pid := 0; pid < procs; pid++ {
			tr := core.NewTracker(core.DefaultConfig(), store, pid)
			user := tr.RegisterUser("shared-user")
			prog := tr.RegisterProgram("shared-program", user)
			// Every process touches the same 20 files.
			for i := 0; i < 20; i++ {
				obj := tr.TrackDataObject(model.File, fmt.Sprintf("/shared/f%d", i), "", rdf.Term{}, prog)
				tr.TrackIO(model.Read, "read", obj, prog, 0, 0)
			}
			if err := tr.Close(); err != nil {
				return nil, err
			}
			_, triples := tr.Stats()
			sum += triples
		}
		merged, err := store.Merge()
		if err != nil {
			return nil, err
		}
		r.AddRow(itoa(procs), fmt.Sprintf("%d", sum), itoa(merged.Len()),
			fmt.Sprintf("%.1f%%", 100*(1-float64(merged.Len())/float64(sum))))
	}
	return r, nil
}
