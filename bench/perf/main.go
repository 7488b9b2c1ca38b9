// Command perf is the repository's one performance harness: it generates a
// seeded provenance workload, drives it through track -> periodic flush ->
// Close/Drain -> PackSegments -> Verify -> open -> query -> lineage via the
// layers' public functions, checks every output against the generator's
// expected answers, and prints every end-to-end metric by name. README.md in
// this directory defines the workloads, the metrics and the measuring
// protocol.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"
)

const schema = "provio-perf/1"

// options are the knobs of one workload run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	rounds   int // > 0 fixes the number of timed rounds instead of the clock
	scale    string
	trace    bool
	spans    string // where a traced run writes its spans ("" = nowhere)
	tmp      string // scratch directory for the traced dir: backend repeat
	commit   string
}

// metricValue is one reported metric. Value is taken from the least of the
// rounds (see least); Trials holds what each round read as a whole, and
// Median, Q1 and Q3 describe those.
type metricValue struct {
	Value  float64   `json:"value"`
	Unit   string    `json:"unit"`
	Trials []float64 `json:"trials,omitempty"`
	Median float64   `json:"median,omitempty"`
	Q1     float64   `json:"q1,omitempty"`
	Q3     float64   `json:"q3,omitempty"`
}

// latencySummary is the per-question view of one list in the last round.
type latencySummary struct {
	N        int     `json:"n"`
	MedianUS float64 `json:"median_us"`
	P95US    float64 `json:"p95_us"`
}

// runRecord is everything one workload run reports; -out files hold a list
// of them and -compare reads those.
type runRecord struct {
	Schema       string                    `json:"schema"`
	Workload     string                    `json:"workload"`
	Seed         int64                     `json:"seed"`
	Scale        string                    `json:"scale"`
	Commit       string                    `json:"commit"`
	NProc        int                       `json:"nproc"`
	GOMAXPROCS   int                       `json:"gomaxprocs"`
	GoVersion    string                    `json:"go_version"`
	Rounds       int                       `json:"rounds"`
	ScriptHash   string                    `json:"script_hash"`
	Records      int                       `json:"records"`
	OpsAttempted int                       `json:"ops_attempted"`
	OpsFailed    int                       `json:"ops_failed"`
	Failures     []string                  `json:"failures,omitempty"`
	Metrics      map[string]metricValue    `json:"metrics"`
	Layers       map[string]metricValue    `json:"layers,omitempty"`
	QueryLatency map[string]latencySummary `json:"query_latency"`
}

// minRounds is the fewest timed rounds a clock-bounded run makes.
const minRounds = 6

// runWorkload generates, warms up, runs the timed rounds and, when asked,
// the traced round.
func runWorkload(o options) (*runRecord, error) {
	base, ok := specByName(o.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	s, err := base.scaled(o.scale)
	if err != nil {
		return nil, err
	}
	w := gen(s, o.seed)
	rn := newRunner(w)

	// Round 0 touches fresh heap and cold code paths and carries the
	// expensive oracle checks; its times are discarded.
	if _, err := rn.round(true); err != nil {
		return nil, fmt.Errorf("warm-up round: %w", err)
	}
	var trials []trial
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	if o.trace {
		// A traced run spends the second half of its budget on the traced
		// round; the timed rounds give the demoted run metrics and anchor
		// trace.overhead_pct.
		deadline = time.Now().Add(time.Duration(o.seconds / 2 * float64(time.Second)))
	}
	for {
		if o.rounds > 0 && len(trials) >= o.rounds {
			break
		}
		if o.rounds <= 0 && len(trials) >= minRounds && time.Now().After(deadline) {
			break
		}
		t, err := rn.round(false)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", len(trials)+1, err)
		}
		trials = append(trials, t)
	}

	last := &trials[len(trials)-1]
	rec := &runRecord{
		Schema: schema, Workload: s.name, Seed: o.seed, Scale: o.scale, Commit: o.commit,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Rounds: len(trials), ScriptHash: w.hash, Records: w.records,
		Metrics: measured(w, trials),
		QueryLatency: map[string]latencySummary{
			"select":  summarize(last.sel),
			"agg":     summarize(last.agg),
			"lineage": summarize(last.lineage),
		},
	}
	if o.trace {
		layers, err := rn.traced(o, trials)
		if err != nil {
			return nil, fmt.Errorf("traced round: %w", err)
		}
		rec.Layers = layers
	}
	rec.OpsAttempted, rec.OpsFailed, rec.Failures = rn.orc.attempted, rn.orc.failed, rn.orc.failures
	return rec, nil
}

// summarize is the per-question view of one pass, took in seconds.
func summarize(took []float64) latencySummary {
	return latencySummary{N: len(took), MedianUS: median(took) * 1e6, P95US: percentile(took, 0.95) * 1e6}
}

// metricOf computes every declared metric from one trial's measurements.
func metricOf(w *workload) map[string]func(t *trial) float64 {
	recs := float64(w.records)
	return map[string]func(t *trial) float64{
		"setup_s":                 func(t *trial) float64 { return t.gen + t.trackWall() + t.pack },
		"track_records_per_s":     func(t *trial) float64 { return recs / t.trackWall() },
		"track_allocs_per_record": func(t *trial) float64 { return float64(t.mallocs) / recs },
		"store_bytes_per_record":  func(t *trial) float64 { return float64(t.storeBytes) / recs },
		"pack_mb_per_s":           func(t *trial) float64 { return float64(t.storeBytes) / 1e6 / t.pack },
		"verify_mb_per_s":         func(t *trial) float64 { return float64(t.packedBytes) / 1e6 / t.verify },
		"first_answer_ms":         func(t *trial) float64 { return mean(t.first) * 1e3 },
		"q_select_ms":             func(t *trial) float64 { return mean(t.sel) * 1e3 },
		"q_agg_ms":                func(t *trial) float64 { return mean(t.agg) * 1e3 },
		"lineage_khop_ms":         func(t *trial) float64 { return mean(t.lineage) * 1e3 },
		"live_heap_mb":            func(t *trial) float64 { return t.heapMB },
	}
}

// measured turns the rounds' trials into the declared metrics. The reported
// value comes from the least of the rounds; what each round read as a whole
// is kept beside it for the record.
func measured(w *workload, trials []trial) map[string]metricValue {
	value := metricOf(w)
	lo := least(trials)
	out := make(map[string]metricValue, len(runMetrics))
	for _, m := range runMetrics {
		vals := make([]float64, len(trials))
		for i := range trials {
			vals[i] = value[m.name](&trials[i])
		}
		q1, q3 := quartiles(vals)
		out[m.name] = metricValue{Value: value[m.name](&lo), Unit: m.unit, Trials: vals, Median: median(vals), Q1: q1, Q3: q3}
	}
	return out
}

// printReport writes the human-readable table.
func printReport(w io.Writer, rec *runRecord) {
	fmt.Fprintf(w, "workload %s  seed %d  scale %s  rounds %d  records %d  script %s\n",
		rec.Workload, rec.Seed, rec.Scale, rec.Rounds, rec.Records, rec.ScriptHash)
	fmt.Fprintf(w, "env: commit %s  nproc %d  GOMAXPROCS %d  %s\n", rec.Commit, rec.NProc, rec.GOMAXPROCS, rec.GoVersion)
	fmt.Fprintf(w, "%-26s %14s %-6s %14s %14s %14s  (median and quartiles of the rounds)\n", "metric", "value", "unit", "median", "q1", "q3")
	for _, m := range runMetrics {
		v := rec.Metrics[m.name]
		note := ""
		if m.demoted {
			note = "  per-layer"
		}
		fmt.Fprintf(w, "%-26s %14.4f %-6s %14.4f %14.4f %14.4f%s\n", m.name, v.Value, v.Unit, v.Median, v.Q1, v.Q3, note)
	}
	for _, k := range []string{"select", "agg", "lineage"} {
		l := rec.QueryLatency[k]
		fmt.Fprintf(w, "per-query %-8s n=%-6d median %.1f us  p95 %.1f us\n", k, l.N, l.MedianUS, l.P95US)
	}
	if rec.Layers != nil {
		fmt.Fprintln(w, "per-layer (traced round):")
		for _, name := range layerNames {
			v := rec.Layers[name]
			fmt.Fprintf(w, "  %-34s %16.4f %s\n", name, v.Value, v.Unit)
		}
	}
	fmt.Fprintf(w, "ops_attempted %d  ops_failed %d\n", rec.OpsAttempted, rec.OpsFailed)
	for _, f := range rec.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
}

// driverLine is the one-line JSON object the benchmark contract wants last
// on standard output: end-to-end metrics untraced, per-layer metrics (the
// demoted ones among them) traced.
func driverLine(rec *runRecord, traced bool) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]mv)
	for _, m := range runMetrics {
		if m.demoted == traced {
			metrics[m.name] = mv{rec.Metrics[m.name].Value, m.unit}
		}
	}
	if traced {
		for k, v := range rec.Layers {
			metrics[k] = mv{v.Value, v.Unit}
		}
	}
	line, _ := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{rec.OpsFailed == 0, rec.OpsAttempted, rec.OpsFailed, metrics})
	return string(line)
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "all", "workload name, or all: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", 1, "generator seed")
	fs.Float64Var(&o.seconds, "seconds", 24, "how long the timed rounds run (at least 6 rounds)")
	fs.IntVar(&o.rounds, "rounds", 0, "fix the number of timed rounds instead of running by the clock")
	fs.StringVar(&o.scale, "scale", "std", "std | smoke")
	traceN := fs.Int("trace", 0, "1 adds the traced round and reports the per-layer metrics")
	fs.StringVar(&o.spans, "spans", "", "write the traced round's spans to this JSON file")
	fs.StringVar(&o.tmp, "tmp", ".bench_build", "scratch directory for the traced run's dir: backend repeat")
	fs.StringVar(&o.commit, "commit", "unknown", "commit id to record in the result")
	out := fs.String("out", "", "append the run records to this JSON file (what -compare reads)")
	compare := fs.Bool("compare", false, "compare two result files: -compare old.json new.json")
	selfcheck := fs.Int("selfcheck", 0, "run the suite N times back to back and report run-to-run spread")
	noiseOut := fs.String("noise-out", "", "with -selfcheck: also write the spread table to this markdown file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = *traceN != 0
	// The sandbox has two cores; pinning keeps a bigger host comparable.
	runtime.GOMAXPROCS(2)

	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: perf -compare old.json new.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}

	names := []string{o.workload}
	if o.workload == "all" {
		names = workloadNames()
	}
	repeats := 1
	if *selfcheck > 0 {
		repeats = *selfcheck
	}
	var recs []*runRecord
	failed := false
	for i := 0; i < repeats; i++ {
		for _, name := range names {
			ro := o
			ro.workload = name
			rec, err := runWorkload(ro)
			if err != nil {
				fmt.Fprintf(stderr, "perf: %s: %v\n", name, err)
				return 1
			}
			recs = append(recs, rec)
			printReport(stdout, rec)
			failed = failed || rec.OpsFailed > 0
		}
	}
	if *out != "" {
		if err := appendRecords(*out, recs); err != nil {
			fmt.Fprintf(stderr, "perf: %v\n", err)
			return 1
		}
	}
	if *selfcheck > 0 {
		table, ok := noiseTable(recs)
		fmt.Fprint(stdout, table)
		if *noiseOut != "" {
			if err := os.WriteFile(*noiseOut, []byte(table), 0o644); err != nil {
				fmt.Fprintf(stderr, "perf: %v\n", err)
				return 1
			}
		}
		failed = failed || !ok
	}
	// The contract's result line: the last workload run, last on stdout.
	fmt.Fprintln(stdout, driverLine(recs[len(recs)-1], o.trace))
	if failed {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.name
	}
	return names
}
