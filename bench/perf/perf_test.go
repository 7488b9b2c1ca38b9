package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// smoke runs one workload at the smoke scale: the warm-up round and one
// timed round.
func smoke(t *testing.T, workload string, seed int64, trace bool) *runRecord {
	t.Helper()
	dir := t.TempDir()
	rec, err := runWorkload(options{
		workload: workload, seed: seed, scale: "smoke", rounds: 1, trace: trace,
		tmp: dir, spans: filepath.Join(dir, "spans.json"), commit: "test",
	})
	if err != nil {
		t.Fatalf("%s seed %d: %v", workload, seed, err)
	}
	if rec.OpsFailed != 0 {
		t.Fatalf("%s seed %d: %d of %d operations failed: %v", workload, seed, rec.OpsFailed, rec.OpsAttempted, rec.Failures)
	}
	return rec
}

func keys(m map[string]metricValue) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sortedCopy(s []string) []string {
	out := append([]string(nil), s...)
	sort.Strings(out)
	return out
}

// benchmarkJSON is the contract file at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func better(lower bool) string {
	if lower {
		return "lower"
	}
	return "higher"
}

// TestBenchmarkJSONMatchesHarness holds BENCHMARK.json to the harness: the
// same workloads with the same reasons, and the same metrics with the same
// units, directions and bounds.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if strings.Join(bj.Paths, ",") != "bench/perf" || strings.Join(bj.Command, " ") != "bash bench/perf/run.sh" ||
		bj.RunSeconds < 1 || bj.RunSeconds > 60 {
		t.Errorf("command %v, paths %v, run_seconds %d", bj.Command, bj.Paths, bj.RunSeconds)
	}
	if len(bj.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json has %d workloads, harness %d", len(bj.Workloads), len(specs))
	}
	for i, s := range specs {
		if bj.Workloads[i].Name != s.name || bj.Workloads[i].Why != s.why {
			t.Errorf("workload %d: BENCHMARK.json %q/%q, harness %q/%q", i, bj.Workloads[i].Name, bj.Workloads[i].Why, s.name, s.why)
		}
	}
	// The demoted run metrics lead the per-layer list.
	var e2e []metricDef
	var layers []layerDef
	for _, m := range runMetrics {
		if m.demoted {
			layers = append(layers, layerDef{m.name, m.unit, m.lower})
		} else {
			e2e = append(e2e, m)
		}
	}
	layers = append(layers, layerDefs...)
	if len(bj.EndToEnd) != len(e2e) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, harness %d", len(bj.EndToEnd), len(e2e))
	}
	for i, m := range e2e {
		got := bj.EndToEnd[i]
		if got.Name != m.name || got.Unit != m.unit || got.Better != better(m.lower) || got.Bound != m.bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, harness %+v", i, got, m)
		}
	}
	if len(bj.PerLayer) != len(layers) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, harness %d", len(bj.PerLayer), len(layers))
	}
	for i, d := range layers {
		got := bj.PerLayer[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != better(d.lower) {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, harness %+v", i, got, d)
		}
	}
}

// TestEveryWorkloadEmitsDeclaredMetrics runs each workload with the traced
// round: exactly the declared names, every value finite, no end-to-end value
// zero, and the cache counters where the issue says they must be.
func TestEveryWorkloadEmitsDeclaredMetrics(t *testing.T) {
	wantRun := make([]string, len(runMetrics))
	for i, m := range runMetrics {
		wantRun[i] = m.name
	}
	sort.Strings(wantRun)
	wantLayers := sortedCopy(layerNames)
	for _, s := range specs {
		t.Run(s.name, func(t *testing.T) {
			rec := smoke(t, s.name, 1, true)
			if got := keys(rec.Metrics); strings.Join(got, ",") != strings.Join(wantRun, ",") {
				t.Errorf("run metrics %v, want %v", got, wantRun)
			}
			if got := keys(rec.Layers); strings.Join(got, ",") != strings.Join(wantLayers, ",") {
				t.Errorf("per-layer metrics %v, want %v", got, wantLayers)
			}
			for name, v := range rec.Metrics {
				if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Value <= 0 {
					t.Errorf("%s = %v", name, v.Value)
				}
			}
			for name, v := range rec.Layers {
				if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s = %v", name, v.Value)
				}
			}
			layer := func(name string) float64 { return rec.Layers[name].Value }
			if s.side == outOfCore {
				if layer("cache.evictions") <= 0 || layer("prune.units_skipped_ratio") <= 0.5 {
					t.Errorf("out of core: evictions %v, skipped ratio %v", layer("cache.evictions"), layer("prune.units_skipped_ratio"))
				}
				if layer("cache.peak_bytes") > layer("cache.budget_bytes") {
					t.Errorf("cache peaked at %v over budget %v", layer("cache.peak_bytes"), layer("cache.budget_bytes"))
				}
			} else if layer("cache.misses") != 0 {
				t.Errorf("cache.misses = %v on a workload that bypasses the cache", layer("cache.misses"))
			}
			if s.side != outOfCore && layer("sparql.result_cache_hit_ratio") != 1 {
				t.Errorf("result cache hit ratio %v on the repeat pass", layer("sparql.result_cache_hit_ratio"))
			}
		})
	}
}

// TestSeedDeterminism: the same seed gives the same script and the same
// bytes; another seed gives another script that still passes the oracle.
func TestSeedDeterminism(t *testing.T) {
	for _, s := range specs {
		a, b, c := smoke(t, s.name, 7, false), smoke(t, s.name, 7, false), smoke(t, s.name, 8, false)
		if a.ScriptHash != b.ScriptHash {
			t.Errorf("%s: seed 7 hashed %s then %s", s.name, a.ScriptHash, b.ScriptHash)
		}
		if x, y := a.Metrics["store_bytes_per_record"].Value, b.Metrics["store_bytes_per_record"].Value; x != y {
			t.Errorf("%s: seed 7 stored %v then %v bytes per record", s.name, x, y)
		}
		if a.ScriptHash == c.ScriptHash {
			t.Errorf("%s: seeds 7 and 8 share script %s", s.name, a.ScriptHash)
		}
	}
}

func writeRecords(t *testing.T, recs ...*runRecord) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "runs.json")
	if err := appendRecords(path, recs); err != nil {
		t.Fatal(err)
	}
	return path
}

// scaledCopy returns rec with one metric's value multiplied.
func scaledCopy(rec *runRecord, metric string, by float64) *runRecord {
	cp := *rec
	cp.Metrics = make(map[string]metricValue, len(rec.Metrics))
	for k, v := range rec.Metrics {
		cp.Metrics[k] = v
	}
	v := cp.Metrics[metric]
	v.Value *= by
	cp.Metrics[metric] = v
	return &cp
}

// steady zeroes the within-run spread, so -compare judges by value alone.
func steady(rec *runRecord) *runRecord {
	cp := scaledCopy(rec, "setup_s", 1)
	for k, v := range cp.Metrics {
		v.Q1, v.Q3, v.Median = v.Value, v.Value, v.Value
		cp.Metrics[k] = v
	}
	return cp
}

func TestCompare(t *testing.T) {
	base := steady(smoke(t, "dassa-resident", 1, false))
	run := func(old, cur string) (int, string) {
		var out, errOut bytes.Buffer
		code := compareFiles(old, cur, &out, &errOut)
		return code, out.String() + errOut.String()
	}

	same := writeRecords(t, base)
	if code, out := run(same, same); code != 0 || strings.Contains(out, "REGRESSION") {
		t.Errorf("identical inputs: exit %d\n%s", code, out)
	}

	// A latency 20% up and a throughput 20% down both regress (timing
	// bounds are 10%).
	for metric, by := range map[string]float64{"q_select_ms": 1.2, "verify_mb_per_s": 0.8} {
		worse := writeRecords(t, scaledCopy(base, metric, by))
		code, out := run(same, worse)
		if code != 1 || strings.Count(out, "REGRESSION") != 1 {
			t.Errorf("%s x%.1f: exit %d\n%s", metric, by, code, out)
		}
		// The same move in the good direction is an improvement.
		if code, out := run(worse, same); code != 0 || !strings.Contains(out, "improved") {
			t.Errorf("%s x%.1f reversed: exit %d\n%s", metric, by, code, out)
		}
	}

	// Runs that disagree among themselves by more than the bound leave a
	// 20% move unresolved rather than calling it either way.
	noisyOld := writeRecords(t, base, scaledCopy(base, "q_select_ms", 1.3))
	noisyNew := writeRecords(t, scaledCopy(base, "q_select_ms", 1.2), scaledCopy(base, "q_select_ms", 1.56))
	if code, out := run(noisyOld, noisyNew); code != 0 || !strings.Contains(out, "unresolved") {
		t.Errorf("noisy inputs: exit %d\n%s", code, out)
	}
}

// TestDriverContract drives the command line the way the benchmark's driver
// does and checks the last line of standard output.
func TestDriverContract(t *testing.T) {
	for _, trace := range []string{"0", "1"} {
		dir := t.TempDir()
		var out, errOut bytes.Buffer
		code := realMain([]string{"--workload", "dassa-live", "--seed", "3", "--seconds", "0", "--trace", trace,
			"-scale", "smoke", "-rounds", "1", "-tmp", dir}, &out, &errOut)
		if code != 0 {
			t.Fatalf("trace %s: exit %d: %s", trace, code, errOut.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res struct {
			Correct   *bool `json:"correct"`
			Attempted *int  `json:"attempted"`
			Failed    *int  `json:"failed"`
			Metrics   map[string]struct {
				Value *float64 `json:"value"`
				Unit  *string  `json:"unit"`
			} `json:"metrics"`
		}
		dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&res); err != nil {
			t.Fatalf("trace %s: last line is not the result object: %v\n%s", trace, err, lines[len(lines)-1])
		}
		if res.Correct == nil || !*res.Correct || res.Attempted == nil || *res.Attempted < 1 || res.Failed == nil || *res.Failed != 0 {
			t.Errorf("trace %s: result %s", trace, lines[len(lines)-1])
		}
		demoted := 0
		for _, m := range runMetrics {
			if m.demoted {
				demoted++
			}
		}
		want := len(runMetrics) - demoted
		if trace == "1" {
			want = demoted + len(layerDefs)
			if _, err := os.Stat(filepath.Join(dir, "spans-dassa-live.json")); err != nil {
				t.Errorf("traced run left no span file: %v", err)
			}
		}
		if len(res.Metrics) != want {
			t.Errorf("trace %s: %d metrics on the result line, want %d", trace, len(res.Metrics), want)
		}
		for name, m := range res.Metrics {
			if m.Value == nil || m.Unit == nil {
				t.Errorf("trace %s: metric %s lacks value or unit", trace, name)
			}
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(v, n=4),
// which is what the driver takes the spread with.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v; want 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{1, 2, 4, 8})
	if q1 != 1.25 || q3 != 7 {
		t.Errorf("quartiles of 1,2,4,8 = %v, %v; want 1.25, 7", q1, q3)
	}
}
