package provlake

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"testing"

	"github.com/hpc-io/prov-io/internal/simclock"
	"github.com/hpc-io/prov-io/internal/vfs"
)

func newWF(t *testing.T, clock *simclock.Clock) (*Workflow, *vfs.View) {
	t.Helper()
	view := vfs.NewStore().NewView()
	wf := NewWorkflow(view, "/prov.jsonl", "topreco", clock, DefaultCost())
	return wf, view
}

func TestTaskLifecycleRoundTrip(t *testing.T) {
	wf, view := newWF(t, nil)
	wf.SetContext("learning_rate", "0.01")
	wf.SetContext("batch_size", "64")

	task := wf.StartTask("training", map[string]any{"epochs": 3})
	for e := 0; e < 3; e++ {
		task.Point(map[string]any{"epoch": e, "accuracy": 0.8 + float64(e)*0.05})
	}
	task.End(map[string]any{"final_accuracy": 0.9})
	if err := wf.Close(); err != nil {
		t.Fatal(err)
	}

	recs, err := load(view, "/prov.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 { // begin + 3 points + end
		t.Fatalf("records = %d, want 5", len(recs))
	}
	sortRecords(recs)
	for _, r := range recs {
		if r.Workflow != "topreco" {
			t.Errorf("workflow = %q", r.Workflow)
		}
		if len(r.WorkflowCtx) != 2 {
			t.Errorf("record lacks embedded context: %v", r.WorkflowCtx)
		}
	}
	accs := queryAccuracies(recs)
	if len(accs) != 3 || accs[2] != 0.9 {
		t.Errorf("accuracies = %v", accs)
	}
}

func TestEveryRecordEmbedsFullContext(t *testing.T) {
	// The process-oriented design re-serializes workflow context per
	// record — the storage disadvantage Figure 8(d-f) measures.
	wf, _ := newWF(t, nil)
	for i := 0; i < 40; i++ {
		wf.SetContext(fmt.Sprintf("cfg%02d", i), "value")
	}
	task := wf.StartTask("t", nil)
	_, before := wf.Stats()
	task.Point(map[string]any{"epoch": 0, "accuracy": 0.5})
	_, after := wf.Stats()
	perRecord := after - before
	if perRecord < 40*10 { // at least ~10 bytes per embedded field
		t.Errorf("record size %d too small to embed 40 context fields", perRecord)
	}
}

func TestStorageGrowsWithContextSize(t *testing.T) {
	sizes := map[int]int64{}
	for _, n := range []int{20, 40, 80} {
		wf, _ := newWF(t, nil)
		for i := 0; i < n; i++ {
			wf.SetContext(fmt.Sprintf("cfg%02d", i), "v")
		}
		task := wf.StartTask("t", nil)
		for e := 0; e < 10; e++ {
			task.Point(map[string]any{"epoch": e, "accuracy": 0.5})
		}
		task.End(nil)
		wf.Close()
		_, b := wf.Stats()
		sizes[n] = b
	}
	if !(sizes[20] < sizes[40] && sizes[40] < sizes[80]) {
		t.Errorf("storage not increasing with configs: %v", sizes)
	}
}

func TestCostCharged(t *testing.T) {
	clock := simclock.NewClock()
	wf, _ := newWF(t, clock)
	wf.SetContext("k", "v")
	task := wf.StartTask("t", nil)
	if clock.Now() == 0 {
		t.Fatal("StartTask charged nothing")
	}
	before := clock.Now()
	task.Point(map[string]any{"epoch": 1, "accuracy": 0.7})
	if clock.Now() <= before {
		t.Error("Point charged nothing")
	}
}

func TestCostScalesWithRecordSize(t *testing.T) {
	small := recordCost(t, 1)
	big := recordCost(t, 80)
	if big <= small {
		t.Errorf("cost should grow with context size: %v vs %v", small, big)
	}
}

func recordCost(t *testing.T, nCtx int) int64 {
	t.Helper()
	clock := simclock.NewClock()
	wf, _ := newWF(t, clock)
	for i := 0; i < nCtx; i++ {
		wf.SetContext(fmt.Sprintf("cfg%03d", i), "value")
	}
	task := wf.StartTask("t", nil)
	before := clock.Now()
	task.Point(map[string]any{"epoch": 1, "accuracy": 0.7})
	return int64(clock.Now() - before)
}

func TestStorageBytesMatchesFile(t *testing.T) {
	wf, _ := newWF(t, nil)
	task := wf.StartTask("t", nil)
	task.End(nil)
	if err := wf.Close(); err != nil {
		t.Fatal(err)
	}
	onDisk, err := storageBytes(wf)
	if err != nil {
		t.Fatal(err)
	}
	_, tracked := wf.Stats()
	if onDisk != tracked {
		t.Errorf("storageBytes = %d, Stats bytes = %d", onDisk, tracked)
	}
}

func TestLoadRejectsCorrupt(t *testing.T) {
	view := vfs.NewStore().NewView()
	view.WriteFile("/bad.jsonl", []byte("{not json}\n"))
	if _, err := load(view, "/bad.jsonl"); err == nil {
		t.Error("corrupt file loaded without error")
	}
	if _, err := load(view, "/missing.jsonl"); err == nil {
		t.Error("missing file loaded without error")
	}
}

func TestTaskSequencing(t *testing.T) {
	wf, view := newWF(t, nil)
	t1 := wf.StartTask("a", nil)
	t2 := wf.StartTask("b", nil)
	t1.End(nil)
	t2.End(nil)
	wf.Close()
	recs, _ := load(view, "/prov.jsonl")
	seqs := map[string]int{}
	for _, r := range recs {
		if r.Kind == "task_begin" {
			seqs[r.Task] = r.TaskSeq
		}
	}
	if seqs["a"] == seqs["b"] || seqs["a"] == 0 || seqs["b"] == 0 {
		t.Errorf("task sequences = %v", seqs)
	}
}

// storageBytes returns the persisted size of w's document.
func storageBytes(w *Workflow) (int64, error) {
	info, err := w.view.Stat(w.path)
	if err != nil {
		return 0, err
	}
	return info.Size, nil
}

// load parses a persisted JSON-lines provenance file back into records.
func load(view *vfs.View, path string) ([]Record, error) {
	data, err := view.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []Record
	dec := json.NewDecoder(bytes.NewReader(data))
	for dec.More() {
		var r Record
		if err := dec.Decode(&r); err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// queryAccuracies extracts (version, accuracy) pairs from point records —
// the baseline's answer to the Top Reco provenance need, used to verify the
// two systems return equivalent information.
func queryAccuracies(recs []Record) map[int]float64 {
	out := map[int]float64{}
	for _, r := range recs {
		if r.Kind != "point" || r.Out == nil {
			continue
		}
		v, vok := toInt(r.Out["epoch"])
		a, aok := toFloat(r.Out["accuracy"])
		if vok && aok {
			out[v] = a
		}
	}
	return out
}

func toInt(v any) (int, bool) {
	switch x := v.(type) {
	case int:
		return x, true
	case float64:
		return int(x), true
	default:
		return 0, false
	}
}

func toFloat(v any) (float64, bool) {
	switch x := v.(type) {
	case float64:
		return x, true
	case int:
		return float64(x), true
	default:
		return 0, false
	}
}

// sortRecords orders records by task sequence then kind, for deterministic
// assertions.
func sortRecords(recs []Record) {
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].TaskSeq != recs[j].TaskSeq {
			return recs[i].TaskSeq < recs[j].TaskSeq
		}
		return recs[i].Kind < recs[j].Kind
	})
}
