package topreco

import (
	"io"
	"math/rand"
	"strings"
	"testing"
	"time"

	"github.com/hpc-io/prov-io/internal/core"
	"github.com/hpc-io/prov-io/internal/model"
	"github.com/hpc-io/prov-io/internal/posixio"
	"github.com/hpc-io/prov-io/internal/sparql"
	"github.com/hpc-io/prov-io/internal/vfs"
)

func plainFS(t *testing.T) *posixio.FS {
	t.Helper()
	view := vfs.NewStore().NewView()
	tr := core.NewTracker(core.DefaultConfig().DisableAll(), nil, 0)
	return posixio.Wrap(view, tr, posixio.Agent{}, posixio.Options{Disabled: true})
}

func TestINIRoundTrip(t *testing.T) {
	doc := `
# GNN configuration
top_level = yes

[model]
learning_rate = 0.05
batch_size = 128
; another comment

[data]
preselection = 0.7
`
	ini, err := parseINI(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := ini.Get("model", "learning_rate"); v != "0.05" {
		t.Errorf("learning_rate = %q", v)
	}
	if v, _ := ini.Get("", "top_level"); v != "yes" {
		t.Errorf("top_level = %q", v)
	}
	if ini.Len() != 4 {
		t.Errorf("Len = %d", ini.Len())
	}
	var sb strings.Builder
	if err := writeINI(&sb, ini); err != nil {
		t.Fatal(err)
	}
	again, err := parseINI(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if again.Len() != ini.Len() {
		t.Errorf("round trip changed key count")
	}
	flat := ini.Flatten()
	if len(flat) != 4 || flat[0][0] != "top_level" {
		t.Errorf("Flatten = %v", flat)
	}
}

func TestINIErrors(t *testing.T) {
	cases := []string{"[unterminated", "[]", "no equals", "= novalue"}
	for _, doc := range cases {
		if _, err := parseINI(strings.NewReader(doc)); err == nil {
			t.Errorf("parseINI(%q) succeeded", doc)
		}
	}
}

func TestTFRecordRoundTrip(t *testing.T) {
	fs := plainFS(t)
	w, err := newTFRecordWriter(fs, "/data.tfrecord")
	if err != nil {
		t.Fatal(err)
	}
	payloads := [][]byte{[]byte("first"), {}, []byte("a longer third record with bytes \x00\x01\x02")}
	for _, p := range payloads {
		if err := w.Write(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := newTFRecordReader(fs, "/data.tfrecord")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i, want := range payloads {
		got, err := r.Next()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if string(got) != string(want) {
			t.Errorf("record %d = %q, want %q", i, got, want)
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Errorf("expected EOF, got %v", err)
	}
}

func TestTFRecordDetectsCorruption(t *testing.T) {
	view := vfs.NewStore().NewView()
	tr := core.NewTracker(core.DefaultConfig().DisableAll(), nil, 0)
	fs := posixio.Wrap(view, tr, posixio.Agent{}, posixio.Options{Disabled: true})
	w, _ := newTFRecordWriter(fs, "/d.tfrecord")
	w.Write([]byte("payload data here"))
	w.Close()
	// Flip a payload byte.
	raw, _ := view.ReadFile("/d.tfrecord")
	raw[14] ^= 0xFF
	view.WriteFile("/d.tfrecord", raw)
	r, _ := newTFRecordReader(fs, "/d.tfrecord")
	defer r.Close()
	if _, err := r.Next(); err == nil {
		t.Error("corrupt record accepted")
	}
}

func TestTFRecordMaskedCRCKnownValue(t *testing.T) {
	// TensorFlow's masked CRC of an empty buffer is a fixed constant.
	if got := maskedCRC(nil); got != maskedCRC([]byte{}) {
		t.Error("nil and empty differ")
	}
	a, b := maskedCRC([]byte("abc")), maskedCRC([]byte("abd"))
	if a == b {
		t.Error("mask destroyed CRC discrimination")
	}
}

func TestGenerateEventsDeterministic(t *testing.T) {
	a := GenerateEvents(7, 100, 0.5)
	b := GenerateEvents(7, 100, 0.5)
	if len(a) != 100 || len(b) != 100 {
		t.Fatal("wrong event count")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("generation not deterministic")
		}
	}
	c := GenerateEvents(8, 100, 0.5)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical events")
	}
}

func TestPreselectionImprovesSeparability(t *testing.T) {
	// Train identical models on loose vs tight preselection; the tighter
	// cut must reach higher accuracy (the effect scientists study).
	trainAcc := func(presel float64) float64 {
		train := GenerateEvents(3, 1500, presel)
		test := GenerateEvents(4, 400, presel)
		var m Model
		rng := rand.New(rand.NewSource(5))
		for e := 0; e < 12; e++ {
			m.TrainEpoch(train, 0.1, 64, rng)
		}
		return m.Evaluate(test)
	}
	loose := trainAcc(0.1)
	tight := trainAcc(2.0)
	if tight <= loose {
		t.Errorf("tight preselection acc %.3f <= loose %.3f", tight, loose)
	}
}

func TestTrainingImprovesAccuracy(t *testing.T) {
	train := GenerateEvents(3, 1500, 0.5)
	test := GenerateEvents(4, 400, 0.5)
	var m Model
	rng := rand.New(rand.NewSource(5))
	first := m.Evaluate(test)
	for e := 0; e < 15; e++ {
		m.TrainEpoch(train, 0.1, 64, rng)
	}
	last := m.Evaluate(test)
	if last <= first {
		t.Errorf("training did not improve accuracy: %.3f -> %.3f", first, last)
	}
	if last < 0.6 {
		t.Errorf("final accuracy %.3f implausibly low", last)
	}
}

func TestEventEncodeDecode(t *testing.T) {
	e := Event{Features: [6]float32{1, -2, 3.5, 0, -0.25, 100}, Label: true}
	got, err := decodeEvent(e.encode())
	if err != nil {
		t.Fatal(err)
	}
	if got != e {
		t.Errorf("round trip: %+v != %+v", got, e)
	}
	if _, err := decodeEvent([]byte{1, 2, 3}); err == nil {
		t.Error("short payload accepted")
	}
}

func TestReconstructPicksMaxima(t *testing.T) {
	scores := []float64{0.1, 0.9, 0.2, 0.4, 0.3, 0.8}
	picks := Reconstruct(scores, 3)
	if len(picks) != 2 || picks[0] != 1 || picks[1] != 5 {
		t.Errorf("picks = %v", picks)
	}
	if got := Reconstruct(nil, 4); len(got) != 0 {
		t.Errorf("empty scores gave %v", got)
	}
}

func fastRun(i Instrument, epochs int) Config {
	return Config{
		Epochs: epochs, Events: 400, EpochTime: 30 * time.Second,
		Instrument: i, Version: 1,
	}
}

func TestRunBaseline(t *testing.T) {
	res, err := Run(fastRun(InstrumentNone, 5))
	if err != nil {
		t.Fatal(err)
	}
	if res.ProvBytes != 0 || res.Records != 0 {
		t.Error("baseline produced provenance")
	}
	if len(res.AccuracyByEpoch) != 5 {
		t.Errorf("epochs recorded = %d", len(res.AccuracyByEpoch))
	}
	if res.Completion < 5*30*time.Second {
		t.Errorf("completion %v below compute floor", res.Completion)
	}
	if res.Reconstructed == 0 {
		t.Error("no reconstruction output")
	}
}

func TestRunProvIOTracksConfigToAccuracyMapping(t *testing.T) {
	res, err := Run(fastRun(InstrumentProvIO, 4))
	if err != nil {
		t.Fatal(err)
	}
	if res.ProvBytes == 0 {
		t.Fatal("no provenance stored")
	}
	g, err := res.Store.Merge()
	if err != nil {
		t.Fatal(err)
	}
	// Table 5's Top Reco query: configurations with versions and accuracy.
	q := `SELECT ?version ?accuracy WHERE {
		?configuration provio:Version ?version ;
		               provio:hasAccuracy ?accuracy .
	}`
	r, _, err := sparql.ExecParallelInfo(g, q, model.Namespaces(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Errorf("config-accuracy rows = %d, want 4 (one per epoch): %v", len(r.Rows), r.Rows)
	}
	// The recorded hyperparameters are present.
	q2 := `SELECT ?c WHERE { ?c provio:name "model.learning_rate" . }`
	r2, _, err := sparql.ExecParallelInfo(g, q2, model.Namespaces(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r2.Rows) != 1 {
		t.Errorf("learning_rate config rows = %d", len(r2.Rows))
	}
}

func TestRunProvLake(t *testing.T) {
	res, err := Run(fastRun(InstrumentProvLake, 4))
	if err != nil {
		t.Fatal(err)
	}
	if res.ProvBytes == 0 || res.Records == 0 {
		t.Errorf("no ProvLake provenance: %+v", res)
	}
}

func TestInstrumentedRunsMatchBaselineAccuracy(t *testing.T) {
	// Instrumentation must not perturb the science.
	base, _ := Run(fastRun(InstrumentNone, 4))
	pio, _ := Run(fastRun(InstrumentProvIO, 4))
	lake, _ := Run(fastRun(InstrumentProvLake, 4))
	if base.FinalAccuracy != pio.FinalAccuracy || base.FinalAccuracy != lake.FinalAccuracy {
		t.Errorf("accuracies diverge: base=%.4f provio=%.4f provlake=%.4f",
			base.FinalAccuracy, pio.FinalAccuracy, lake.FinalAccuracy)
	}
}

func TestOverheadTinyAndDecreasingWithEpochs(t *testing.T) {
	overheadAt := func(epochs int) float64 {
		base, err := Run(fastRun(InstrumentNone, epochs))
		if err != nil {
			t.Fatal(err)
		}
		pio, err := Run(fastRun(InstrumentProvIO, epochs))
		if err != nil {
			t.Fatal(err)
		}
		return float64(pio.Completion-base.Completion) / float64(base.Completion)
	}
	small := overheadAt(5)
	large := overheadAt(40)
	if small <= 0 {
		t.Error("tracking was free")
	}
	if small > 0.01 {
		t.Errorf("overhead %.4f%% too large for Top Reco", small*100)
	}
	if large >= small {
		t.Errorf("overhead should decrease with epochs: %.5f%% -> %.5f%%", small*100, large*100)
	}
}

func TestProvIOStoresLessThanProvLake(t *testing.T) {
	// Figure 8(d-f): PROV-IO always stores fewer bytes. The paper's runs
	// train for many epochs, which is where ProvLake's per-record context
	// embedding accumulates.
	for _, extra := range []int{20, 40, 80} {
		cfgP := fastRun(InstrumentProvIO, 60)
		cfgP.ExtraConfigs = extra
		cfgL := fastRun(InstrumentProvLake, 60)
		cfgL.ExtraConfigs = extra
		p, err := Run(cfgP)
		if err != nil {
			t.Fatal(err)
		}
		l, err := Run(cfgL)
		if err != nil {
			t.Fatal(err)
		}
		if p.ProvBytes >= l.ProvBytes {
			t.Errorf("configs=%d: PROV-IO %d >= ProvLake %d bytes", extra, p.ProvBytes, l.ProvBytes)
		}
	}
}

func TestStorageScalesLinearlyWithEpochs(t *testing.T) {
	// Figure 7(a): provenance size linear in epochs.
	sizeAt := func(epochs int) int64 {
		cfg := fastRun(InstrumentProvIO, epochs)
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.ProvBytes
	}
	s10, s20, s40 := sizeAt(10), sizeAt(20), sizeAt(40)
	d1, d2 := s20-s10, s40-s20
	if d1 <= 0 || d2 <= 0 {
		t.Fatalf("sizes not increasing: %d %d %d", s10, s20, s40)
	}
	ratio := float64(d2) / float64(d1*2)
	if ratio < 0.7 || ratio > 1.3 {
		t.Errorf("growth not linear: deltas %d, %d (ratio %.2f)", d1, d2, ratio)
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.Epochs <= 0 || cfg.Events <= 0 || cfg.LearningRate == 0 || cfg.Seed == 0 {
		t.Errorf("defaults = %+v", cfg)
	}
	if InstrumentProvIO.String() != "prov-io" || Instrument(9).String() != "unknown" {
		t.Error("instrument names wrong")
	}
}
