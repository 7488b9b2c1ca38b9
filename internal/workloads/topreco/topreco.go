package topreco

import (
	"fmt"
	"io"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"github.com/hpc-io/prov-io/internal/core"
	"github.com/hpc-io/prov-io/internal/posixio"
	"github.com/hpc-io/prov-io/internal/provlake"
	"github.com/hpc-io/prov-io/internal/rdf"
	"github.com/hpc-io/prov-io/internal/rdf/segcodec"
	"github.com/hpc-io/prov-io/internal/simclock"
	"github.com/hpc-io/prov-io/internal/vfs"
)

// Instrument selects the provenance system instrumenting the training loop.
type Instrument int

// Instrumentation modes.
const (
	InstrumentNone Instrument = iota
	InstrumentProvIO
	InstrumentProvLake
)

// String names the mode.
func (i Instrument) String() string {
	switch i {
	case InstrumentNone:
		return "baseline"
	case InstrumentProvIO:
		return "prov-io"
	case InstrumentProvLake:
		return "provlake"
	default:
		return "unknown"
	}
}

// Config parameterizes one Top Reco run.
type Config struct {
	Epochs int
	// Events is the training-set size; a quarter as many test events.
	Events int
	// ExtraConfigs pads the configuration with synthetic fields so the
	// Figure 8 sweep can track 20/40/80 configuration entries.
	ExtraConfigs int
	// EpochTime is the modeled wall time of one training epoch (the GNN
	// trains for minutes per epoch on the paper's testbed).
	EpochTime time.Duration
	// Version is the configuration version recorded with this run.
	Version    int
	Instrument Instrument
	Cost       simclock.CostModel
	User       string
	// LearningRate / BatchSize / Preselection override the defaults
	// written into the generated config file.
	LearningRate float64
	BatchSize    int
	Preselection float64
	Seed         int64
}

func (c Config) withDefaults() Config {
	if c.Epochs <= 0 {
		c.Epochs = 10
	}
	if c.Events <= 0 {
		c.Events = 2000
	}
	if c.EpochTime == 0 {
		c.EpochTime = 30 * time.Second
	}
	if c.Cost == (simclock.CostModel{}) {
		c.Cost = simclock.Default()
	}
	if c.User == "" {
		c.User = "physicist"
	}
	if c.LearningRate == 0 {
		c.LearningRate = 0.1
	}
	if c.BatchSize == 0 {
		c.BatchSize = 64
	}
	if c.Preselection == 0 {
		c.Preselection = 0.5
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Result summarizes one run.
type Result struct {
	Completion    time.Duration
	ProvBytes     int64
	Records       int64
	FinalAccuracy float64
	// AccuracyByEpoch is the per-epoch test accuracy.
	AccuracyByEpoch []float64
	// Store is the PROV-IO store (nil unless InstrumentProvIO).
	Store *core.Store
	// Reconstructed is the number of top-quark candidates picked.
	Reconstructed int
}

// writeConfigINI materializes the run's .ini configuration file.
func writeConfigINI(w io.Writer, cfg Config) error {
	ini := newINI()
	ini.Set("model", "learning_rate", fmt.Sprintf("%g", cfg.LearningRate))
	ini.Set("model", "batch_size", strconv.Itoa(cfg.BatchSize))
	ini.Set("model", "epochs", strconv.Itoa(cfg.Epochs))
	ini.Set("model", "hidden_dim", "64")
	ini.Set("model", "layers", "3")
	ini.Set("data", "preselection", fmt.Sprintf("%g", cfg.Preselection))
	ini.Set("data", "events", strconv.Itoa(cfg.Events))
	ini.Set("data", "seed", strconv.FormatInt(cfg.Seed, 10))
	for i := 0; i < cfg.ExtraConfigs; i++ {
		ini.Set("extra", fmt.Sprintf("param_%03d", i), fmt.Sprintf("value_%d", i))
	}
	return writeINI(w, ini)
}

// Run executes the workflow: config parse, dataset generation to TFRecord
// files, training with per-epoch provenance, and reconstruction.
func Run(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	fsStore := vfs.NewStore()
	view := fsStore.NewView()
	clock := simclock.NewClock()
	if err := view.MkdirAll("/topreco"); err != nil {
		return Result{}, err
	}

	// Stage the .ini configuration.
	var iniDoc strings.Builder
	if err := writeConfigINI(&iniDoc, cfg); err != nil {
		return Result{}, err
	}
	if err := view.WriteFile("/topreco/config.ini", []byte(iniDoc.String())); err != nil {
		return Result{}, err
	}

	// Provenance setup.
	var tracker *core.Tracker
	var provStore *core.Store
	var owner rdf.Term
	var lake *provlake.Workflow
	switch cfg.Instrument {
	case InstrumentProvIO:
		var err error
		provStore, err = core.NewStore(core.VFSBackend{View: fsStore.NewView()}, "/prov", core.FormatBinary)
		if err != nil {
			return Result{}, err
		}
		provCfg := core.ScenarioConfig(false, "Type", "Configuration", "Metrics", "Program", "User")
		tracker = core.NewTracker(provCfg, provStore, 0).WithClock(clock, cfg.Cost)
		user := tracker.RegisterUser(cfg.User)
		owner = tracker.RegisterProgram("topreco-a1", user)
		tracker.TrackType(owner, "Machine Learning")
	case InstrumentProvLake:
		if err := view.MkdirAll("/prov"); err != nil {
			return Result{}, err
		}
		lake = provlake.NewWorkflow(fsStore.NewView(), "/prov/provlake.jsonl", "topreco", clock, provlake.DefaultCost())
		clock.Advance(300 * time.Millisecond) // ProvLake client/session init
	}

	// POSIX layer (untracked here: Top Reco's provenance need is the
	// extensible-class metadata, not I/O lineage — Table 3).
	noTrack := core.NewTracker(core.DefaultConfig().DisableAll(), nil, 0)
	pfs := posixio.Wrap(view, noTrack, posixio.Agent{}, posixio.Options{Disabled: true})

	// Parse the configuration through the POSIX interface.
	iniData, err := pfs.ReadFile("/topreco/config.ini")
	if err != nil {
		return Result{}, err
	}
	ini, err := parseINI(strings.NewReader(string(iniData)))
	if err != nil {
		return Result{}, err
	}
	lr, _ := strconv.ParseFloat(ini.GetDefault("model", "learning_rate", "0.1"), 64)
	batch, _ := strconv.Atoi(ini.GetDefault("model", "batch_size", "64"))
	presel, _ := strconv.ParseFloat(ini.GetDefault("data", "preselection", "0.5"), 64)

	// Record the configuration fields.
	flat := ini.Flatten()
	switch cfg.Instrument {
	case InstrumentProvIO:
		for _, kv := range flat {
			tracker.TrackConfiguration(owner, kv[0], rdf.Literal(kv[1]), cfg.Version)
		}
	case InstrumentProvLake:
		for _, kv := range flat {
			lake.SetContext(kv[0], kv[1])
		}
	}

	// Generate events and persist them as TFRecord files ("root" events →
	// train/test datasets).
	train := GenerateEvents(cfg.Seed, cfg.Events, presel)
	test := GenerateEvents(cfg.Seed+1, cfg.Events/4+1, presel)
	for _, part := range []struct {
		path   string
		events []Event
	}{{"/topreco/train.tfrecord", train}, {"/topreco/test.tfrecord", test}} {
		w, err := newTFRecordWriter(pfs, part.path)
		if err != nil {
			return Result{}, err
		}
		for _, e := range part.events {
			if err := w.Write(e.encode()); err != nil {
				return Result{}, err
			}
		}
		if err := w.Close(); err != nil {
			return Result{}, err
		}
	}
	clock.Advance(cfg.Cost.WriteCost(int64(len(train)+len(test)) * 29))

	// Re-read the training data through the TFRecord reader (the training
	// loop streams from the dataset files).
	rd, err := newTFRecordReader(pfs, "/topreco/train.tfrecord")
	if err != nil {
		return Result{}, err
	}
	var loaded []Event
	for {
		rec, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return Result{}, err
		}
		e, err := decodeEvent(rec)
		if err != nil {
			return Result{}, err
		}
		loaded = append(loaded, e)
	}
	rd.Close()

	// Training loop with per-epoch provenance (the paper's instrument
	// point: "record the training accuracy at the end of each epoch").
	var m Model
	rng := rand.New(rand.NewSource(cfg.Seed + 2))
	var lakeTask *provlake.Task
	if lake != nil {
		lakeTask = lake.StartTask("training", map[string]any{"epochs": cfg.Epochs})
	}
	accs := make([]float64, 0, cfg.Epochs)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		m.TrainEpoch(loaded, lr, batch, rng)
		clock.Advance(cfg.EpochTime)
		acc := m.Evaluate(test)
		accs = append(accs, acc)
		switch cfg.Instrument {
		case InstrumentProvIO:
			tracker.TrackConfigurationAccuracy(owner, "epoch_accuracy",
				rdf.Double(acc), cfg.Version*1000000+epoch, acc)
		case InstrumentProvLake:
			lakeTask.Point(map[string]any{"epoch": epoch, "accuracy": acc})
		}
	}
	final := accs[len(accs)-1]
	if lakeTask != nil {
		lakeTask.End(map[string]any{"final_accuracy": final})
	}

	// Reconstruction from the highest scores.
	picks := Reconstruct(m.Scores(test), 8)
	var out strings.Builder
	for _, p := range picks {
		fmt.Fprintf(&out, "%d\n", p)
	}
	if err := pfs.WriteFile("/topreco/reconstructed.txt", []byte(out.String())); err != nil {
		return Result{}, err
	}

	res := Result{
		Completion:      clock.Now(),
		FinalAccuracy:   final,
		AccuracyByEpoch: accs,
		Store:           provStore,
		Reconstructed:   len(picks),
	}
	switch cfg.Instrument {
	case InstrumentProvIO:
		tracker.TrackMetric(owner, "final_accuracy", rdf.Double(final), cfg.Version)
		if err := tracker.Close(); err != nil {
			return Result{}, err
		}
		recs, _ := tracker.Stats()
		res.Records = recs
		b, err := core.TextBytes(segcodec.Turtle, tracker.Graph())
		if err != nil {
			return Result{}, err
		}
		res.ProvBytes = b
	case InstrumentProvLake:
		if err := lake.Close(); err != nil {
			return Result{}, err
		}
		recs, bytes := lake.Stats()
		res.Records = recs
		res.ProvBytes = bytes
	}
	return res, nil
}
