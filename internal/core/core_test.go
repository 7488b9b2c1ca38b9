package core

import (
	"errors"
	"strings"
	"testing"
	"time"

	"github.com/hpc-io/prov-io/internal/model"
	"github.com/hpc-io/prov-io/internal/rdf"
	"github.com/hpc-io/prov-io/internal/rdf/segcodec"
	"github.com/hpc-io/prov-io/internal/simclock"
	"github.com/hpc-io/prov-io/internal/vfs"
)

func newTestStore(t *testing.T) *Store {
	t.Helper()
	s, err := NewStore(VFSBackend{View: vfs.NewStore().NewView()}, "/prov", FormatBinary)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestDefaultConfigEnablesEverything(t *testing.T) {
	cfg := DefaultConfig()
	for _, c := range model.AllClasses() {
		if !cfg.Enabled(c) {
			t.Errorf("class %s disabled by default", c.Name)
		}
	}
	if got := len(cfg.EnabledClasses()); got != 19 {
		t.Errorf("EnabledClasses = %d, want 19", got)
	}
}

func TestConfigEnableDisable(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Disable("Attribute", "Datatype")
	if cfg.Enabled(model.Attribute) || cfg.Enabled(model.Datatype) {
		t.Error("Disable had no effect")
	}
	cfg.Enable("Attribute")
	if !cfg.Enabled(model.Attribute) {
		t.Error("Enable had no effect")
	}
	cfg.DisableAll()
	if len(cfg.EnabledClasses()) != 0 {
		t.Errorf("DisableAll left %v", cfg.EnabledClasses())
	}
}

func TestScenarioConfig(t *testing.T) {
	// H5bench scenario-1: only I/O API classes.
	cfg := ScenarioConfig(false, "Create", "Open", "Read", "Write", "Fsync", "Rename")
	if cfg.Enabled(model.File) || cfg.Enabled(model.User) {
		t.Error("scenario config leaked extra classes")
	}
	if !cfg.Enabled(model.Read) {
		t.Error("scenario config missing requested class")
	}
	if cfg.Duration {
		t.Error("duration should be off")
	}
}

func TestLoadConfig(t *testing.T) {
	doc := `
# PROV-IO configuration
mode = periodic
flush_every = 128
duration = on
track = Create, Open, Read, Write
enable = File
disable = Open
`
	cfg, err := LoadConfig(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Mode != ModePeriodic || cfg.FlushEvery != 128 || !cfg.Duration {
		t.Errorf("config = %+v", cfg)
	}
	if !cfg.Enabled(model.Create) || !cfg.Enabled(model.File) {
		t.Error("track/enable lists not applied")
	}
	if cfg.Enabled(model.Open) {
		t.Error("disable not applied after track")
	}
	if cfg.Enabled(model.User) {
		t.Error("track should be exclusive")
	}
}

func TestLoadConfigErrors(t *testing.T) {
	cases := []string{
		"no_equals_here",
		"format = json",
		"mode = sometimes",
		"flush_every = -3",
		"flush_every = abc",
		"duration = maybe",
		"track = NotAClass",
		"unknown_key = 1",
		"store = bogus:/x",
		"store = mount:hot=mem:",
		"store = dir:/run1/prov",
		"store_dir = /run1/prov",
		"flush_queue = 2",
	}
	for _, doc := range cases {
		_, err := LoadConfig(strings.NewReader(doc))
		if err == nil {
			t.Errorf("LoadConfig(%q) succeeded", doc)
			continue
		}
		// A store key names its line and where the store is chosen instead.
		key, _, _ := strings.Cut(doc, " ")
		if strings.HasPrefix(key, "store") && !(strings.Contains(err.Error(), "line 1: key "+key+" is gone") && strings.Contains(err.Error(), "-store")) {
			t.Errorf("LoadConfig(%q) error %q does not name the line, the key and -store", doc, err)
		}
	}
}

func TestLoadConfigDurationPseudoClass(t *testing.T) {
	cfg, err := LoadConfig(strings.NewReader("track = Create, Duration"))
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.Duration || !cfg.Enabled(model.Create) {
		t.Error("Duration pseudo-class not handled in track list")
	}
}

func TestTrackerAgentsAndIO(t *testing.T) {
	store := newTestStore(t)
	tr := NewTracker(DefaultConfig(), store, 0)
	user := tr.RegisterUser("Bob")
	prog := tr.RegisterProgram("vpicio_uni_h5.exe-a1", user)
	thr := tr.RegisterThread(0, prog)
	obj := tr.TrackDataObject(model.Dataset, "/f.h5/Timestep_0/x", "/Timestep_0/x", rdf.Term{}, prog)
	act := tr.TrackIO(model.Create, "H5Dcreate2", obj, thr, 0, time.Microsecond)

	if user.IsZero() || prog.IsZero() || thr.IsZero() || obj.IsZero() || act.IsZero() {
		t.Fatal("enabled classes returned zero nodes")
	}
	g := tr.Graph()
	if !g.Has(rdf.Triple{S: obj, P: model.WasCreatedBy.IRI(), O: act}) {
		t.Error("missing wasCreatedBy edge")
	}
	if !g.Has(rdf.Triple{S: act, P: model.AssociatedWith.IRI(), O: thr}) {
		t.Error("missing association edge")
	}
	if !g.Has(rdf.Triple{S: thr, P: model.ActedOnBehalfOf.IRI(), O: prog}) {
		t.Error("missing delegation edge")
	}
	recs, triples := tr.Stats()
	if recs != 5 || triples != int64(g.Len()) {
		t.Errorf("Stats = %d records, %d triples; graph has %d", recs, triples, g.Len())
	}
}

func TestTrackerSequenceNumbers(t *testing.T) {
	tr := NewTracker(DefaultConfig(), nil, 3)
	a1 := tr.TrackIO(model.Write, "H5Dwrite", rdf.Term{}, rdf.Term{}, 0, 0)
	a2 := tr.TrackIO(model.Write, "H5Dwrite", rdf.Term{}, rdf.Term{}, 0, 0)
	b1 := tr.TrackIO(model.Read, "H5Dread", rdf.Term{}, rdf.Term{}, 0, 0)
	if a1 == a2 {
		t.Error("repeated invocations minted same node")
	}
	if !strings.Contains(a1.Value, "-p3-b1") || !strings.Contains(a2.Value, "-p3-b2") {
		t.Errorf("sequence numbering wrong: %v %v", a1, a2)
	}
	if !strings.Contains(b1.Value, "H5Dread-p3-b1") {
		t.Errorf("per-API counters not independent: %v", b1)
	}
}

func TestTrackerRespectsDisabledClasses(t *testing.T) {
	cfg := ScenarioConfig(false, "Create") // only Create enabled
	tr := NewTracker(cfg, nil, 0)
	if got := tr.RegisterUser("Bob"); !got.IsZero() {
		t.Error("disabled User still tracked")
	}
	if got := tr.TrackDataObject(model.File, "/f", "", rdf.Term{}, rdf.Term{}); !got.IsZero() {
		t.Error("disabled File still tracked")
	}
	if got := tr.TrackIO(model.Read, "read", rdf.Term{}, rdf.Term{}, 0, 0); !got.IsZero() {
		t.Error("disabled Read still tracked")
	}
	if got := tr.TrackIO(model.Create, "open", rdf.Term{}, rdf.Term{}, 0, 0); got.IsZero() {
		t.Error("enabled Create not tracked")
	}
	if got := tr.TrackConfiguration(rdf.IRI("http://x"), "k", rdf.Literal("v"), 0); !got.IsZero() {
		t.Error("disabled Configuration still tracked")
	}
	if got := tr.TrackMetric(rdf.IRI("http://x"), "k", rdf.Literal("v"), 0); !got.IsZero() {
		t.Error("disabled Metrics still tracked")
	}
	if got := tr.TrackType(rdf.IRI("http://x"), "ML"); !got.IsZero() {
		t.Error("disabled Type still tracked")
	}
}

func TestTrackerDurationSwitch(t *testing.T) {
	cfgOn := ScenarioConfig(true, "Write")
	trOn := NewTracker(cfgOn, nil, 0)
	trOn.TrackIO(model.Write, "H5Dwrite", rdf.Term{}, rdf.Term{}, time.Second, time.Millisecond)
	if got := trOn.Graph().Find(nil, model.PropElapsed.IRI().Ptr(), nil); len(got) != 1 {
		t.Errorf("duration on: elapsed triples = %d", len(got))
	}

	cfgOff := ScenarioConfig(false, "Write")
	trOff := NewTracker(cfgOff, nil, 0)
	trOff.TrackIO(model.Write, "H5Dwrite", rdf.Term{}, rdf.Term{}, time.Second, time.Millisecond)
	if got := trOff.Graph().Find(nil, model.PropElapsed.IRI().Ptr(), nil); len(got) != 0 {
		t.Errorf("duration off: elapsed triples = %d", len(got))
	}
}

func TestTrackerDerivation(t *testing.T) {
	tr := NewTracker(DefaultConfig(), nil, 0)
	a, b := rdf.IRI("http://x/a"), rdf.IRI("http://x/b")
	tr.TrackDerivation(a, b)
	if !tr.Graph().Has(rdf.Triple{S: a, P: model.WasDerivedFrom.IRI(), O: b}) {
		t.Error("derivation edge missing")
	}
	tr.TrackDerivation(rdf.Term{}, b) // no-op, must not panic
	tr.TrackDerivation(a, rdf.Term{})
}

func TestTrackerConfigurationVersioning(t *testing.T) {
	tr := NewTracker(DefaultConfig(), nil, 0)
	owner := tr.RegisterProgram("topreco", rdf.Term{})
	v0 := tr.TrackConfigurationAccuracy(owner, "learning_rate", rdf.Double(0.01), 0, 0.81)
	v1 := tr.TrackConfigurationAccuracy(owner, "learning_rate", rdf.Double(0.02), 1, 0.88)
	if v0 == v1 {
		t.Fatal("versions collapsed")
	}
	g := tr.Graph()
	if !g.Has(rdf.Triple{S: v1, P: model.PropAccuracy.IRI(), O: rdf.Double(0.88)}) {
		t.Error("accuracy not recorded")
	}
	if !g.Has(rdf.Triple{S: owner, P: model.PropConfig.IRI(), O: v0}) {
		t.Error("owner link missing")
	}
}

func TestFlushAndMergeRoundTrip(t *testing.T) {
	store := newTestStore(t)
	// Two processes touching the same file: merge must deduplicate it.
	for pid := 0; pid < 2; pid++ {
		tr := NewTracker(DefaultConfig(), store, pid)
		user := tr.RegisterUser("Bob")
		prog := tr.RegisterProgram("dassa", user)
		obj := tr.TrackDataObject(model.File, "/data/westsac.h5", "", rdf.Term{}, prog)
		tr.TrackIO(model.Read, "H5Fread", obj, prog, 0, 0)
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
	}
	merged, err := store.Merge()
	if err != nil {
		t.Fatal(err)
	}
	fileNode := rdf.IRI(model.NodeIRI(model.File, "/data/westsac.h5"))
	typeEdges := merged.Find(fileNode.Ptr(), rdf.IRI(rdf.RDFType).Ptr(), nil)
	if len(typeEdges) != 1 {
		t.Errorf("file node duplicated after merge: %v", typeEdges)
	}
	// Each process's activity nodes are distinct (pid in the GUID).
	acts := merged.Find(nil, rdf.IRI(rdf.RDFType).Ptr(), model.Read.IRI().Ptr())
	if len(acts) != 2 {
		t.Errorf("activities = %d, want 2 (one per process)", len(acts))
	}
}

func TestWriteMergedProducesFile(t *testing.T) {
	view := vfs.NewStore().NewView()
	store, err := NewStore(VFSBackend{View: view}, "/prov", FormatBinary)
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTracker(DefaultConfig(), store, 0)
	tr.RegisterUser("alice")
	tr.Close()
	g, err := store.WriteMergedParallel(1)
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() == 0 {
		t.Error("merged graph empty")
	}
	if !view.Exists("/prov/prov_merged.pbs") {
		t.Error("merged file not written")
	}
}

func TestStoreTotalBytesGrows(t *testing.T) {
	store := newTestStore(t)
	tr := NewTracker(DefaultConfig(), store, 0)
	tr.RegisterUser("u")
	tr.Flush()
	small, err := store.TotalBytes()
	if err != nil || small <= 0 {
		t.Fatalf("TotalBytes = %d, %v", small, err)
	}
	for i := 0; i < 100; i++ {
		tr.TrackIO(model.Write, "write", rdf.Term{}, rdf.Term{}, 0, 0)
	}
	tr.Flush()
	big, _ := store.TotalBytes()
	if big <= small {
		t.Errorf("TotalBytes did not grow: %d -> %d", small, big)
	}
}

func TestPeriodicModeFlushes(t *testing.T) {
	view := vfs.NewStore().NewView()
	store, _ := NewStore(VFSBackend{View: view}, "/prov", FormatBinary)
	cfg := DefaultConfig()
	cfg.Mode = ModePeriodic
	cfg.FlushEvery = 10
	tr := NewTracker(cfg, store, 0)
	for i := 0; i < 15; i++ {
		tr.TrackIO(model.Write, "write", rdf.Term{}, rdf.Term{}, 0, 0)
	}
	// 10 records crossed the threshold: a delta segment must have been
	// enqueued without an explicit Flush call; Drain waits for the async
	// writer without rewriting the canonical file.
	if err := tr.Drain(); err != nil {
		t.Fatal(err)
	}
	n, err := store.TotalBytes()
	if err != nil || n == 0 {
		t.Errorf("periodic flush did not write: %d bytes, %v", n, err)
	}
	if view.Exists("/prov/prov_p000000.pbs") {
		t.Error("periodic delta flush rewrote the canonical file")
	}
	if !view.Exists("/prov/prov_p000000.seg0000.pbs") {
		t.Error("delta segment not written")
	}
	// The merged view already includes the segment's records.
	g, err := store.Merge()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(g.Find(nil, rdf.IRI(rdf.RDFType).Ptr(), model.Write.IRI().Ptr())); got != 10 {
		t.Errorf("activities visible mid-run = %d, want 10", got)
	}
	// Close compacts: segments fold into the canonical file.
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if view.Exists("/prov/prov_p000000.seg0000.pbs") {
		t.Error("Close did not compact delta segments")
	}
	g, err = store.Merge()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(g.Find(nil, rdf.IRI(rdf.RDFType).Ptr(), model.Write.IRI().Ptr())); got != 15 {
		t.Errorf("activities after Close = %d, want 15", got)
	}
}

func TestTrackerChargesClock(t *testing.T) {
	clock := simclock.NewClock()
	cost := simclock.Default()
	tr := NewTracker(DefaultConfig(), nil, 0).WithClock(clock, cost)
	tr.RegisterUser("u")
	if clock.Now() == 0 {
		t.Fatal("tracking charged no time")
	}
	before := clock.Now()
	tr.TrackIO(model.Write, "write", rdf.Term{}, rdf.Term{}, 0, 0)
	if clock.Now() <= before {
		t.Error("TrackIO charged no time")
	}
	// Disabled classes charge nothing (the overhead knob of the paper).
	cfg := ScenarioConfig(false, "Create")
	tr2 := NewTracker(cfg, nil, 0).WithClock(clock, cost)
	before = clock.Now()
	tr2.TrackIO(model.Read, "read", rdf.Term{}, rdf.Term{}, 0, 0)
	if clock.Now() != before {
		t.Error("disabled class charged time")
	}
}

func TestTrackerConcurrentUse(t *testing.T) {
	tr := NewTracker(DefaultConfig(), nil, 0)
	done := make(chan struct{})
	for w := 0; w < 8; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			prog := tr.RegisterProgram("p", rdf.Term{})
			for i := 0; i < 50; i++ {
				obj := tr.TrackDataObject(model.Dataset, "/f/d", "", rdf.Term{}, prog)
				tr.TrackIO(model.Write, "H5Dwrite", obj, prog, 0, 0)
			}
		}(w)
	}
	for w := 0; w < 8; w++ {
		<-done
	}
	acts := tr.Graph().Find(nil, rdf.IRI(rdf.RDFType).Ptr(), model.Write.IRI().Ptr())
	if len(acts) != 400 {
		t.Errorf("activities = %d, want 400", len(acts))
	}
}

func TestTrackerCloseIdempotent(t *testing.T) {
	store := newTestStore(t)
	tr := NewTracker(DefaultConfig(), store, 0)
	tr.RegisterUser("u")
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Errorf("second Close errored: %v", err)
	}
}

// TestNTriplesStoreFormat: an N-Triples store an older build wrote — its
// canonical file and its .sum file — is refused by every path, Merge naming
// the file and the migrating build, and left as it was.
func TestNTriplesStoreFormat(t *testing.T) {
	src := newTestStore(t)
	tr := NewTracker(DefaultConfig(), src, 7)
	tr.RegisterUser("u")
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	files := asLayout(t, storeFiles(t, src), "nt")
	if _, ok := files["prov_p000007.nt"]; !ok {
		t.Fatalf("premise: a .nt canonical file, got %v", fileNames(files))
	}
	store := openDir(t, files)
	_, err := store.Merge()
	if !errors.Is(err, segcodec.ErrNeedsMigration) || !strings.Contains(err.Error(), "prov_p000007.nt") ||
		!strings.Contains(err.Error(), migratingBuild) {
		t.Errorf("merge over ntriples returned %v, want ErrNeedsMigration naming the file and %q", err, migratingBuild)
	}
	checkRefused(t, "ntriples store", store)
}

func TestOSBackend(t *testing.T) {
	dir := t.TempDir()
	store, err := NewStore(OSBackend{}, dir+"/prov", FormatBinary)
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTracker(DefaultConfig(), store, 0)
	tr.RegisterUser("os-user")
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	g, err := store.Merge()
	if err != nil || g.Len() == 0 {
		t.Fatalf("OS-backend merge: %d triples, %v", g.Len(), err)
	}
	n, err := store.TotalBytes()
	if err != nil || n == 0 {
		t.Errorf("TotalBytes = %d, %v", n, err)
	}
}
