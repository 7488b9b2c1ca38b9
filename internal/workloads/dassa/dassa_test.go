package dassa

import (
	"testing"

	"github.com/hpc-io/prov-io/internal/core"
	"github.com/hpc-io/prov-io/internal/model"
	"github.com/hpc-io/prov-io/internal/posixio"
	"github.com/hpc-io/prov-io/internal/rdf"
	"github.com/hpc-io/prov-io/internal/sparql"
	"github.com/hpc-io/prov-io/internal/vfs"
)

func fastCfg(l Lineage) Config {
	return Config{
		Files: 8, Ranks: 4, ChannelsPerFile: 2, AttrsPerChannel: 4,
		SampleSamplesPerChannel: 32, Lineage: l,
	}
}

func runDassa(t *testing.T, cfg Config) Result {
	t.Helper()
	store := vfs.NewStore()
	if err := GenerateInputs(store.NewView(), cfg); err != nil {
		t.Fatal(err)
	}
	res, err := Run(store, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestTDMSRoundTrip(t *testing.T) {
	view := vfs.NewStore().NewView()
	tr := core.NewTracker(core.DefaultConfig(), nil, 0)
	pfs := posixio.Wrap(view, tr, posixio.Agent{}, posixio.DefaultOptions())
	in := &TDMS{Channels: []TDMSChannel{
		{Name: "ch0", Properties: map[string]string{"units": "strain", "rate": "1000"},
			Samples: []float32{1.5, -2.25, 0}},
		{Name: "ch1", Properties: map[string]string{}, Samples: []float32{42}},
	}}
	if err := WriteTDMS(pfs, "/x.tdms", in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadTDMS(pfs, "/x.tdms")
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Channels) != 2 {
		t.Fatalf("channels = %d", len(out.Channels))
	}
	if out.Channels[0].Properties["units"] != "strain" {
		t.Error("properties lost")
	}
	if out.Channels[0].Samples[1] != -2.25 {
		t.Errorf("samples = %v", out.Channels[0].Samples)
	}
}

func TestTDMSRejectsCorrupt(t *testing.T) {
	view := vfs.NewStore().NewView()
	tr := core.NewTracker(core.DefaultConfig().DisableAll(), nil, 0)
	pfs := posixio.Wrap(view, tr, posixio.Agent{}, posixio.Options{Disabled: true})
	view.WriteFile("/bad.tdms", []byte("not tdms data"))
	if _, err := ReadTDMS(pfs, "/bad.tdms"); err == nil {
		t.Error("corrupt TDMS accepted")
	}
	view.WriteFile("/trunc.tdms", []byte("TDSm\x05\x00\x00\x00"))
	if _, err := ReadTDMS(pfs, "/trunc.tdms"); err == nil {
		t.Error("truncated TDMS accepted")
	}
}

func TestBaselineProducesProducts(t *testing.T) {
	store := vfs.NewStore()
	cfg := fastCfg(LineageBaseline)
	if err := GenerateInputs(store.NewView(), cfg); err != nil {
		t.Fatal(err)
	}
	res, err := Run(store, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completion <= 0 {
		t.Error("no completion time")
	}
	if res.ProvBytes != 0 {
		t.Error("baseline produced provenance")
	}
	// Every product exists and decimation shrank the channel.
	view := store.NewView()
	for i := 0; i < cfg.Files; i++ {
		if !view.Exists(productPath(i)) {
			t.Errorf("product %d missing", i)
		}
		if !view.Exists(convertedPath(i)) {
			t.Errorf("converted file %d missing", i)
		}
	}
}

func TestDecimationShrinksData(t *testing.T) {
	store := vfs.NewStore()
	cfg := fastCfg(LineageBaseline)
	cfg.Files, cfg.Ranks = 1, 1
	cfg.SampleSamplesPerChannel = 64
	cfg.DecimateFactor = 8
	if err := GenerateInputs(store.NewView(), cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(store, cfg); err != nil {
		t.Fatal(err)
	}
	view := store.NewView()
	inInfo, _ := view.Stat(convertedPath(0))
	outInfo, _ := view.Stat(productPath(0))
	if outInfo.Size >= inInfo.Size {
		t.Errorf("decimate output (%d) not smaller than input (%d)", outInfo.Size, inInfo.Size)
	}
}

func TestLineageScenariosTrackProvenance(t *testing.T) {
	for _, l := range []Lineage{FileLineage, DatasetLineage, AttrLineage} {
		t.Run(l.String(), func(t *testing.T) {
			res := runDassa(t, fastCfg(l))
			if res.ProvBytes == 0 || res.Records == 0 {
				t.Errorf("no provenance: %+v", res)
			}
		})
	}
}

func TestAttrLineageTracksMost(t *testing.T) {
	file := runDassa(t, fastCfg(FileLineage))
	ds := runDassa(t, fastCfg(DatasetLineage))
	attr := runDassa(t, fastCfg(AttrLineage))
	if !(attr.Records > ds.Records && ds.Records > file.Records) {
		t.Errorf("record ordering wrong: file=%d dataset=%d attr=%d",
			file.Records, ds.Records, attr.Records)
	}
	if attr.Completion <= file.Completion {
		t.Errorf("attribute lineage should cost most: %v vs %v", attr.Completion, file.Completion)
	}
}

func TestTrackingOverheadReasonable(t *testing.T) {
	base := runDassa(t, fastCfg(LineageBaseline))
	attr := runDassa(t, fastCfg(AttrLineage))
	overhead := float64(attr.Completion-base.Completion) / float64(base.Completion)
	if overhead <= 0 {
		t.Error("tracking was free")
	}
	if overhead > 0.5 {
		t.Errorf("overhead %.1f%% implausibly high", overhead*100)
	}
}

func TestBackwardLineageQuery(t *testing.T) {
	// Paper §6.5: backward lineage of a product via 3 statements per step.
	res := runDassa(t, fastCfg(FileLineage))
	g, err := res.Store.Merge()
	if err != nil {
		t.Fatal(err)
	}
	// Step 1: which program produced the product?
	product := rdf.IRI(model.NodeIRI(model.File, productPath(0)))
	q1 := `SELECT ?program WHERE { <` + product.Value + `> prov:wasAttributedTo ?program . }`
	r1, _, err := sparql.ExecParallelInfo(g, q1, model.Namespaces(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Rows) != 1 {
		t.Fatalf("program query rows = %d: %v", len(r1.Rows), r1.Rows)
	}
	prog := r1.Rows[0]["program"]
	if prog != rdf.IRI(model.NodeIRI(model.Program, "decimate-a1")) {
		t.Errorf("program = %v, want decimate-a1", prog)
	}
	// Step 2+3: which files were read by activities of that program?
	q2 := `SELECT DISTINCT ?file WHERE {
		?file provio:wasReadBy ?api .
		?api prov:wasAssociatedWith <` + prog.Value + `> .
	}`
	r2, _, err := sparql.ExecParallelInfo(g, q2, model.Namespaces(), 1)
	if err != nil {
		t.Fatal(err)
	}
	// decimate read every converted file; the specific input is among them.
	want := rdf.IRI(model.NodeIRI(model.File, convertedPath(0)))
	found := false
	for _, row := range r2.Rows {
		if row["file"] == want {
			found = true
		}
	}
	if !found {
		t.Errorf("input %v not in decimate's read set: %v", want, r2.Rows)
	}
}

func TestXCorrProducesStack(t *testing.T) {
	store := vfs.NewStore()
	cfg := fastCfg(FileLineage)
	cfg.XCorr = true
	if err := GenerateInputs(store.NewView(), cfg); err != nil {
		t.Fatal(err)
	}
	res, err := Run(store, cfg)
	if err != nil {
		t.Fatal(err)
	}
	view := store.NewView()
	for r := 0; r < cfg.Ranks; r++ {
		if !view.Exists(xcorrPath(r)) {
			t.Errorf("xcorr output for rank %d missing", r)
		}
	}
	// The xcorr program appears in the provenance.
	g, _ := res.Store.Merge()
	xprog := rdf.IRI(model.NodeIRI(model.Program, "xcorr_stack-a1"))
	if len(g.Find(xprog.Ptr(), nil, nil)) == 0 {
		t.Error("xcorr program agent missing from provenance")
	}
}

func TestProvBytesScaleWithFiles(t *testing.T) {
	small := fastCfg(FileLineage)
	small.Files = 4
	big := fastCfg(FileLineage)
	big.Files = 16
	rs := runDassa(t, small)
	rb := runDassa(t, big)
	if rb.ProvBytes <= rs.ProvBytes {
		t.Errorf("provenance should grow with files: %d vs %d", rs.ProvBytes, rb.ProvBytes)
	}
	// Roughly linear: 4x files within [2x, 8x] bytes.
	ratio := float64(rb.ProvBytes) / float64(rs.ProvBytes)
	if ratio < 2 || ratio > 8 {
		t.Errorf("scaling ratio %.1f not roughly linear", ratio)
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.Files <= 0 || cfg.Ranks <= 0 || cfg.DecimateFactor <= 1 {
		t.Errorf("defaults = %+v", cfg)
	}
	clamped := Config{Files: 2, Ranks: 8}.withDefaults()
	if clamped.Ranks != 2 {
		t.Errorf("ranks not clamped to files: %d", clamped.Ranks)
	}
}

func TestLineageStrings(t *testing.T) {
	if FileLineage.String() != "file-lineage" || AttrLineage.String() != "attribute-lineage" {
		t.Error("lineage names wrong")
	}
	if Lineage(99).String() != "unknown" {
		t.Error("unknown lineage name")
	}
	if LineageBaseline.ProvConfig() != nil {
		t.Error("baseline must be nil config")
	}
	if !FileLineage.ProvConfig().Enabled(model.File) || FileLineage.ProvConfig().Enabled(model.Dataset) {
		t.Error("file lineage config wrong")
	}
}
