package dassa

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"github.com/hpc-io/prov-io/internal/core"
	"github.com/hpc-io/prov-io/internal/hdf5"
	"github.com/hpc-io/prov-io/internal/mpi"
	"github.com/hpc-io/prov-io/internal/posixio"
	"github.com/hpc-io/prov-io/internal/rdf/segcodec"
	"github.com/hpc-io/prov-io/internal/simclock"
	"github.com/hpc-io/prov-io/internal/vfs"
	"github.com/hpc-io/prov-io/internal/vol"
)

// Lineage selects the provenance granularity of Table 3's DASSA rows.
type Lineage int

// Lineage scenarios. LineageBaseline disables PROV-IO.
const (
	LineageBaseline Lineage = iota
	FileLineage             // program, I/O API, file
	DatasetLineage          // program, I/O API, dataset
	AttrLineage             // program, I/O API, attribute
)

// String names the scenario like Figure 6(b)'s legend.
func (l Lineage) String() string {
	switch l {
	case LineageBaseline:
		return "baseline"
	case FileLineage:
		return "file-lineage"
	case DatasetLineage:
		return "dataset-lineage"
	case AttrLineage:
		return "attribute-lineage"
	default:
		return "unknown"
	}
}

// ProvConfig returns the PROV-IO configuration for the scenario (nil for
// baseline), per Table 3: I/O API and Program always on, plus one Data
// Object granularity.
func (l Lineage) ProvConfig() *core.Config {
	base := []string{"Create", "Open", "Read", "Write", "Fsync", "Rename", "Program", "User"}
	switch l {
	case FileLineage:
		return core.ScenarioConfig(false, append(base, "File")...)
	case DatasetLineage:
		return core.ScenarioConfig(false, append(base, "Dataset")...)
	case AttrLineage:
		return core.ScenarioConfig(false, append(base, "Attribute")...)
	default:
		return nil
	}
}

// Config parameterizes one DASSA run.
type Config struct {
	// Files is the number of input .tdms files (paper: 128..2048).
	Files int
	// Ranks is the number of compute processes (paper: 32 nodes).
	Ranks int
	// ChannelsPerFile is the number of acoustic channels (datasets per
	// converted file).
	ChannelsPerFile int
	// AttrsPerChannel is the number of metadata attributes per channel —
	// DASSA is attribute-heavy.
	AttrsPerChannel int
	// LogicalFileBytes is the modeled size of one input file (paper:
	// 1.35 TB / 2048 files ≈ 660 MB).
	LogicalFileBytes int64
	// SampleSamplesPerChannel is the actual per-channel sample count
	// written/read (scaled down).
	SampleSamplesPerChannel int
	// DecimateFactor keeps every k-th sample.
	DecimateFactor int
	// ComputePerFile is the modeled analysis compute per file.
	ComputePerFile time.Duration
	// XCorr additionally runs X-Correlation-Stacking over each rank's
	// decimated products (used by the lineage example, not the perf sweep).
	XCorr   bool
	Lineage Lineage
	Cost    simclock.CostModel
	User    string
}

func (c Config) withDefaults() Config {
	if c.Files <= 0 {
		c.Files = 32
	}
	if c.Ranks <= 0 {
		c.Ranks = 32
	}
	if c.Ranks > c.Files {
		c.Ranks = c.Files
	}
	if c.ChannelsPerFile <= 0 {
		c.ChannelsPerFile = 4
	}
	if c.AttrsPerChannel <= 0 {
		c.AttrsPerChannel = 12
	}
	if c.LogicalFileBytes <= 0 {
		c.LogicalFileBytes = 660 << 20
	}
	if c.SampleSamplesPerChannel <= 0 {
		c.SampleSamplesPerChannel = 64
	}
	if c.DecimateFactor <= 1 {
		c.DecimateFactor = 8
	}
	if c.ComputePerFile == 0 {
		c.ComputePerFile = 8 * time.Second
	}
	if c.Cost == (simclock.CostModel{}) {
		c.Cost = simclock.Default()
	}
	if c.User == "" {
		c.User = "dassa-user"
	}
	return c
}

// Result summarizes one run.
type Result struct {
	Completion time.Duration
	ProvBytes  int64
	Records    int64
	Triples    int64
	// Products is the number of decimate outputs produced.
	Products int
	// Store gives access to the provenance store for lineage queries
	// (nil for baseline runs).
	Store *core.Store
}

// GenerateInputs materializes the raw .tdms inputs in a fresh vfs namespace.
// Input staging precedes the timed run (the paper's inputs pre-exist on
// Lustre).
func GenerateInputs(view *vfs.View, cfg Config) error {
	cfg = cfg.withDefaults()
	if err := view.MkdirAll("/das/raw"); err != nil {
		return err
	}
	if err := view.MkdirAll("/das/converted"); err != nil {
		return err
	}
	if err := view.MkdirAll("/das/products"); err != nil {
		return err
	}
	plain := posixio.Wrap(view, core.NewTracker(core.DefaultConfig().DisableAll(), nil, 0), posixio.Agent{}, posixio.Options{Disabled: true})
	for i := 0; i < cfg.Files; i++ {
		t := &TDMS{}
		for c := 0; c < cfg.ChannelsPerFile; c++ {
			ch := TDMSChannel{
				Name:       fmt.Sprintf("channel_%02d", c),
				Properties: map[string]string{},
				Samples:    make([]float32, cfg.SampleSamplesPerChannel),
			}
			for a := 0; a < cfg.AttrsPerChannel; a++ {
				ch.Properties[fmt.Sprintf("prop_%02d", a)] = fmt.Sprintf("value_%d_%d_%d", i, c, a)
			}
			for s := range ch.Samples {
				ch.Samples[s] = float32(math.Sin(float64(i*cfg.ChannelsPerFile+c) + float64(s)*0.1))
			}
			t.Channels = append(t.Channels, ch)
		}
		if err := WriteTDMS(plain, inputPath(i), t); err != nil {
			return err
		}
	}
	return nil
}

func inputPath(i int) string     { return fmt.Sprintf("/das/raw/WestSac_%04d.tdms", i) }
func convertedPath(i int) string { return fmt.Sprintf("/das/converted/WestSac_%04d.h5", i) }
func productPath(i int) string   { return fmt.Sprintf("/das/products/WestSac_%04d.decimate.h5", i) }
func xcorrPath(r int) string     { return fmt.Sprintf("/das/products/xcorr_stack_rank%02d.h5", r) }

// Run executes the DASSA workflow over pre-generated inputs in store.
// Pass the same vfs.Store that GenerateInputs populated.
func Run(fsStore *vfs.Store, cfg Config) (Result, error) {
	cfg = cfg.withDefaults()

	var provStore *core.Store
	provCfg := cfg.Lineage.ProvConfig()
	if provCfg != nil {
		var err error
		provStore, err = core.NewStore(core.VFSBackend{View: fsStore.NewView()}, "/prov", core.FormatBinary)
		if err != nil {
			return Result{}, err
		}
	}

	trackers := make([]*core.Tracker, cfg.Ranks)
	errCh := make(chan error, cfg.Ranks)

	completion := mpi.Run(cfg.Ranks, func(r *mpi.Rank) {
		view := fsStore.NewView() // uncharged; costs charged explicitly below
		var tracker *core.Tracker
		if provCfg != nil {
			tracker = core.NewTracker(provCfg, provStore, r.ID()).WithClock(r.Clock, cfg.Cost)
		} else {
			tracker = core.NewTracker(core.DefaultConfig().DisableAll(), nil, r.ID())
		}
		trackers[r.ID()] = tracker
		user := tracker.RegisterUser(cfg.User)

		// Two program agents: the converter and the analyzer.
		convProg := tracker.RegisterProgram("tdms2h5-a1", user)
		decProg := tracker.RegisterProgram("decimate-a1", user)

		// POSIX wrapper for the converter's raw-input side.
		posixOpts := posixio.DefaultOptions()
		if provCfg == nil {
			posixOpts.Disabled = true
		}
		pfs := posixio.Wrap(view, tracker, posixio.Agent{User: user, Program: convProg}, posixOpts)

		// VOL stacks per program.
		mk := func(prog vol.Context) vol.Connector {
			var conn vol.Connector = vol.NewCostConnector(vol.NewNative(view), r.Clock, cfg.Cost, byteScale(cfg), 1)
			if provCfg != nil {
				conn = vol.NewProvConnector(conn, tracker, prog, r.Clock)
			}
			return conn
		}
		convConn := mk(vol.Context{User: user, Program: convProg})
		decConn := mk(vol.Context{User: user, Program: decProg})

		var xcorrConn vol.Connector
		var xcorrProg = tracker.RegisterProgram("xcorr_stack-a1", user)
		if cfg.XCorr {
			xcorrConn = mk(vol.Context{User: user, Program: xcorrProg})
		}

		var myProducts []string
		for i := r.ID(); i < cfg.Files; i += cfg.Ranks {
			if err := convertOne(pfs, convConn, r.Clock, cfg, i); err != nil {
				errCh <- fmt.Errorf("tdms2h5 file %d: %w", i, err)
				return
			}
			if err := decimateOne(decConn, r.Clock, cfg, i); err != nil {
				errCh <- fmt.Errorf("decimate file %d: %w", i, err)
				return
			}
			myProducts = append(myProducts, productPath(i))
		}
		if cfg.XCorr && len(myProducts) > 0 {
			if err := xcorrStack(xcorrConn, r.Clock, cfg, myProducts, xcorrPath(r.ID())); err != nil {
				errCh <- fmt.Errorf("xcorr rank %d: %w", r.ID(), err)
				return
			}
		}
		if provCfg != nil {
			if err := tracker.Close(); err != nil {
				errCh <- err
			}
		}
	})

	select {
	case err := <-errCh:
		return Result{}, err
	default:
	}

	res := Result{Completion: completion, Products: cfg.Files, Store: provStore}
	if provCfg != nil {
		for _, tr := range trackers {
			if tr != nil {
				recs, tris := tr.Stats()
				res.Records += recs
				res.Triples += tris
				b, err := core.TextBytes(segcodec.Turtle, tr.Graph())
				if err != nil {
					return Result{}, err
				}
				res.ProvBytes += b
			}
		}
	}
	return res, nil
}

// byteScale converts sampled bytes to the logical file volume.
func byteScale(cfg Config) float64 {
	sampled := int64(cfg.ChannelsPerFile * cfg.SampleSamplesPerChannel * 4)
	if sampled <= 0 {
		return 1
	}
	s := float64(cfg.LogicalFileBytes) / float64(sampled)
	if s < 1 {
		return 1
	}
	return s
}

// convertOne is the tdms2h5 program: POSIX-read the raw file, write the
// hierarchical equivalent with channel datasets and metadata attributes.
func convertOne(pfs *posixio.FS, conn vol.Connector, clock *simclock.Clock, cfg Config, idx int) error {
	t, err := ReadTDMS(pfs, inputPath(idx))
	if err != nil {
		return err
	}
	// Charge the logical read volume (the sampled read charged ~nothing).
	clock.Advance(cfg.Cost.ReadCost(cfg.LogicalFileBytes))

	f, err := conn.FileCreate(convertedPath(idx))
	if err != nil {
		return err
	}
	for _, ch := range t.Channels {
		ds, err := conn.DatasetCreate(f.Root(), ch.Name, hdf5.TypeFloat32, []int{len(ch.Samples)})
		if err != nil {
			return err
		}
		if err := conn.DatasetWrite(ds, f32bytes(ch.Samples)); err != nil {
			return err
		}
		for _, k := range sortedKeys(ch.Properties) {
			v := ch.Properties[k]
			buf := make([]byte, len(v))
			copy(buf, v)
			if err := conn.AttrCreate(ds, k, hdf5.TypeString(len(buf)), []int{1}, buf); err != nil {
				return err
			}
		}
	}
	// Conversion compute is light relative to analysis.
	clock.Advance(cfg.ComputePerFile / 8)
	if err := conn.FileFlush(f); err != nil {
		return err
	}
	return conn.FileClose(f)
}

// decimateOne is the Decimate analysis program: read the converted file's
// channels and attributes, keep every k-th sample, write the data product.
func decimateOne(conn vol.Connector, clock *simclock.Clock, cfg Config, idx int) error {
	in, err := conn.FileOpen(convertedPath(idx), true)
	if err != nil {
		return err
	}
	out, err := conn.FileCreate(productPath(idx))
	if err != nil {
		return err
	}
	for c := 0; c < cfg.ChannelsPerFile; c++ {
		name := fmt.Sprintf("channel_%02d", c)
		ds, err := conn.DatasetOpen(in.Root(), name)
		if err != nil {
			return err
		}
		// DASSA reads the channel's metadata attributes before the data.
		for a := 0; a < cfg.AttrsPerChannel; a++ {
			if _, _, err := conn.AttrRead(ds, fmt.Sprintf("prop_%02d", a)); err != nil {
				return err
			}
		}
		raw, err := conn.DatasetRead(ds)
		if err != nil {
			return err
		}
		samples := bytesF32(raw)
		dec := make([]float32, 0, len(samples)/cfg.DecimateFactor+1)
		for i := 0; i < len(samples); i += cfg.DecimateFactor {
			dec = append(dec, samples[i])
		}
		ods, err := conn.DatasetCreate(out.Root(), name, hdf5.TypeFloat32, []int{len(dec)})
		if err != nil {
			return err
		}
		if err := conn.DatasetWrite(ods, f32bytes(dec)); err != nil {
			return err
		}
		// Products carry forward the channel metadata.
		for a := 0; a < cfg.AttrsPerChannel; a++ {
			k := fmt.Sprintf("prop_%02d", a)
			val, _, err := conn.AttrRead(ds, k)
			if err != nil {
				return err
			}
			if err := conn.AttrCreate(ods, k, hdf5.TypeString(len(val)), []int{1}, val); err != nil {
				return err
			}
		}
	}
	clock.Advance(cfg.ComputePerFile)
	if err := conn.FileFlush(out); err != nil {
		return err
	}
	if err := conn.FileClose(out); err != nil {
		return err
	}
	return conn.FileClose(in)
}

// xcorrStack is the X-Correlation-Stacking program: correlate and stack all
// of a rank's decimated products into one output.
func xcorrStack(conn vol.Connector, clock *simclock.Clock, cfg Config, inputs []string, outPath string) error {
	var acc []float32
	for _, p := range inputs {
		f, err := conn.FileOpen(p, true)
		if err != nil {
			return err
		}
		ds, err := conn.DatasetOpen(f.Root(), "channel_00")
		if err != nil {
			return err
		}
		raw, err := conn.DatasetRead(ds)
		if err != nil {
			return err
		}
		samples := bytesF32(raw)
		if acc == nil {
			acc = make([]float32, len(samples))
		}
		for i := range samples {
			if i < len(acc) {
				acc[i] += samples[i]
			}
		}
		if err := conn.FileClose(f); err != nil {
			return err
		}
		clock.Advance(cfg.ComputePerFile / 4)
	}
	out, err := conn.FileCreate(outPath)
	if err != nil {
		return err
	}
	ds, err := conn.DatasetCreate(out.Root(), "stack", hdf5.TypeFloat32, []int{len(acc)})
	if err != nil {
		return err
	}
	if err := conn.DatasetWrite(ds, f32bytes(acc)); err != nil {
		return err
	}
	if err := conn.FileFlush(out); err != nil {
		return err
	}
	return conn.FileClose(out)
}

func f32bytes(v []float32) []byte {
	out := make([]byte, len(v)*4)
	for i, x := range v {
		binary.LittleEndian.PutUint32(out[i*4:], math.Float32bits(x))
	}
	return out
}

func bytesF32(b []byte) []float32 {
	out := make([]float32, len(b)/4)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[i*4:]))
	}
	return out
}
