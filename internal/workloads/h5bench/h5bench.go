// Package h5bench reproduces the paper's H5bench-based workflow (§3.3,
// §6.2): a VPIC-style particle I/O benchmark where many MPI ranks access a
// single shared HDF5 file, under three I/O patterns (write+read,
// write+overwrite+read, write+append+read) and three provenance usage
// scenarios (I/O API counts; + durations; users/threads/programs/files).
//
// Eight particle variables are written per timestep (x, y, z, px, py, pz as
// float32, id1/id2 as int64), matching VPIC's layout. The workload writes a
// sampled fraction of the paper's data volume and charges the virtual clock
// for the full logical volume through vol.CostConnector's ByteScale.
package h5bench

import (
	"fmt"
	"time"

	"github.com/hpc-io/prov-io/internal/core"
	"github.com/hpc-io/prov-io/internal/hdf5"
	"github.com/hpc-io/prov-io/internal/mpi"
	"github.com/hpc-io/prov-io/internal/rdf/segcodec"
	"github.com/hpc-io/prov-io/internal/simclock"
	"github.com/hpc-io/prov-io/internal/vfs"
	"github.com/hpc-io/prov-io/internal/vol"
)

// Pattern selects the I/O pattern.
type Pattern int

// The three patterns of Figures 6/7 (c), (d), (e).
const (
	WriteRead Pattern = iota
	WriteOverwriteRead
	WriteAppendRead
)

// String names the pattern like the paper's figure captions.
func (p Pattern) String() string {
	switch p {
	case WriteRead:
		return "write+read"
	case WriteOverwriteRead:
		return "write+overwrite+read"
	case WriteAppendRead:
		return "write+append+read"
	default:
		return "unknown"
	}
}

// Scenario selects the provenance usage scenario of Table 3.
type Scenario int

// Scenarios. ScenarioBaseline disables PROV-IO entirely.
const (
	ScenarioBaseline Scenario = iota
	Scenario1                 // I/O API counts
	Scenario2                 // I/O API counts + durations
	Scenario3                 // user, thread, program, file
)

// String names the scenario.
func (s Scenario) String() string {
	switch s {
	case ScenarioBaseline:
		return "baseline"
	case Scenario1:
		return "scenario-1"
	case Scenario2:
		return "scenario-2"
	case Scenario3:
		return "scenario-3"
	default:
		return "unknown"
	}
}

// ProvConfig returns the PROV-IO configuration for a scenario (nil for the
// baseline), per Table 3.
func (s Scenario) ProvConfig() *core.Config {
	switch s {
	case Scenario1:
		return core.ScenarioConfig(false, "Create", "Open", "Read", "Write", "Fsync", "Rename")
	case Scenario2:
		return core.ScenarioConfig(true, "Create", "Open", "Read", "Write", "Fsync", "Rename")
	case Scenario3:
		return core.ScenarioConfig(false, "Create", "Open", "Read", "Write", "Fsync", "Rename",
			"User", "Thread", "Program", "File")
	default:
		return nil
	}
}

// Config parameterizes one run.
type Config struct {
	Ranks int
	// Steps is the number of timesteps.
	Steps int
	// LogicalParticles is the per-rank per-step particle count the clock
	// is charged for (the paper's full volume).
	LogicalParticles int
	// SampleParticles is the per-rank per-step particle count actually
	// written (>=1; scaled down for tractability).
	SampleParticles int
	// ComputePerStep is the emulated computation per timestep (the paper
	// uses 25 s).
	ComputePerStep time.Duration
	// BlocksPerWrite splits each variable's per-step write into this many
	// H5Dwrite calls (h5bench issues multi-block writes).
	BlocksPerWrite int
	Pattern        Pattern
	Scenario       Scenario
	// Cost overrides the cost model (zero value = simclock.Default()).
	Cost simclock.CostModel
	// User is the workflow user agent name.
	User string
	// provOverride replaces the scenario's derived PROV-IO configuration
	// (set via RunWithProvConfig, used by ablation experiments).
	provOverride *core.Config
}

// RunWithProvConfig runs the workload with an explicit PROV-IO
// configuration instead of a Scenario preset.
func RunWithProvConfig(cfg Config, provCfg *core.Config) (Result, error) {
	cfg.provOverride = provCfg
	return Run(cfg)
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.Ranks <= 0 {
		c.Ranks = 4
	}
	if c.Steps <= 0 {
		c.Steps = 5
	}
	if c.LogicalParticles <= 0 {
		c.LogicalParticles = 4 << 20 // ~4.2M particles/rank/step, ~3.9TB at 4096 ranks
	}
	if c.SampleParticles <= 0 {
		c.SampleParticles = 64
	}
	if c.SampleParticles > c.LogicalParticles {
		c.SampleParticles = c.LogicalParticles
	}
	if c.ComputePerStep == 0 {
		c.ComputePerStep = 25 * time.Second
	}
	if c.BlocksPerWrite <= 0 {
		c.BlocksPerWrite = 4
	}
	if c.BlocksPerWrite > c.SampleParticles {
		c.BlocksPerWrite = c.SampleParticles
	}
	if c.Cost == (simclock.CostModel{}) {
		c.Cost = simclock.Default()
	}
	if c.User == "" {
		c.User = "h5bench-user"
	}
	return c
}

// particle variables: name and datatype, VPIC layout.
var particleVars = []struct {
	name string
	dt   hdf5.Datatype
}{
	{"x", hdf5.TypeFloat32}, {"y", hdf5.TypeFloat32}, {"z", hdf5.TypeFloat32},
	{"px", hdf5.TypeFloat32}, {"py", hdf5.TypeFloat32}, {"pz", hdf5.TypeFloat32},
	{"id1", hdf5.TypeInt64}, {"id2", hdf5.TypeInt64},
}

// Result summarizes one run.
type Result struct {
	Completion time.Duration
	// ProvBytes is the provenance's size as Turtle, what a Turtle store held
	// (0 for baseline).
	ProvBytes int64
	// Records/Triples are summed across rank trackers.
	Records int64
	Triples int64
	// DatasetVersions is the version count of variable "x" after the run
	// (observable effect of overwrite/append).
	DatasetVersions int
	// Store exposes the provenance store for queries (nil for baseline).
	Store *core.Store
}

// Run executes the workload and returns its (simulated) completion time and
// provenance statistics.
func Run(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()

	fsStore := vfs.NewStore()
	setupView := fsStore.NewView()
	if err := setupView.MkdirAll("/scratch"); err != nil {
		return Result{}, err
	}

	var provStore *core.Store
	provCfg := cfg.Scenario.ProvConfig()
	if cfg.provOverride != nil {
		provCfg = cfg.provOverride
	}
	if provCfg != nil {
		var err error
		provStore, err = core.NewStore(core.VFSBackend{View: fsStore.NewView()}, "/prov", core.FormatBinary)
		if err != nil {
			return Result{}, err
		}
	}

	// The shared file is created once (like h5bench's rank-0 create +
	// MPI-IO shared handle). Creation is performed below by rank 0 through
	// its connector so it is tracked.
	filePath := "/scratch/vpic.h5"
	byteScale := float64(cfg.LogicalParticles) / float64(cfg.SampleParticles)
	totalRows := cfg.Ranks * cfg.SampleParticles

	type rankState struct {
		tracker *core.Tracker
		conn    vol.Connector
	}
	states := make([]*rankState, cfg.Ranks)

	var shared struct {
		file *hdf5.File
		err  error
	}

	trackErr := make(chan error, cfg.Ranks)
	completion := mpi.Run(cfg.Ranks, func(r *mpi.Rank) {
		st := &rankState{}
		states[r.ID()] = st

		// Per-rank connector stack: Prov? -> Cost -> Native.
		view := fsStore.NewView() // uncharged; CostConnector charges the rank clock
		var conn vol.Connector = vol.NewCostConnector(vol.NewNative(view), r.Clock, cfg.Cost, byteScale, cfg.Ranks)
		var ctx vol.Context
		if provCfg != nil {
			st.tracker = core.NewTracker(provCfg, provStore, r.ID()).WithClock(r.Clock, cfg.Cost)
			user := st.tracker.RegisterUser(cfg.User)
			prog := st.tracker.RegisterProgram(fmt.Sprintf("h5bench_%s-a1", cfg.Pattern), user)
			thr := st.tracker.RegisterThread(r.ID(), prog)
			ctx = vol.Context{User: user, Program: prog, Thread: thr}
			conn = vol.NewProvConnector(conn, st.tracker, ctx, r.Clock)
		}
		st.conn = conn

		// Rank 0 creates the shared file and datasets.
		if r.ID() == 0 {
			f, err := conn.FileCreate(filePath)
			if err != nil {
				shared.err = err
			} else {
				shared.file = f
				for s := 0; s < cfg.Steps; s++ {
					grp, err := conn.GroupCreate(f.Root(), fmt.Sprintf("Timestep_%d", s))
					if err != nil {
						shared.err = err
						break
					}
					for _, v := range particleVars {
						if _, err := conn.DatasetCreate(grp, v.name, v.dt, []int{totalRows}); err != nil {
							shared.err = err
							break
						}
					}
				}
			}
		}
		r.Barrier()
		if shared.err != nil {
			return
		}
		root := shared.file.Root()

		writePhase := func() error {
			for s := 0; s < cfg.Steps; s++ {
				r.Clock.Advance(cfg.ComputePerStep)
				grp, err := conn.GroupOpen(root, fmt.Sprintf("Timestep_%d", s))
				if err != nil {
					return err
				}
				for _, v := range particleVars {
					ds, err := conn.DatasetOpen(grp, v.name)
					if err != nil {
						return err
					}
					// h5bench issues multi-block writes: the rank's row
					// range is written in BlocksPerWrite H5Dwrite calls.
					base := r.ID() * cfg.SampleParticles
					blocks := cfg.BlocksPerWrite
					for blk := 0; blk < blocks; blk++ {
						start := base + blk*cfg.SampleParticles/blocks
						end := base + (blk+1)*cfg.SampleParticles/blocks
						if blk == blocks-1 {
							end = base + cfg.SampleParticles
						}
						if end <= start {
							continue
						}
						data := make([]byte, (end-start)*v.dt.Size)
						fill(data, byte(r.ID()+s))
						if err := conn.DatasetWriteRows(ds, start, end-start, data); err != nil {
							return err
						}
					}
				}
				r.Barrier()
			}
			return nil
		}

		appendPhase := func() error {
			// Appends extend the shared dataset; ranks take turns to keep
			// row accounting simple (the paper notes appends are memory-
			// hungry and run at low rank counts).
			for s := 0; s < cfg.Steps; s++ {
				r.Clock.Advance(cfg.ComputePerStep)
				grp, err := conn.GroupOpen(root, fmt.Sprintf("Timestep_%d", s))
				if err != nil {
					return err
				}
				for v := 0; v < len(particleVars); v++ {
					if v%cfg.Ranks != r.ID() {
						continue // each variable appended by one rank
					}
					ds, err := conn.DatasetOpen(grp, particleVars[v].name)
					if err != nil {
						return err
					}
					data := make([]byte, cfg.SampleParticles*particleVars[v].dt.Size)
					if err := conn.DatasetAppend(ds, cfg.SampleParticles, data); err != nil {
						return err
					}
				}
				r.Barrier()
			}
			return nil
		}

		readPhase := func() error {
			for s := 0; s < cfg.Steps; s++ {
				grp, err := conn.GroupOpen(root, fmt.Sprintf("Timestep_%d", s))
				if err != nil {
					return err
				}
				for _, v := range particleVars {
					ds, err := conn.DatasetOpen(grp, v.name)
					if err != nil {
						return err
					}
					if _, err := conn.DatasetReadRows(ds, r.ID()*cfg.SampleParticles, cfg.SampleParticles); err != nil {
						return err
					}
				}
				r.Barrier()
			}
			return nil
		}

		var err error
		switch cfg.Pattern {
		case WriteRead:
			if err = writePhase(); err == nil {
				err = readPhase()
			}
		case WriteOverwriteRead:
			if err = writePhase(); err == nil {
				// The overwrite application rewrites the same rows,
				// producing new dataset versions.
				if err = writePhase(); err == nil {
					err = readPhase()
				}
			}
		case WriteAppendRead:
			if err = writePhase(); err == nil {
				if err = appendPhase(); err == nil {
					err = readPhase()
				}
			}
		}
		if err != nil {
			trackErr <- err
			return
		}

		r.Barrier()
		if r.ID() == 0 {
			if err := conn.FileFlush(shared.file); err != nil {
				trackErr <- err
			}
		}
		if st.tracker != nil {
			if err := st.tracker.Close(); err != nil {
				trackErr <- err
			}
		}
	})

	if shared.err != nil {
		return Result{}, shared.err
	}
	select {
	case err := <-trackErr:
		return Result{}, err
	default:
	}

	res := Result{Completion: completion, Store: provStore}
	if shared.file != nil {
		if ds, err := shared.file.Root().OpenDataset("Timestep_0/x"); err == nil {
			res.DatasetVersions = ds.Versions()
		}
		shared.file.Close()
	}
	if provCfg != nil {
		for _, st := range states {
			if st != nil && st.tracker != nil {
				recs, tris := st.tracker.Stats()
				res.Records += recs
				res.Triples += tris
				b, err := core.TextBytes(segcodec.Turtle, st.tracker.Graph())
				if err != nil {
					return Result{}, err
				}
				res.ProvBytes += b
			}
		}
	}
	return res, nil
}

func fill(b []byte, v byte) {
	for i := range b {
		b[i] = v
	}
}
