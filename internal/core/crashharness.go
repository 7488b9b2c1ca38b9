package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/hpc-io/prov-io/internal/backend"
	"github.com/hpc-io/prov-io/internal/faultfs"
	"github.com/hpc-io/prov-io/internal/model"
	"github.com/hpc-io/prov-io/internal/rdf"
	"github.com/hpc-io/prov-io/internal/vfs"
)

// The crash-consistency sweep (DESIGN.md "Integrity & fault injection"): a
// deterministic harness that runs a fixed tracking workload against a
// faultfs-wrapped in-memory store, kills it at EVERY mutating-operation
// boundary (optionally with torn variants of the crashing write), then
// recovers with Compact and audits with Verify. The invariant, per crash
// point:
//
//	acknowledged ⊆ recovered ⊆ tracked
//
// where "acknowledged" is what the tracker had confirmed durable (a
// nil-returning Flush or Close) before the crash, "recovered" is the merge
// of the store after Compact, and "tracked" is everything the workload ever
// recorded — i.e. no acknowledged record is lost, nothing appears from
// nowhere (graph set-semantics rule out duplication). When Compact instead
// refuses, the refusal must be verifiable: Verify has to report defects.
// Any other outcome is a Violation.

// CrashSweepConfig parameterizes one sweep. The zero value of Records and
// FlushEvery picks a small workload that still exercises segment writes,
// canonical rewrites, and segment removal.
type CrashSweepConfig struct {
	Seed       int64
	Records    int
	FlushEvery int
	// Torn adds prefix-truncated variants of each crashing write (none,
	// half, all-but-one byte), modeling non-atomic filesystems. Without it
	// every crash point is all-or-nothing, which is what the store's own
	// backends guarantee (OSBackend writes via temp file + rename).
	Torn bool
	// Backend selects the substrate under fault injection: "vfs" (the
	// default, the simulated PFS), "mem", "file" (a real on-disk .pvs
	// archive, reopened fresh from disk for recovery so journal replay is in
	// the loop), or "mount" (hot/cold tiers of separate mem backends, so
	// tier routing and fallback run under every crash point). The in-memory
	// substrates model the store's crash-consistency logic, not media
	// durability — their state survives in-object across the simulated
	// restart, exactly as the vfs sweep always has.
	Backend string
}

// CrashSweepReport summarizes a sweep.
type CrashSweepReport struct {
	Ops          int // mutating operations in the crash-free schedule
	Points       int // crash variants exercised
	TornVariants int // variants with a torn crashing write
	Recovered    int // Compact succeeded and every invariant held
	Rejected     int // Compact refused, and Verify confirmed the damage
	Violations   []string
}

func (r *CrashSweepReport) String() string {
	return fmt.Sprintf("crash sweep: %d ops, %d points (%d torn): %d recovered, %d rejected, %d violations",
		r.Ops, r.Points, r.TornVariants, r.Recovered, r.Rejected, len(r.Violations))
}

func (c *CrashSweepConfig) withDefaults() CrashSweepConfig {
	out := *c
	if out.Records <= 0 {
		out.Records = 6
	}
	if out.FlushEvery <= 0 {
		out.FlushEvery = 2
	}
	if out.Backend == "" {
		out.Backend = "vfs"
	}
	return out
}

// newInner builds one fresh substrate of the configured kind, plus a reopen
// function modeling the post-crash restart (for the file backend that means
// replaying the on-disk journal into a brand-new Archive) and a cleanup for
// any host-filesystem scratch state.
func (c CrashSweepConfig) newInner() (inner Backend, reopen func() (Backend, error), cleanup func(), err error) {
	same := func(b Backend) func() (Backend, error) {
		return func() (Backend, error) { return b, nil }
	}
	noop := func() {}
	switch c.Backend {
	case "", "vfs":
		b := VFSBackend{View: vfs.NewStore().NewView()}
		return b, same(b), noop, nil
	case "mem":
		b := backend.NewMem()
		return b, same(b), noop, nil
	case "mount":
		m, merr := backend.NewMount("/prov",
			backend.Tier{Name: "hot", Hot: true, B: backend.NewMem(), Root: "/prov"},
			backend.Tier{Name: "cold", Hot: false, B: backend.NewMem(), Root: "/prov"})
		if merr != nil {
			return nil, nil, nil, merr
		}
		return m, same(m), noop, nil
	case "file":
		dir, derr := os.MkdirTemp("", "provio-crash-*")
		if derr != nil {
			return nil, nil, nil, derr
		}
		path := filepath.Join(dir, "store.pvs")
		a, aerr := backend.OpenArchive(path)
		if aerr != nil {
			os.RemoveAll(dir)
			return nil, nil, nil, aerr
		}
		return a, func() (Backend, error) { return backend.OpenArchive(path) },
			func() { os.RemoveAll(dir) }, nil
	default:
		return nil, nil, nil, fmt.Errorf("core: unknown crash-sweep backend %q (want vfs, mem, file, or mount)", c.Backend)
	}
}

// ntLines renders a graph as its set of N-Triples lines, the record-level
// fingerprint the sweep's invariants compare.
func ntLines(g *rdf.Graph) map[string]bool {
	set := make(map[string]bool)
	if g == nil {
		return set
	}
	var buf bytes.Buffer
	if err := rdf.WriteNTriples(&buf, g); err != nil {
		return set
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if line != "" {
			set[line] = true
		}
	}
	return set
}

// crashWorkload runs the fixed tracking workload against backend. It returns
// the acknowledged set (the graph at the last nil-returning Flush/Close —
// conservative: deferred async errors surface there too) and the tracked set
// (everything recorded, durable or not). PipelineDelta keeps every store
// write on the tracking goroutine, so the mutating-operation schedule is
// identical on every run and crash points enumerate deterministically.
func crashWorkload(backend Backend, cfg CrashSweepConfig) (acked, tracked map[string]bool) {
	acked = map[string]bool{}
	store, err := NewStore(backend, "/prov", FormatBinary)
	if err != nil {
		return acked, map[string]bool{}
	}
	tcfg := DefaultConfig()
	tcfg.Mode = ModePeriodic
	tcfg.FlushEvery = cfg.FlushEvery
	tcfg.Pipeline = PipelineDelta
	tr := NewTracker(tcfg, store, 0)
	half := cfg.Records / 2
	for i := 0; i < cfg.Records; i++ {
		tr.TrackIO(model.Write, fmt.Sprintf("crash_op_%03d", i), rdf.Term{}, rdf.Term{},
			time.Duration(i)*time.Millisecond, time.Microsecond)
		if i == half {
			// Mid-run durability point: Flush rewrites the canonical file and
			// removes the segments, putting removal boundaries in the sweep.
			if err := tr.Flush(); err == nil {
				acked = ntLines(tr.Graph())
			}
		}
	}
	if err := tr.Close(); err == nil {
		acked = ntLines(tr.Graph())
	}
	return acked, ntLines(tr.Graph())
}

func subset(a, b map[string]bool) bool {
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// runCrashPoint exercises one crash variant: crash at mutating operation
// `point`, with `torn` bytes of the crashing write persisted. It reports
// whether Compact recovered (as opposed to verifiably rejecting) and a
// non-empty violation when any invariant broke.
func runCrashPoint(cfg CrashSweepConfig, point, torn int) (recovered bool, violation string) {
	cfg = cfg.withDefaults()
	tag := fmt.Sprintf("%s point %d torn %d", cfg.Backend, point, torn)
	inner, reopen, cleanup, err := cfg.newInner()
	if err != nil {
		return false, fmt.Sprintf("%s: building substrate: %v", tag, err)
	}
	defer cleanup()
	fs := faultfs.New(inner, cfg.Seed).CrashAt(point, torn)
	acked, tracked := crashWorkload(fs, cfg)
	if !fs.Crashed() {
		return false, fmt.Sprintf("%s: crash never fired (%d mutating ops)", tag, fs.Ops())
	}

	// Recovery: reopen the surviving state with a fresh store, compact, audit.
	rinner, err := reopen()
	if err != nil {
		return false, fmt.Sprintf("%s: reopening the substrate: %v", tag, err)
	}
	rstore, err := NewStore(rinner, "/prov", FormatBinary)
	if err != nil {
		return false, fmt.Sprintf("%s: reopening the store: %v", tag, err)
	}
	if cerr := rstore.Compact(); cerr != nil {
		rep, verr := rstore.Verify()
		switch {
		case verr != nil:
			return false, fmt.Sprintf("%s: Verify failed after Compact refusal: %v", tag, verr)
		case rep.Clean():
			return false, fmt.Sprintf("%s: Compact refused (%v) but the store verifies clean", tag, cerr)
		}
		return false, "" // verifiable rejection
	}
	rep, verr := rstore.Verify()
	switch {
	case verr != nil:
		return false, fmt.Sprintf("%s: Verify after recovery: %v", tag, verr)
	case !rep.Clean():
		return false, fmt.Sprintf("%s: recovered store has defects: %v", tag, rep.Defects)
	}
	g, merr := rstore.Merge()
	if merr != nil {
		return false, fmt.Sprintf("%s: merging the recovered store: %v", tag, merr)
	}
	merged := ntLines(g)
	// The recovered bytes must also be reachable out-of-core: a lazy view
	// forced to page every unit through a tiny cache (nothing stays
	// resident, every read re-fetches and re-verifies) has to reproduce the
	// eager merge exactly. This keeps lazy reads inside the sweep's loop at
	// every crash point.
	lv, lerr := rstore.OpenLazy(CacheConfig{MaxBytes: 1})
	if lerr != nil {
		return false, fmt.Sprintf("%s: opening lazy view over recovered store: %v", tag, lerr)
	}
	lg, _, lerr := lv.MaterializeGraph(2)
	if lerr != nil {
		return false, fmt.Sprintf("%s: lazy materialize over recovered store: %v", tag, lerr)
	}
	if lmerged := ntLines(lg); !subset(merged, lmerged) || !subset(lmerged, merged) {
		return false, fmt.Sprintf("%s: lazy view and eager merge disagree after recovery", tag)
	}
	if !subset(acked, merged) {
		return false, fmt.Sprintf("%s: acknowledged records lost (%d acked, %d recovered)",
			tag, len(acked), len(merged))
	}
	if !subset(merged, tracked) {
		return false, fmt.Sprintf("%s: recovered records that were never tracked", tag)
	}
	return true, ""
}

// RunCrashSweep probes the workload's crash-free operation schedule, then
// replays it once per mutating-operation boundary (plus torn variants),
// checking recovery invariants at each. The error covers harness setup only;
// invariant breaks land in the report's Violations.
func RunCrashSweep(cfg CrashSweepConfig) (*CrashSweepReport, error) {
	cfg = cfg.withDefaults()
	probeInner, _, probeCleanup, err := cfg.newInner()
	if err != nil {
		return nil, err
	}
	defer probeCleanup()
	probe := faultfs.New(probeInner, cfg.Seed)
	acked, tracked := crashWorkload(probe, cfg)
	if len(acked) == 0 || !subset(acked, tracked) || !subset(tracked, acked) {
		return nil, fmt.Errorf("core: crash sweep probe run did not acknowledge its full workload")
	}
	var muts []faultfs.Op
	for _, op := range probe.Trace() {
		switch op.Kind {
		case faultfs.OpMkdir, faultfs.OpWrite, faultfs.OpRemove:
			muts = append(muts, op)
		}
	}
	rep := &CrashSweepReport{Ops: len(muts)}
	for k, op := range muts {
		torns := []int{0}
		if cfg.Torn && op.Kind == faultfs.OpWrite && op.Size > 1 {
			torns = append(torns, op.Size/2)
			if op.Size-1 != op.Size/2 {
				torns = append(torns, op.Size-1)
			}
		}
		for _, torn := range torns {
			rep.Points++
			if torn > 0 {
				rep.TornVariants++
			}
			recovered, violation := runCrashPoint(cfg, k, torn)
			switch {
			case violation != "":
				rep.Violations = append(rep.Violations, violation)
			case recovered:
				rep.Recovered++
			default:
				rep.Rejected++
			}
		}
	}
	return rep, nil
}
