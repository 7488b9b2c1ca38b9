package provio

import (
	"fmt"
	"io"

	"github.com/hpc-io/prov-io/internal/adios"
	"github.com/hpc-io/prov-io/internal/core"
	"github.com/hpc-io/prov-io/internal/hdf5"
	"github.com/hpc-io/prov-io/internal/model"
	"github.com/hpc-io/prov-io/internal/mpi"
	"github.com/hpc-io/prov-io/internal/posixio"
	"github.com/hpc-io/prov-io/internal/provjson"
	"github.com/hpc-io/prov-io/internal/rdf"
	"github.com/hpc-io/prov-io/internal/rdf/segcodec"
	"github.com/hpc-io/prov-io/internal/simclock"
	"github.com/hpc-io/prov-io/internal/sparql"
	"github.com/hpc-io/prov-io/internal/vfs"
	"github.com/hpc-io/prov-io/internal/viz"
	"github.com/hpc-io/prov-io/internal/vol"
)

// ---- RDF layer ----

// Term is one RDF term (IRI, blank node, or literal).
type Term = rdf.Term

// Triple is one RDF statement.
type Triple = rdf.Triple

// Graph is an in-memory indexed RDF graph.
type Graph = rdf.Graph

// Namespaces maps prefixes to IRI bases.
type Namespaces = rdf.Namespaces

// NewGraph returns an empty RDF graph.
func NewGraph() *Graph { return rdf.NewGraph() }

// Term constructors.
var (
	IRI          = rdf.IRI
	Blank        = rdf.Blank
	Literal      = rdf.Literal
	TypedLiteral = rdf.TypedLiteral
	Integer      = rdf.Integer
	Double       = rdf.Double
	Decimal      = rdf.Decimal
	Boolean      = rdf.Boolean
)

// WriteTurtle serializes a graph as Turtle.
func WriteTurtle(w io.Writer, g *Graph, ns *Namespaces) error { return rdf.WriteTurtle(w, g, ns) }

// ParseTurtle parses a Turtle document.
func ParseTurtle(r io.Reader) (*Graph, *Namespaces, error) { return rdf.ParseTurtle(r) }

// ---- PROV-IO model ----

// Class is one PROV-IO model sub-class.
type Class = model.Class

// Relation is one PROV-IO model relation.
type Relation = model.Relation

// The Data Object (Entity) sub-classes.
var (
	ModelDirectory = model.Directory
	ModelFile      = model.File
	ModelGroup     = model.Group
	ModelDataset   = model.Dataset
	ModelAttribute = model.Attribute
	ModelDatatype  = model.Datatype
	ModelLink      = model.Link
)

// The I/O API (Activity) sub-classes.
var (
	ModelCreate = model.Create
	ModelOpen   = model.Open
	ModelRead   = model.Read
	ModelWrite  = model.Write
	ModelFsync  = model.Fsync
	ModelRename = model.Rename
)

// The Agent sub-classes.
var (
	ModelUser    = model.User
	ModelThread  = model.Thread
	ModelProgram = model.Program
)

// The Extensible Class sub-classes.
var (
	ModelType          = model.Type
	ModelConfiguration = model.Configuration
	ModelMetrics       = model.Metrics
)

// ModelClasses returns every sub-class in Table 2 order.
func ModelClasses() []Class { return model.AllClasses() }

// ModelRelations returns the model's relations.
func ModelRelations() []Relation { return model.AllRelations() }

// ModelNamespaces returns the prov/provio/rdf/xsd prefix table.
func ModelNamespaces() *Namespaces { return model.Namespaces() }

// NodeIRI mints the GUID node IRI for a data object/agent identity.
func NodeIRI(class Class, identity string) string { return model.NodeIRI(class, identity) }

// ---- Core library: config, tracker, store ----

// Config selects tracked sub-classes and store behavior.
type Config = core.Config

// Tracker is the per-process PROV-IO library instance.
type Tracker = core.Tracker

// Store is the provenance store (per-process sub-graph files + merge).
type Store = core.Store

// StoreBackend abstracts provenance store placement: a directory, the
// simulated PFS, an in-memory namespace, a single-file .pvs archive, or a
// mount spanning several (DESIGN.md "Store backends & mounts").
type StoreBackend = core.StoreBackend

// Backend is StoreBackend's historical name.
type Backend = core.Backend

// VFSBackend stores provenance in the simulated PFS.
type VFSBackend = core.VFSBackend

// OSBackend stores provenance on the host filesystem.
type OSBackend = core.OSBackend

// Backend capability bits reported by StoreBackend.Caps.
const (
	CapAtomicWrite = core.CapAtomicWrite
	CapPersistent  = core.CapPersistent
	CapArchive     = core.CapArchive
)

// CapsString renders capability bits for display.
func CapsString(caps uint32) string { return core.CapsString(caps) }

// Format names the store's write codec: pbs, the zero value and the only
// one NewStore accepts, and the only one reads and the audit take. A store
// an older build wrote, as text or in an older pbs version, still opens, but
// every path returns ErrNeedsMigration.
type Format = core.Format

// FormatBinary is the ID-space binary segment codec (.pbs).
const FormatBinary = core.FormatBinary

// Mode selects when the in-memory sub-graph is serialized: once at the end
// of the workflow, or periodically every FlushEvery records.
type Mode = core.Mode

// Serialization modes.
const (
	ModeAtEnd    = core.ModeAtEnd
	ModePeriodic = core.ModePeriodic
)

// Pipeline selects how periodic flushes reach the store: an async
// background writer appending delta segments (default), inline delta
// segments, or inline full re-serialization.
type Pipeline = core.Pipeline

// Flush pipelines.
const (
	PipelineAsync  = core.PipelineAsync
	PipelineDelta  = core.PipelineDelta
	PipelineInline = core.PipelineInline
)

// DefaultConfig enables every sub-class.
func DefaultConfig() *Config { return core.DefaultConfig() }

// ScenarioConfig enables exactly the listed sub-classes.
func ScenarioConfig(duration bool, classes ...string) *Config {
	return core.ScenarioConfig(duration, classes...)
}

// LoadConfig parses a PROV-IO configuration file.
func LoadConfig(r io.Reader) (*Config, error) { return core.LoadConfig(r) }

// NewStore creates a provenance store under dir.
func NewStore(b Backend, dir string, f Format) (*Store, error) { return core.NewStore(b, dir, f) }

// OpenStore opens a provenance store from a spec string: dir:/path (or a
// bare path), mem:, file:/path.pvs, or mount:hot=SPEC,cold=SPEC — the form
// the CLI tools' -store flag and the config file's store key accept.
func OpenStore(spec string, f Format) (*Store, error) { return core.OpenStore(spec, f) }

// NewTracker creates the PROV-IO library instance for process pid.
func NewTracker(cfg *Config, store *Store, pid int) *Tracker {
	return core.NewTracker(cfg, store, pid)
}

// ReduceLineage extracts the provenance sub-graph within maxHops lineage
// edges of the roots (provenance reduction; maxHops<=0 is unbounded). The
// closure is memoized on the graph's current snapshot — a repeat against an
// unchanged graph is served from the cache, and any Add invalidates it.
// Treat the returned graph as read-only; use ReduceLineageUncached for a
// private copy.
func ReduceLineage(g *Graph, roots []Term, maxHops int) *Graph {
	return core.ReduceLineage(g, roots, maxHops)
}

// ReduceLineageUncached is ReduceLineage without the snapshot memo: the
// caller owns the returned graph.
func ReduceLineageUncached(g *Graph, roots []Term, maxHops int) *Graph {
	return core.ReduceLineageUncached(g, roots, maxHops)
}

// ---- Leveled segments & statistics pushdown ----

// SegmentPruner is the pushdown hint of a pruned store read: the union of
// triple patterns the read could touch. Store.MergePruned skips segments
// (and whole packs) whose embedded statistics prove no pattern can match.
type SegmentPruner = core.SegmentPruner

// PrunePattern is one triple pattern of a SegmentPruner; nil positions are
// unbound.
type PrunePattern = core.PrunePattern

// ScanStats reports what a pruned read decoded versus skipped, per level
// (Store.MergePruned, LazySource.Stats, LazyView.ReduceLineagePruned).
type ScanStats = core.ScanStats

// LevelScan is one level's slice of a ScanStats.
type LevelScan = core.LevelScan

// LevelInfo is one level's occupancy in Store.Levels' layout report.
type LevelInfo = core.LevelInfo

// ErrNothingToPack is returned by Store.PackSegments when the store holds
// no segments or lower-level packs to fold.
var ErrNothingToPack = core.ErrNothingToPack

// PrunerForQuery derives a segment pruner from a parsed SPARQL query — the
// glue between ParseQuery and Store.MergePruned. It returns nil (prune
// nothing) when the query's shape forbids pushdown (zero-length property
// paths).
func PrunerForQuery(q *sparql.Query) *SegmentPruner {
	pats, ok := q.PrunePatterns()
	if !ok {
		return nil
	}
	pr := &SegmentPruner{}
	for _, p := range pats {
		pr.Patterns = append(pr.Patterns, PrunePattern{S: p[0], P: p[1], O: p[2]})
	}
	return pr
}

// MergeStores unifies several runs' provenance stores into one graph
// (cross-run provenance).
func MergeStores(stores ...*Store) (*Graph, error) { return core.MergeStores(stores...) }

// ---- Out-of-core execution: lazy views & the decoded-unit cache ----

// CacheConfig bounds a LazyView's decoded-unit cache (MaxBytes <= 0 is
// unbounded).
type CacheConfig = core.CacheConfig

// CacheStats is a point-in-time report of a lazy view's cache counters.
type CacheStats = core.CacheStats

// LazyView is the out-of-core read handle of a store (Store.OpenLazy): the
// layout pinned at open time plus a byte-budgeted cache of decoded units.
type LazyView = core.LazyView

// LazySource federates a lazy view's per-unit snapshots behind the query
// engine's source interface for one query (LazyView.Source).
type LazySource = core.LazySource

// LevelResidency is one level's disk/decoded/resident byte breakdown of a
// lazy view (LazyView.LevelResidency) — the sizing input for -cache-bytes.
type LevelResidency = core.LevelResidency

// ErrStaleView classifies a lazy read that found the store layout changed
// under an open view (a concurrent Compact or PackSegments); reopen with
// Store.OpenLazy.
var ErrStaleView = core.ErrStaleView

// ErrNeedsMigration classifies every path — a merge, a lazy view or query,
// Verify and VerifyAgainst, Compact, PackSegments, a tracker's first write —
// on a store holding a file only an older build wrote: a text store file or
// its .sum seal, a pbs v1–v4 file, or a pack of such files. Its message names
// the build that migrates the store: provio-merge -compact built from commit
// 93a6ed8 audits it and rewrites it as sealed pbs v5 (DESIGN.md "Migrating
// an older store").
var ErrNeedsMigration = segcodec.ErrNeedsMigration

// The federated lazy source must satisfy the morsel-parallel scan surface —
// this is the contract that lets Query run the unchanged engine over a
// store larger than the cache budget.
var _ sparql.ScanSource = (*core.LazySource)(nil)

// ---- Integrity: verification, hash chains, crash harness ----

// VerifyReport is the result of auditing a store end-to-end (Store.Verify,
// Store.VerifyAgainst): codec-level decode checks, seal consistency, and
// per-process hash-chain continuity.
type VerifyReport = core.VerifyReport

// Defect is one integrity finding of a store audit.
type Defect = core.Defect

// DefectKind classifies an integrity finding.
type DefectKind = core.DefectKind

// Defect kinds, in rising severity.
const (
	DefectOrphaned  = core.DefectOrphaned
	DefectMissing   = core.DefectMissing
	DefectTruncated = core.DefectTruncated
	DefectTampered  = core.DefectTampered
)

// IntegrityError is returned by Store.Compact when a store's damage is not
// attributable to an interrupted write of unacknowledged data.
type IntegrityError = core.IntegrityError

// ParseHeads parses a chain-heads anchor document, the format written by
// VerifyReport.FormatHeads and provio-verify -write-heads.
func ParseHeads(data []byte) (map[int][32]byte, error) { return core.ParseHeads(data) }

// CrashSweepConfig parameterizes the deterministic crash-consistency sweep.
type CrashSweepConfig = core.CrashSweepConfig

// CrashSweepReport summarizes a crash-consistency sweep.
type CrashSweepReport = core.CrashSweepReport

// RunCrashSweep crashes a fixed tracking workload at every mutating-write
// boundary and checks that recovery never loses acknowledged records
// (provio-verify -selftest).
func RunCrashSweep(cfg CrashSweepConfig) (*CrashSweepReport, error) {
	return core.RunCrashSweep(cfg)
}

// ---- ADIOS-style I/O library (second integrated library) ----

// ADIOSEngine is a step-oriented I/O engine in the ADIOS style with
// built-in PROV-IO integration.
type ADIOSEngine = adios.Engine

// ADIOSMode selects engine direction.
type ADIOSMode = adios.Mode

// ADIOS engine modes.
const (
	ADIOSWrite = adios.ModeWrite
	ADIOSRead  = adios.ModeRead
)

// OpenADIOS opens an ADIOS-style engine on the simulated filesystem.
func OpenADIOS(view *FSView, path string, mode ADIOSMode) (*ADIOSEngine, error) {
	return adios.Open(view, path, mode)
}

// ---- Hierarchical data format (HDF5-analog) + VOL ----

// H5File is an open hierarchical-format file.
type H5File = hdf5.File

// H5Group is a group handle.
type H5Group = hdf5.Group

// H5Dataset is a dataset handle.
type H5Dataset = hdf5.Dataset

// H5Datatype describes element types.
type H5Datatype = hdf5.Datatype

// H5Object is any attribute-bearing object.
type H5Object = hdf5.Object

// Predefined datatypes.
var (
	TypeInt32   = hdf5.TypeInt32
	TypeInt64   = hdf5.TypeInt64
	TypeUint8   = hdf5.TypeUint8
	TypeFloat32 = hdf5.TypeFloat32
	TypeFloat64 = hdf5.TypeFloat64
	TypeString  = hdf5.TypeString
)

// Connector is the VOL plugin interface.
type Connector = vol.Connector

// Context carries the agents I/O is attributed to.
type Context = vol.Context

// NewNativeConnector returns the terminal VOL connector over a filesystem
// view.
func NewNativeConnector(view *FSView) *vol.Native { return vol.NewNative(view) }

// NewProvConnector stacks the PROV-IO Lib Connector on next.
func NewProvConnector(next Connector, t *Tracker, ctx Context, clock *Clock) *vol.ProvConnector {
	return vol.NewProvConnector(next, t, ctx, clock)
}

// NewCostConnector stacks the experiment cost model on next.
func NewCostConnector(next Connector, clock *Clock, cost CostModel, byteScale float64, ranks int) *vol.CostConnector {
	return vol.NewCostConnector(next, clock, cost, byteScale, ranks)
}

// Attribute helpers on hierarchical objects.
var (
	SetStringAttribute  = hdf5.SetStringAttribute
	GetStringAttribute  = hdf5.GetStringAttribute
	SetInt64Attribute   = hdf5.SetInt64Attribute
	GetInt64Attribute   = hdf5.GetInt64Attribute
	SetFloat64Attribute = hdf5.SetFloat64Attribute
	GetFloat64Attribute = hdf5.GetFloat64Attribute
	ListAttributes      = hdf5.ListAttributes
)

// ---- POSIX wrapper ----

// POSIXFS is the wrapped (interposed) POSIX filesystem.
type POSIXFS = posixio.FS

// POSIXFile is a wrapped open file.
type POSIXFile = posixio.File

// POSIXAgent identifies who performs wrapped I/O.
type POSIXAgent = posixio.Agent

// POSIXOptions configures the wrapper.
type POSIXOptions = posixio.Options

// WrapPOSIX splices the PROV-IO syscall wrapper in front of a view.
func WrapPOSIX(view *FSView, t *Tracker, agent POSIXAgent, opts POSIXOptions) *POSIXFS {
	return posixio.Wrap(view, t, agent, opts)
}

// DefaultPOSIXOptions tracks everything.
func DefaultPOSIXOptions() POSIXOptions { return posixio.DefaultOptions() }

// POSIX open flags.
const (
	O_RDONLY = vfs.O_RDONLY
	O_WRONLY = vfs.O_WRONLY
	O_RDWR   = vfs.O_RDWR
	O_CREATE = vfs.O_CREATE
	O_TRUNC  = vfs.O_TRUNC
	O_APPEND = vfs.O_APPEND
	O_EXCL   = vfs.O_EXCL
)

// ---- Simulation substrate ----

// MemStore is the shared in-memory parallel-filesystem namespace.
type MemStore = vfs.Store

// FSView is a process-local handle on a MemStore.
type FSView = vfs.View

// Clock is a virtual clock.
type Clock = simclock.Clock

// CostModel holds the calibrated simulation constants.
type CostModel = simclock.CostModel

// NewMemStore returns an empty simulated filesystem.
func NewMemStore() *MemStore { return vfs.NewStore() }

// NewClock returns a virtual clock at zero.
func NewClock() *Clock { return simclock.NewClock() }

// DefaultCostModel returns the calibrated experiment cost model.
func DefaultCostModel() CostModel { return simclock.Default() }

// MPIRank is the per-rank context of the MPI simulator.
type MPIRank = mpi.Rank

// MPIRun executes fn on every rank and returns the simulated completion
// time (max over rank clocks).
var MPIRun = mpi.Run

// ---- User engine: query + visualization ----

// QueryResult is a SPARQL solution sequence.
type QueryResult = sparql.Result

// Binding maps variable names to terms.
type Binding = sparql.Binding

// QueryInfo reports how a query was served: from the epoch-keyed result
// cache, by the parallel executor (with task count), or serially (with the
// named reason).
type QueryInfo = sparql.ExecInfo

// QuerySource is what Query and Explain run over: a *Graph (a merged store
// or a live tracker graph) or a *LazySource (LazyView.Source — out-of-core
// execution over a store larger than memory).
type QuerySource = sparql.Source

// ParseQuery parses a SPARQL SELECT query without evaluating it.
func ParseQuery(query string) (*sparql.Query, error) {
	return sparql.Parse(query, model.Namespaces())
}

// Query parses and evaluates a SPARQL SELECT query against src, with the
// PROV-IO namespaces pre-bound. Over a *Graph, evaluation pins an immutable
// snapshot — queries and concurrent tracking do not block each other — and
// goes through the snapshot-keyed result cache (any Add invalidates it).
// Over a *LazySource the rows are byte-identical to the merged graph's, and
// the source's sticky view error (ErrStaleView, a corrupted unit) is checked
// after evaluation and returned instead of rows, since the engine's source
// interface cannot carry errors. workers > 1 partitions the plan's leading
// operator across that many goroutines; results are byte-identical at any
// worker count.
func Query(src QuerySource, query string, workers int) (*QueryResult, QueryInfo, error) {
	switch src := src.(type) {
	case *Graph:
		return sparql.ExecParallelInfo(src, query, model.Namespaces(), workers)
	case *LazySource:
		q, err := ParseQuery(query)
		if err != nil {
			return nil, QueryInfo{Workers: workers}, err
		}
		res, info, err := sparql.EvalParallelOnInfo(src, q, workers)
		if err == nil {
			err = src.Err()
		}
		if err != nil {
			return nil, info, err
		}
		return res, info, nil
	default:
		return nil, QueryInfo{Workers: workers}, errUnsupportedSource(src)
	}
}

// Explain compiles the query against src and returns the planner's EXPLAIN
// rendering — the cardinality-ordered join plan (estimated from unit
// statistics on a lazy source) — without executing, followed by the
// parallel-execution decision for the given worker count: the task
// decomposition, or the named reason the plan would run serially.
func Explain(src QuerySource, query string, workers int) (string, error) {
	switch src := src.(type) {
	case *Graph:
		return sparql.Explain(src.Snapshot(), query, model.Namespaces(), workers)
	case *LazySource:
		out, err := sparql.Explain(src, query, model.Namespaces(), workers)
		if err == nil {
			err = src.Err()
		}
		if err != nil {
			return "", err
		}
		return out, nil
	default:
		return "", errUnsupportedSource(src)
	}
}

func errUnsupportedSource(src QuerySource) error {
	return fmt.Errorf("provio: unsupported query source %T (want *Graph or *LazySource)", src)
}

// VizOptions controls DOT rendering.
type VizOptions = viz.Options

// WriteDOT renders a provenance graph as Graphviz DOT.
func WriteDOT(w io.Writer, g *Graph, opts VizOptions) error { return viz.WriteDOT(w, g, opts) }

// LineageHighlight computes the node set of a product's backward lineage.
func LineageHighlight(g *Graph, product Term) map[string]bool {
	return viz.LineageHighlight(g, product)
}

// ExportPROVJSON writes the graph as a W3C PROV-JSON interchange document.
func ExportPROVJSON(w io.Writer, g *Graph) error { return provjson.ExportTo(w, g) }
