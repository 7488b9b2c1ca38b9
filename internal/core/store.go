package core

import (
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"sync"

	"github.com/hpc-io/prov-io/internal/backend"
	"github.com/hpc-io/prov-io/internal/model"
	"github.com/hpc-io/prov-io/internal/rdf"
	"github.com/hpc-io/prov-io/internal/rdf/segcodec"
	"github.com/hpc-io/prov-io/internal/vfs"
)

// StoreBackend abstracts where the Provenance Store keeps its files: a
// directory on the real filesystem, the simulated Lustre namespace (vfs)
// during experiments, an in-memory namespace, a single-file archive, or a
// mount spanning several of those (see internal/backend and DESIGN.md
// "Store backends & mounts"). The store's whole write model fits this
// interface — whole-file reads and writes of named files inside one logical
// directory — which is what keeps the chain, verification, and recovery code
// backend-agnostic. The method set and its contract are declared once, as
// backend.Storage.
type StoreBackend = backend.Storage

// Backend is the StoreBackend interface's historical name, kept for the
// existing construction call sites.
type Backend = StoreBackend

// Capability bits re-exported from the backend package so callers holding
// only a core.StoreBackend can interpret Caps.
const (
	CapAtomicWrite = backend.CapAtomicWrite
	CapPersistent  = backend.CapPersistent
	CapArchive     = backend.CapArchive
)

// CapsString renders capability bits for tooling output.
func CapsString(caps uint32) string { return backend.CapsString(caps) }

// VFSBackend stores provenance in a vfs view (the simulated PFS).
type VFSBackend struct{ View *vfs.View }

// MkdirAll implements StoreBackend.
func (b VFSBackend) MkdirAll(dir string) error { return b.View.MkdirAll(dir) }

// WriteFile implements StoreBackend.
func (b VFSBackend) WriteFile(path string, data []byte) error { return b.View.WriteFile(path, data) }

// ReadFile implements StoreBackend.
func (b VFSBackend) ReadFile(path string) ([]byte, error) { return b.View.ReadFile(path) }

// ReadFileRange reads [off, off+n) of a file, clamped to its size — the
// partial-read capability pruned and lazy pack reads probe for, so stores on
// the simulated PFS exercise the same range-read path as dir/mem/file
// backends. The vfs keeps whole files in memory, so the range is a slice.
func (b VFSBackend) ReadFileRange(path string, off, n int64) ([]byte, error) {
	data, err := b.View.ReadFile(path)
	if err != nil {
		return nil, err
	}
	size := int64(len(data))
	if off < 0 {
		off = 0
	}
	if off > size {
		off = size
	}
	if n < 0 || off+n > size {
		n = size - off
	}
	return data[off : off+n], nil
}

// Remove implements StoreBackend.
func (b VFSBackend) Remove(path string) error { return b.View.Remove(path) }

// List implements StoreBackend.
func (b VFSBackend) List(dir string) ([]string, error) {
	infos, err := b.View.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(infos))
	for _, fi := range infos {
		if !fi.IsDir {
			names = append(names, fi.Name)
		}
	}
	return names, nil
}

// Stat implements StoreBackend.
func (b VFSBackend) Stat(path string) (int64, error) {
	fi, err := b.View.Stat(path)
	if err != nil {
		return 0, err
	}
	return fi.Size, nil
}

// Caps implements StoreBackend. The vfs models a crash-consistent PFS whose
// writes are whole-file and journaled, but its contents die with the process.
func (VFSBackend) Caps() uint32 { return backend.CapAtomicWrite }

// OSBackend stores provenance on the host filesystem; it is the directory
// backend of the backend package under its historical core name.
type OSBackend = backend.Dir

// Store is the Provenance Store component: a directory of per-process
// sub-graph files plus merge support.
//
// The store writes one codec, pbs v5 (DESIGN.md "Store codecs"), every file
// sealed in-band, and reads and audits nothing else: a store holding a file
// only an older build wrote refuses every path with ErrNeedsMigration
// (DESIGN.md "Migrating an older store").
type Store struct {
	backend Backend
	dir     string
	prefix  string // dirPrefix(dir)

	// Per-process hash-chain heads (DESIGN.md "Integrity & fault
	// injection"): the SHA-256 of the last file sealed for each pid. Every
	// canonical rewrite and delta segment commits to the head it extends;
	// chainMu serializes the read-head/write-file/update-head step so
	// concurrent periodic flushes of one process chain linearly.
	chainMu   sync.Mutex
	chainHead map[int][32]byte
}

// NewStore creates (and mkdir-alls) a provenance store. The store writes
// pbs, the zero Format; any other value is refused.
func NewStore(backend Backend, dir string, format Format) (*Store, error) {
	if format != FormatBinary {
		return nil, fmt.Errorf("core: store format %d: the store writes pbs only (provio-export writes Turtle or N-Triples)", format)
	}
	if err := backend.MkdirAll(dir); err != nil {
		return nil, err
	}
	return &Store{backend: backend, dir: dir, prefix: dirPrefix(dir), chainHead: make(map[int][32]byte)}, nil
}

// dirPrefix is dir as a path prefix: dirPrefix(dir)+name is
// filepath.Join(dir, name), slash-separated, for every file name.
func dirPrefix(dir string) string {
	p := filepath.ToSlash(filepath.Join(dir, "_"))
	return p[:len(p)-1]
}

// OpenStore opens a store from a spec string — the URI-style form every CLI
// tool's -store accepts (the backend.Open grammar):
//
//	dir:/path (or a bare path)   directory store
//	mem:                         in-memory store
//	file:/path.pvs               single-file archive store
//	mount:hot=SPEC,cold=SPEC     mounted store spanning two backends
//
// The spec names both the backend and the logical store directory, so this
// is the one call sites need instead of pairing NewStore with a hand-built
// backend.
func OpenStore(spec string, format Format) (*Store, error) {
	b, dir, err := backend.Open(spec)
	if err != nil {
		return nil, err
	}
	return NewStore(b, dir, format)
}

// Backend returns the store's backend.
func (s *Store) Backend() StoreBackend { return s.backend }

// path returns the path of a file in the store directory.
func (s *Store) path(name string) string { return s.prefix + name }

// namePath returns the path of a store file, formatted in one allocation.
func (s *Store) namePath(n storeName) string {
	var buf [128]byte
	return string(n.appendTo(append(buf[:0], s.prefix...)))
}

// fileBufs recycles the buffers store files are encoded, sealed and written
// from. A backend keeps no reference to the bytes WriteFile was handed
// (backend.Storage), so a buffer is free again once the write returns.
var fileBufs = sync.Pool{New: func() any { return new([]byte) }}

// WriteSubgraph serializes a process sub-graph to its canonical store file,
// replacing any previous flush from the same process. The write seals a new
// chain root: its seal's prev is the chain head it supersedes, which is what
// authenticates segments a crash strands between the canonical rewrite and
// their removal. The graph is encoded from its insertion log, read in place.
func (s *Store) WriteSubgraph(pid int, g *rdf.Graph) error {
	refs, _ := g.LogSince(0)
	return s.writeChained(canonicalName(pid), refs, g, segcodec.Chain{Root: true})
}

// chainPrevLocked returns pid's current chain head, lazily initializing it
// for a store object that did not write the history so far (a restarted
// process, a recovery tool): the chain continues from the digest of the
// pid's existing loose canonical file, or from zero for a brand-new process.
// A store holding a text file, or a canonical file of an older pbs version
// to chain from, refuses the write with ErrNeedsMigration. Caller holds
// s.chainMu.
func (s *Store) chainPrevLocked(pid int) ([32]byte, error) {
	if h, ok := s.chainHead[pid]; ok {
		return h, nil
	}
	l, err := s.listLayout()
	if err != nil {
		return [32]byte{}, err
	}
	var head [32]byte
	for _, f := range l.files {
		if f.kind != kindCanonical || f.pid != pid {
			continue
		}
		data, err := s.backend.ReadFile(s.path(f.name))
		if err != nil {
			return head, err
		}
		if _, err := readable(f, data); errors.Is(err, segcodec.ErrNeedsMigration) {
			return head, err
		}
		head = fileDigest(data)
	}
	s.chainHead[pid] = head
	return head, nil
}

// writeChained encodes refs as the pbs file n and writes it sealed into its
// pid's hash chain: the seal, c with the chain head as its prev, is a
// trailing chain frame appended in the room the encoder left, so the file
// is built, sealed, hashed and written in one buffer, and file and seal land
// in one atomic write.
func (s *Store) writeChained(n storeName, refs []rdf.TripleID, src segcodec.TermSource, c segcodec.Chain) error {
	buf := fileBufs.Get().(*[]byte)
	file := segcodec.AppendSegment((*buf)[:0], refs, src)
	path := s.namePath(n)
	s.chainMu.Lock()
	var err error
	if c.Prev, err = s.chainPrevLocked(n.pid); err == nil {
		file = segcodec.Seal(file, c)
		if err = s.backend.WriteFile(path, file); err == nil {
			s.chainHead[n.pid] = fileDigest(file)
		}
	}
	s.chainMu.Unlock()
	*buf = file[:0]
	fileBufs.Put(buf)
	return err
}

// WriteDeltaSegmentRefs appends one delta segment for a process: the
// insertion-log refs a periodic flush captured since the previous flush.
// Segments are append-only — each flush writes a fresh file — so concurrent
// periodic flushes never rewrite earlier data, and the union of a process's
// canonical file and its segments is its full sub-graph. Compaction (tracker
// Close or Store.Compact) folds segments back into the canonical file.
//
// The refs are serialized straight to ID columns with no term rendering at
// all; the renderer only names the graph whose dictionary they index.
func (s *Store) WriteDeltaSegmentRefs(pid, seg int, refs []rdf.TripleID, r *rdf.TermRenderer) error {
	return s.writeChained(segmentName(pid, seg), refs, r.Graph(), segcodec.Chain{Seq: uint64(seg)})
}

// RemoveSegments deletes every delta segment of a process (after its
// contents were folded into the canonical file).
func (s *Store) RemoveSegments(pid int) error {
	l, err := s.listLayout()
	if err != nil {
		return err
	}
	return s.removeSegments(l, pid)
}

// removeSegments deletes pid's delta segments as the listing l saw them.
func (s *Store) removeSegments(l *storeLayout, pid int) error {
	for _, f := range l.files {
		if f.kind != kindSegment || f.pid != pid {
			continue
		}
		if err := s.backend.Remove(s.path(f.name)); err != nil {
			return err
		}
	}
	return nil
}

// Merge parses every per-process sub-graph (canonical files and pending
// delta segments) and unions them into a single graph. GUID-based node
// identity makes this deduplicate shared nodes (paper §5): agents and data
// objects minted by several processes collapse into single nodes. It is the
// exhaustive, single-worker case of MergePruned, the store's one merge path.
func (s *Store) Merge() (*rdf.Graph, error) {
	g, _, err := s.MergePruned(nil, 1)
	return g, err
}

// Compact folds every process's delta segments into its canonical sub-graph
// file and removes the segments. It is the store-level recovery path for
// runs that crashed between a periodic flush and Close (trackers compact
// their own process on Close). Pids with no segments are left untouched —
// unless the store is mounted and their files sit outside their routed
// tier, in which case Compact relocates them verbatim, the cross-backend
// migration path of the mount layer. Like every path, it refuses a store
// holding a file only an older build wrote with ErrNeedsMigration, before
// it changes a byte.
//
// Compact audits before it folds (the same audit provio-verify runs) and
// recovers exactly the damage an interrupted write of unacknowledged data
// can cause: a defective newest segment — torn, bit-flipped before its seal
// landed, or sealed-but-unconfirmable — is dropped (it was never
// acknowledged: acknowledgement happens strictly after the write completes).
// Any other defect means the store's acknowledged history itself is damaged or
// manipulated; Compact refuses with an *IntegrityError rather than guess,
// and provio-verify classifies the damage.
func (s *Store) Compact() error {
	a, err := s.audit(true)
	if err != nil {
		return err
	}
	// Drop unacknowledged torn tails (at most the newest segment per pid),
	// then re-audit so chain analysis sees the repaired state.
	dropped := false
	for _, pa := range a.pids {
		if len(pa.defects) == 0 || pa.drop == "" {
			continue
		}
		if err := s.backend.Remove(s.path(pa.drop)); err != nil {
			return err
		}
		dropped = true
	}
	if dropped {
		if a, err = s.audit(true); err != nil {
			return err
		}
	}
	if err := a.refuseDefects(); err != nil {
		return err
	}

	pids := make([]int, 0, len(a.pids))
	for pid := range a.pids {
		pids = append(pids, pid)
	}
	sort.Ints(pids)
	mis := misplacer(s.backend)
	for _, pid := range pids {
		pa := a.pids[pid]
		c := pa.canonical
		dirty := len(pa.segs) > 0 || c != nil && c.packed != ""
		// On a mounted store, a clean pid whose canonical file lives outside
		// its routed tier is migration work: rewrite the same bytes through
		// the mount, which homes them on the routed tier and drops the stale
		// copy (write-through cleanup). The files move verbatim — no
		// re-encode, no new seal — so chain heads survive a cross-backend
		// migration byte-for-byte.
		if !dirty && mis != nil && mis.Misplaced(s.path(c.name)) {
			if err := s.backend.WriteFile(s.path(c.name), c.data); err != nil {
				return err
			}
		}
		if !dirty {
			continue
		}
		// The audit decoded each file once, and nothing reads its columns
		// after this merge rewrites them.
		var cols []*segcodec.Columns
		if c != nil {
			cols = append(cols, c.cols)
		}
		for _, f := range pa.segs {
			cols = append(cols, f.cols)
		}
		g, err := sortedUnion(cols)
		if err != nil {
			return err
		}
		// Seal the new root against the pid's actual chain head (the newest
		// authenticated file the audit found), not whatever canonical this
		// store object last saw — recovery with a fresh Store must not fork
		// the chain, or a crash inside Compact itself would be unrecoverable.
		s.chainMu.Lock()
		s.chainHead[pid] = pa.head
		s.chainMu.Unlock()
		if err := s.WriteSubgraph(pid, g); err != nil {
			return err
		}
		if err := s.removeSegments(a.layout, pid); err != nil {
			return err
		}
	}
	// Every packed member is folded above (a pid with packed files is always
	// dirty), so the pack containers are now superseded history.
	for _, p := range a.packs {
		if err := s.backend.Remove(s.path(p.name)); err != nil {
			return err
		}
	}
	return nil
}

// WriteMergedParallel merges all sub-graphs with a pool of decode workers
// and writes the result as prov_merged.pbs, returning the merged graph.
func (s *Store) WriteMergedParallel(workers int) (*rdf.Graph, error) {
	g, _, err := s.MergePruned(nil, workers)
	if err != nil {
		return nil, err
	}
	refs, _ := g.LogSince(0)
	buf := fileBufs.Get().(*[]byte)
	file := segcodec.AppendSegment((*buf)[:0], refs, g)
	err = s.backend.WriteFile(s.path("prov_merged"+segcodec.Binary.Ext()), file)
	*buf = file[:0]
	fileBufs.Put(buf)
	if err != nil {
		return nil, err
	}
	return g, nil
}

// TotalBytes returns the summed size of all per-process provenance files —
// the storage metric of the paper's Figure 7.
func (s *Store) TotalBytes() (int64, error) {
	_, sizes, err := s.stored()
	var total int64
	for _, n := range sizes {
		total += n
	}
	return total, err
}

// TextBytes returns the size of g encoded by a text codec under the PROV-IO
// prefixes. segcodec.Turtle's is what a Turtle store file held for the same
// graph: the bytes the paper's Figure 7 counts, which the exhibits keep
// reporting while the store itself writes pbs.
func TextBytes(c segcodec.Codec, g *rdf.Graph) (int64, error) {
	var n byteCount
	err := c.Encode(&n, g, model.Namespaces())
	return int64(n), err
}

// byteCount is an io.Writer that only counts.
type byteCount int64

func (n *byteCount) Write(p []byte) (int, error) {
	*n += byteCount(len(p))
	return len(p), nil
}

// misplacer unwraps decorator chains (anything exposing Inner() any, such as
// the fault-injection wrapper) to find a backend that reports tier
// misplacement — the Mount overlay.
func misplacer(b StoreBackend) interface{ Misplaced(string) bool } {
	v := any(b)
	for v != nil {
		if m, ok := v.(interface{ Misplaced(string) bool }); ok {
			return m
		}
		in, ok := v.(interface{ Inner() any })
		if !ok {
			return nil
		}
		v = in.Inner()
	}
	return nil
}
