package vol

import (
	"time"

	"github.com/hpc-io/prov-io/internal/core"
	"github.com/hpc-io/prov-io/internal/hdf5"
	"github.com/hpc-io/prov-io/internal/model"
	"github.com/hpc-io/prov-io/internal/rdf"
	"github.com/hpc-io/prov-io/internal/simclock"
)

// Context identifies the agents on whose behalf I/O is performed. The
// PROV-IO Lib Connector collects this at initialization (paper §5) so that
// every tracked API invocation can be associated with its thread, program,
// and user.
type Context struct {
	User    rdf.Term
	Program rdf.Term
	Thread  rdf.Term
}

// Agent returns the most specific agent node available (thread, else
// program, else user).
func (c Context) Agent() rdf.Term {
	switch {
	case !c.Thread.IsZero():
		return c.Thread
	case !c.Program.IsZero():
		return c.Program
	default:
		return c.User
	}
}

// ProvConnector is the PROV-IO Lib Connector: a homomorphic VOL connector
// that forwards every call to the next connector and records the PROV-IO
// model's Entity/Activity/Relation triples around it. Tracking follows the
// tracker's Config switches, so disabled sub-classes cost nothing.
type ProvConnector struct {
	Passthrough
	tracker *core.Tracker
	ctx     Context
	clock   *simclock.Clock // for started/elapsed timestamps; may be nil
}

// NewProvConnector stacks a PROV-IO connector on next. clock provides the
// virtual timestamps for duration tracking and may be nil.
func NewProvConnector(next Connector, tracker *core.Tracker, ctx Context, clock *simclock.Clock) *ProvConnector {
	return &ProvConnector{Passthrough: Passthrough{Next: next}, tracker: tracker, ctx: ctx, clock: clock}
}

var _ Connector = (*ProvConnector)(nil)

// now returns the current virtual time (zero without a clock).
func (p *ProvConnector) now() time.Duration {
	if p.clock == nil {
		return 0
	}
	return p.clock.Now()
}

// fileID returns the data-object identity of a file.
func fileID(f *hdf5.File) string { return f.Path() }

// objectID returns the data-object identity of an in-file object.
func objectID(f *hdf5.File, objPath string) string { return f.Path() + objPath }

// attrID returns the data-object identity of an attribute on a host object.
func attrID(host hdf5.Object, name string) string {
	return objectID(host.File(), host.Path()) + "/.attrs/" + name
}

// attribution returns the Program agent for creating operations (a data
// object is attributed to the program that produced it) and the zero term
// for mere accesses — reads must not re-attribute an object to the reading
// program or backward lineage would be corrupted.
func (p *ProvConnector) attribution(creating bool) rdf.Term {
	if creating {
		return p.ctx.Program
	}
	return rdf.Term{}
}

// objectRef mints a node IRI for an enabled Data Object class without
// emitting its record (the record is emitted by the create/open call that
// introduced the object); it returns the zero term for disabled classes.
func (p *ProvConnector) objectRef(class model.Class, id string) rdf.Term {
	if !p.tracker.Config().Enabled(class) {
		return rdf.Term{}
	}
	return rdf.IRI(model.NodeIRI(class, id))
}

// trackFile mints the File entity node.
func (p *ProvConnector) trackFile(f *hdf5.File, creating bool) rdf.Term {
	return p.tracker.TrackDataObject(model.File, fileID(f), f.Path(), rdf.Term{}, p.attribution(creating))
}

// trackGroup mints a Group entity node contained in its file, falling back
// to the file node when Group tracking is disabled — the User Engine's
// granularity knob: with only File enabled, group-level I/O attaches to the
// file entity (the paper's "file lineage" scenario).
func (p *ProvConnector) trackGroup(g *hdf5.Group, creating bool) rdf.Term {
	if !p.tracker.Config().Enabled(model.Group) {
		return p.fileNodeRef(g.File())
	}
	file := p.fileNodeRef(g.File())
	return p.tracker.TrackDataObject(model.Group, objectID(g.File(), g.Path()), g.Path(), file, p.attribution(creating))
}

// trackDataset mints a Dataset entity node contained in its file, with the
// same file-granularity fallback as trackGroup.
func (p *ProvConnector) trackDataset(ds *hdf5.Dataset, creating bool) rdf.Term {
	if !p.tracker.Config().Enabled(model.Dataset) {
		return p.fileNodeRef(ds.File())
	}
	file := p.fileNodeRef(ds.File())
	return p.tracker.TrackDataObject(model.Dataset, objectID(ds.File(), ds.Path()), ds.Path(), file, p.attribution(creating))
}

// trackDatatype mints a Datatype entity node, with file fallback.
func (p *ProvConnector) trackDatatype(t *hdf5.NamedDatatype, creating bool) rdf.Term {
	if !p.tracker.Config().Enabled(model.Datatype) {
		return p.fileNodeRef(t.File())
	}
	file := p.fileNodeRef(t.File())
	return p.tracker.TrackDataObject(model.Datatype, objectID(t.File(), t.Path()), t.Path(), file, p.attribution(creating))
}

// hostRef returns the (non-emitting) node reference for an attribute host,
// falling back dataset/group/datatype → file granularity.
func (p *ProvConnector) hostRef(host hdf5.Object) rdf.Term {
	var class model.Class
	switch host.(type) {
	case *hdf5.Group:
		class = model.Group
	case *hdf5.Dataset:
		class = model.Dataset
	case *hdf5.NamedDatatype:
		class = model.Datatype
	default:
		return rdf.Term{}
	}
	if ref := p.objectRef(class, objectID(host.File(), host.Path())); !ref.IsZero() {
		return ref
	}
	return p.fileNodeRef(host.File())
}

// trackAttr mints an Attribute entity node contained in its host object,
// falling back to the host (then file) node when Attribute tracking is
// disabled.
func (p *ProvConnector) trackAttr(host hdf5.Object, name string, creating bool) rdf.Term {
	if !p.tracker.Config().Enabled(model.Attribute) {
		return p.hostRef(host)
	}
	return p.tracker.TrackDataObject(model.Attribute, attrID(host, name), name, p.hostRef(host), p.attribution(creating))
}

// fileNodeRef returns the file's node IRI without re-emitting its record
// (the record is emitted by FileCreate/FileOpen) — unless File tracking is
// disabled, in which case the zero term suppresses the edge.
func (p *ProvConnector) fileNodeRef(f *hdf5.File) rdf.Term {
	return p.objectRef(model.File, fileID(f))
}

// call wraps a native invocation with timing and emits the activity record.
func (p *ProvConnector) call(class model.Class, api string, object rdf.Term, fn func() error) error {
	started := p.now()
	err := fn()
	if err != nil {
		return err
	}
	p.tracker.TrackIO(class, api, object, p.ctx.Agent(), started, p.now()-started)
	return nil
}

// FileCreate implements Connector (H5Fcreate).
func (p *ProvConnector) FileCreate(path string) (*hdf5.File, error) {
	started := p.now()
	f, err := p.Next.FileCreate(path)
	if err != nil {
		return nil, err
	}
	node := p.trackFile(f, true)
	p.tracker.TrackIO(model.Create, "H5Fcreate", node, p.ctx.Agent(), started, p.now()-started)
	return f, nil
}

// FileOpen implements Connector (H5Fopen).
func (p *ProvConnector) FileOpen(path string, readonly bool) (*hdf5.File, error) {
	started := p.now()
	f, err := p.Next.FileOpen(path, readonly)
	if err != nil {
		return nil, err
	}
	node := p.trackFile(f, false)
	p.tracker.TrackIO(model.Open, "H5Fopen", node, p.ctx.Agent(), started, p.now()-started)
	return f, nil
}

// FileFlush implements Connector (H5Fflush).
func (p *ProvConnector) FileFlush(f *hdf5.File) error {
	return p.call(model.Fsync, "H5Fflush", p.fileNodeRef(f), func() error {
		return p.Next.FileFlush(f)
	})
}

// FileClose implements Connector (H5Fclose). Closing is not one of the six
// I/O API sub-classes, so it is forwarded untracked.
func (p *ProvConnector) FileClose(f *hdf5.File) error {
	return p.Next.FileClose(f)
}

// GroupCreate implements Connector (H5Gcreate2).
func (p *ProvConnector) GroupCreate(parent *hdf5.Group, name string) (*hdf5.Group, error) {
	started := p.now()
	g, err := p.Next.GroupCreate(parent, name)
	if err != nil {
		return nil, err
	}
	node := p.trackGroup(g, true)
	p.tracker.TrackIO(model.Create, "H5Gcreate2", node, p.ctx.Agent(), started, p.now()-started)
	return g, nil
}

// GroupOpen implements Connector (H5Gopen2).
func (p *ProvConnector) GroupOpen(parent *hdf5.Group, path string) (*hdf5.Group, error) {
	started := p.now()
	g, err := p.Next.GroupOpen(parent, path)
	if err != nil {
		return nil, err
	}
	node := p.trackGroup(g, false)
	p.tracker.TrackIO(model.Open, "H5Gopen2", node, p.ctx.Agent(), started, p.now()-started)
	return g, nil
}

// DatasetCreate implements Connector (H5Dcreate2).
func (p *ProvConnector) DatasetCreate(parent *hdf5.Group, name string, dt hdf5.Datatype, dims []int) (*hdf5.Dataset, error) {
	started := p.now()
	ds, err := p.Next.DatasetCreate(parent, name, dt, dims)
	if err != nil {
		return nil, err
	}
	node := p.trackDataset(ds, true)
	p.tracker.TrackIO(model.Create, "H5Dcreate2", node, p.ctx.Agent(), started, p.now()-started)
	return ds, nil
}

// DatasetOpen implements Connector (H5Dopen2).
func (p *ProvConnector) DatasetOpen(parent *hdf5.Group, path string) (*hdf5.Dataset, error) {
	started := p.now()
	ds, err := p.Next.DatasetOpen(parent, path)
	if err != nil {
		return nil, err
	}
	node := p.trackDataset(ds, false)
	p.tracker.TrackIO(model.Open, "H5Dopen2", node, p.ctx.Agent(), started, p.now()-started)
	return ds, nil
}

// DatasetWrite implements Connector (H5Dwrite).
func (p *ProvConnector) DatasetWrite(ds *hdf5.Dataset, data []byte) error {
	return p.call(model.Write, "H5Dwrite", p.trackDataset(ds, false), func() error {
		return p.Next.DatasetWrite(ds, data)
	})
}

// DatasetWriteRows implements Connector (H5Dwrite with hyperslab).
func (p *ProvConnector) DatasetWriteRows(ds *hdf5.Dataset, start, count int, data []byte) error {
	return p.call(model.Write, "H5Dwrite", p.trackDataset(ds, false), func() error {
		return p.Next.DatasetWriteRows(ds, start, count, data)
	})
}

// DatasetAppend implements Connector (H5DOappend).
func (p *ProvConnector) DatasetAppend(ds *hdf5.Dataset, rows int, data []byte) error {
	return p.call(model.Write, "H5DOappend", p.trackDataset(ds, false), func() error {
		return p.Next.DatasetAppend(ds, rows, data)
	})
}

// DatasetRead implements Connector (H5Dread).
func (p *ProvConnector) DatasetRead(ds *hdf5.Dataset) ([]byte, error) {
	started := p.now()
	data, err := p.Next.DatasetRead(ds)
	if err != nil {
		return nil, err
	}
	p.tracker.TrackIO(model.Read, "H5Dread", p.trackDataset(ds, false), p.ctx.Agent(), started, p.now()-started)
	return data, nil
}

// DatasetReadRows implements Connector (H5Dread with hyperslab).
func (p *ProvConnector) DatasetReadRows(ds *hdf5.Dataset, start, count int) ([]byte, error) {
	started := p.now()
	data, err := p.Next.DatasetReadRows(ds, start, count)
	if err != nil {
		return nil, err
	}
	p.tracker.TrackIO(model.Read, "H5Dread", p.trackDataset(ds, false), p.ctx.Agent(), started, p.now()-started)
	return data, nil
}

// AttrCreate implements Connector (H5Acreate2 + H5Awrite).
func (p *ProvConnector) AttrCreate(host hdf5.Object, name string, dt hdf5.Datatype, dims []int, value []byte) error {
	return p.call(model.Create, "H5Acreate2", p.trackAttr(host, name, true), func() error {
		return p.Next.AttrCreate(host, name, dt, dims, value)
	})
}

// AttrRead implements Connector (H5Aopen + H5Aread).
func (p *ProvConnector) AttrRead(host hdf5.Object, name string) ([]byte, hdf5.AttrInfo, error) {
	started := p.now()
	val, info, err := p.Next.AttrRead(host, name)
	if err != nil {
		return nil, info, err
	}
	p.tracker.TrackIO(model.Read, "H5Aread", p.trackAttr(host, name, false), p.ctx.Agent(), started, p.now()-started)
	return val, info, nil
}

// DatatypeCommit implements Connector (H5Tcommit2).
func (p *ProvConnector) DatatypeCommit(parent *hdf5.Group, name string, dt hdf5.Datatype) (*hdf5.NamedDatatype, error) {
	started := p.now()
	t, err := p.Next.DatatypeCommit(parent, name, dt)
	if err != nil {
		return nil, err
	}
	node := p.trackDatatype(t, true)
	p.tracker.TrackIO(model.Create, "H5Tcommit2", node, p.ctx.Agent(), started, p.now()-started)
	return t, nil
}

// DatatypeOpen implements Connector (H5Topen2).
func (p *ProvConnector) DatatypeOpen(parent *hdf5.Group, path string) (*hdf5.NamedDatatype, error) {
	started := p.now()
	t, err := p.Next.DatatypeOpen(parent, path)
	if err != nil {
		return nil, err
	}
	node := p.trackDatatype(t, false)
	p.tracker.TrackIO(model.Open, "H5Topen2", node, p.ctx.Agent(), started, p.now()-started)
	return t, nil
}

// LinkCreateSoft implements Connector (H5Lcreate_soft).
func (p *ProvConnector) LinkCreateSoft(parent *hdf5.Group, name, target string) error {
	node := p.tracker.TrackDataObject(model.Link,
		objectID(parent.File(), joinObjPath(parent.Path(), name)), name,
		p.fileNodeRef(parent.File()), p.ctx.Program)
	return p.call(model.Create, "H5Lcreate_soft", node, func() error {
		return p.Next.LinkCreateSoft(parent, name, target)
	})
}

// LinkCreateHard implements Connector (H5Lcreate_hard).
func (p *ProvConnector) LinkCreateHard(parent *hdf5.Group, name, target string) error {
	node := p.tracker.TrackDataObject(model.Link,
		objectID(parent.File(), joinObjPath(parent.Path(), name)), name,
		p.fileNodeRef(parent.File()), p.ctx.Program)
	return p.call(model.Create, "H5Lcreate_hard", node, func() error {
		return p.Next.LinkCreateHard(parent, name, target)
	})
}

func joinObjPath(base, name string) string {
	if base == "/" {
		return "/" + name
	}
	return base + "/" + name
}
