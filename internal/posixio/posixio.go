// Package posixio implements the PROV-IO Syscall Wrapper: the GOTCHA-style
// interposition layer that monitors POSIX I/O (paper §5). Wrap splices a
// provenance-collecting shim in front of a vfs view; every operation is
// forwarded unchanged — the wrapper never alters I/O semantics — while the
// PROV-IO Library is invoked with the corresponding Activity and Data Object
// records. Like the original wrapper, it is configurable: its Options can
// disable interposition entirely or skip the per-call data path.
package posixio

import (
	"errors"
	"io"
	"time"

	"github.com/hpc-io/prov-io/internal/core"
	"github.com/hpc-io/prov-io/internal/model"
	"github.com/hpc-io/prov-io/internal/rdf"
	"github.com/hpc-io/prov-io/internal/vfs"
)

// Agent identifies who performs the wrapped I/O.
type Agent struct {
	User    rdf.Term
	Program rdf.Term
	Thread  rdf.Term
}

// agent returns the most specific agent node.
func (a Agent) agent() rdf.Term {
	switch {
	case !a.Thread.IsZero():
		return a.Thread
	case !a.Program.IsZero():
		return a.Program
	default:
		return a.User
	}
}

// Options configure the wrapper.
type Options struct {
	// Disabled turns the wrapper into a pure passthrough.
	Disabled bool
	// TrackData controls whether individual read/write calls are tracked;
	// metadata operations (open, rename, fsync, ...) are always tracked
	// when enabled.
	TrackData bool
}

// DefaultOptions tracks everything.
func DefaultOptions() Options { return Options{TrackData: true} }

// FS is the wrapped filesystem handle.
type FS struct {
	view    *vfs.View
	tracker *core.Tracker
	agent   Agent
	opts    Options
}

// Wrap splices the PROV-IO syscall wrapper in front of view.
func Wrap(view *vfs.View, tracker *core.Tracker, agent Agent, opts Options) *FS {
	return &FS{view: view, tracker: tracker, agent: agent, opts: opts}
}

func (w *FS) now() time.Duration {
	if c := w.view.Clock(); c != nil {
		return c.Now()
	}
	return 0
}

// track records one I/O activity against an object node.
func (w *FS) track(class model.Class, api string, object rdf.Term, started time.Duration) {
	if w.opts.Disabled {
		return
	}
	w.tracker.TrackIO(class, api, object, w.agent.agent(), started, w.now()-started)
}

// trackObject mints a data-object node unless the wrapper is disabled.
// Attribution to the program agent happens only for creating operations;
// merely accessed objects must not be re-attributed to the accessor, or
// backward lineage would be corrupted.
func (w *FS) trackObject(class model.Class, id, name string, container rdf.Term, creating bool) rdf.Term {
	if w.opts.Disabled {
		return rdf.Term{}
	}
	attributed := rdf.Term{}
	if creating {
		attributed = w.agent.Program
	}
	return w.tracker.TrackDataObject(class, id, name, container, attributed)
}

// fileNode returns the File entity node for a path.
func (w *FS) fileNode(path string, creating bool) rdf.Term {
	return w.trackObject(model.File, path, path, rdf.Term{}, creating)
}

// OpenFile interposes on open(2). O_CREAT on a new file is a Create
// activity; otherwise an Open activity.
func (w *FS) OpenFile(path string, flag int) (*File, error) {
	started := w.now()
	existed := w.view.Exists(path)
	f, err := w.view.OpenFile(path, flag)
	if err != nil {
		return nil, err
	}
	created := flag&vfs.O_CREATE != 0 && !existed
	node := w.fileNode(path, created)
	if created {
		w.track(model.Create, "open", node, started)
	} else {
		w.track(model.Open, "open", node, started)
	}
	return &File{fs: w, f: f, node: node, path: path}, nil
}

// Create interposes on creat(2).
func (w *FS) Create(path string) (*File, error) {
	return w.OpenFile(path, vfs.O_RDWR|vfs.O_CREATE|vfs.O_TRUNC)
}

// Open interposes on open(2) with O_RDONLY.
func (w *FS) Open(path string) (*File, error) {
	return w.OpenFile(path, vfs.O_RDONLY)
}

// Mkdir interposes on mkdir(2), minting a Directory entity.
func (w *FS) Mkdir(path string) error {
	started := w.now()
	if err := w.view.Mkdir(path); err != nil {
		return err
	}
	node := w.trackObject(model.Directory, path, path, rdf.Term{}, true)
	w.track(model.Create, "mkdir", node, started)
	return nil
}

// MkdirAll creates a directory chain; each created level is tracked.
func (w *FS) MkdirAll(path string) error {
	started := w.now()
	if err := w.view.MkdirAll(path); err != nil {
		return err
	}
	node := w.trackObject(model.Directory, path, path, rdf.Term{}, true)
	w.track(model.Create, "mkdir", node, started)
	return nil
}

// Rename interposes on rename(2): a Rename activity with provio:wasModifiedBy.
func (w *FS) Rename(oldp, newp string) error {
	started := w.now()
	if err := w.view.Rename(oldp, newp); err != nil {
		return err
	}
	node := w.fileNode(newp, true) // the new name is produced by this program
	// Record the identity change: the new name derives from the old.
	old := w.fileNode(oldp, false)
	if !node.IsZero() && !old.IsZero() {
		w.tracker.TrackDerivation(node, old)
	}
	w.track(model.Rename, "rename", node, started)
	return nil
}

// Remove interposes on unlink(2)/rmdir(2). Removal is not one of the six
// I/O API classes; it is forwarded untracked, like the C prototype.
func (w *FS) Remove(path string) error { return w.view.Remove(path) }

// Symlink interposes on symlink(2), minting a Link entity.
func (w *FS) Symlink(target, linkp string) error {
	started := w.now()
	if err := w.view.Symlink(target, linkp); err != nil {
		return err
	}
	node := w.trackObject(model.Link, linkp, linkp, rdf.Term{}, true)
	w.track(model.Create, "symlink", node, started)
	return nil
}

// Link interposes on link(2), minting a Link entity.
func (w *FS) Link(oldp, newp string) error {
	started := w.now()
	if err := w.view.Link(oldp, newp); err != nil {
		return err
	}
	node := w.trackObject(model.Link, newp, newp, rdf.Term{}, true)
	w.track(model.Create, "link", node, started)
	return nil
}

// Setxattr interposes on setxattr(2): an Attribute entity written.
func (w *FS) Setxattr(path, name string, value []byte) error {
	started := w.now()
	if err := w.view.Setxattr(path, name, value); err != nil {
		return err
	}
	node := w.trackObject(model.Attribute, path+"/.xattrs/"+name, name, w.fileNode(path, false), true)
	w.track(model.Write, "setxattr", node, started)
	return nil
}

// Getxattr interposes on getxattr(2): an Attribute entity read.
func (w *FS) Getxattr(path, name string) ([]byte, error) {
	started := w.now()
	val, err := w.view.Getxattr(path, name)
	if err != nil {
		return nil, err
	}
	node := w.trackObject(model.Attribute, path+"/.xattrs/"+name, name, w.fileNode(path, false), false)
	w.track(model.Read, "getxattr", node, started)
	return val, nil
}

// Listxattr forwards listxattr(2) untracked (pure metadata enumeration).
func (w *FS) Listxattr(path string) ([]string, error) { return w.view.Listxattr(path) }

// Stat forwards stat(2) untracked.
func (w *FS) Stat(path string) (vfs.FileInfo, error) { return w.view.Stat(path) }

// ReadDir forwards readdir(3) untracked.
func (w *FS) ReadDir(path string) ([]vfs.FileInfo, error) { return w.view.ReadDir(path) }

// ReadFile is the read-whole-file convenience; tracked as one open + reads.
func (w *FS) ReadFile(path string) ([]byte, error) {
	f, err := w.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []byte
	buf := make([]byte, 64<<10)
	for {
		n, err := f.Read(buf)
		out = append(out, buf[:n]...)
		if err != nil {
			if errors.Is(err, io.EOF) {
				return out, nil
			}
			return out, err
		}
	}
}

// WriteFile writes data to path, creating or truncating it.
func (w *FS) WriteFile(path string, data []byte) error {
	f, err := w.Create(path)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// File is a wrapped open file: data operations invoke the PROV-IO Library.
type File struct {
	fs   *FS
	f    *vfs.File
	node rdf.Term
	path string
}

// Name returns the file path.
func (f *File) Name() string { return f.f.Name() }

// Read interposes on read(2).
func (f *File) Read(p []byte) (int, error) {
	started := f.fs.now()
	n, err := f.f.Read(p)
	if err == nil && f.fs.opts.TrackData {
		f.fs.track(model.Read, "read", f.node, started)
	}
	return n, err
}

// ReadAt interposes on pread(2).
func (f *File) ReadAt(p []byte, off int64) (int, error) {
	started := f.fs.now()
	n, err := f.f.ReadAt(p, off)
	if (err == nil || n > 0) && f.fs.opts.TrackData {
		f.fs.track(model.Read, "pread", f.node, started)
	}
	return n, err
}

// Write interposes on write(2).
func (f *File) Write(p []byte) (int, error) {
	started := f.fs.now()
	n, err := f.f.Write(p)
	if err == nil && f.fs.opts.TrackData {
		f.fs.track(model.Write, "write", f.node, started)
	}
	return n, err
}

// WriteAt interposes on pwrite(2).
func (f *File) WriteAt(p []byte, off int64) (int, error) {
	started := f.fs.now()
	n, err := f.f.WriteAt(p, off)
	if err == nil && f.fs.opts.TrackData {
		f.fs.track(model.Write, "pwrite", f.node, started)
	}
	return n, err
}

// Seek forwards lseek(2) untracked.
func (f *File) Seek(offset int64, whence int) (int64, error) { return f.f.Seek(offset, whence) }

// Truncate forwards ftruncate(2) untracked.
func (f *File) Truncate(size int64) error { return f.f.Truncate(size) }

// Sync interposes on fsync(2): an Fsync activity with provio:wasFlushedBy.
func (f *File) Sync() error {
	started := f.fs.now()
	if err := f.f.Sync(); err != nil {
		return err
	}
	f.fs.track(model.Fsync, "fsync", f.node, started)
	return nil
}

// Size returns the current size.
func (f *File) Size() int64 { return f.f.Size() }

// Close forwards close(2) untracked.
func (f *File) Close() error { return f.f.Close() }
