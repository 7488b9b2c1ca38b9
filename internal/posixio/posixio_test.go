package posixio

import (
	"bytes"
	"testing"

	"github.com/hpc-io/prov-io/internal/core"
	"github.com/hpc-io/prov-io/internal/model"
	"github.com/hpc-io/prov-io/internal/rdf"
	"github.com/hpc-io/prov-io/internal/vfs"
)

func setup(t *testing.T, opts Options) (*FS, *core.Tracker, *vfs.View) {
	t.Helper()
	view := vfs.NewStore().NewView()
	tr := core.NewTracker(core.DefaultConfig(), nil, 0)
	user := tr.RegisterUser("alice")
	prog := tr.RegisterProgram("topreco.py", user)
	w := Wrap(view, tr, Agent{User: user, Program: prog}, opts)
	return w, tr, view
}

func countIO(tr *core.Tracker, class model.Class) int {
	return len(tr.Graph().Find(nil, rdf.IRI(rdf.RDFType).Ptr(), class.IRI().Ptr()))
}

func TestWrapperTracksCreateVsOpen(t *testing.T) {
	w, tr, _ := setup(t, DefaultOptions())
	f, err := w.Create("/f.dat")
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	if got := countIO(tr, model.Create); got != 1 {
		t.Errorf("Create activities = %d, want 1", got)
	}
	f2, err := w.Open("/f.dat")
	if err != nil {
		t.Fatal(err)
	}
	f2.Close()
	if got := countIO(tr, model.Open); got != 1 {
		t.Errorf("Open activities = %d, want 1", got)
	}
	// Re-creating an existing file counts as Open (O_CREAT on existing).
	f3, _ := w.OpenFile("/f.dat", vfs.O_RDWR|vfs.O_CREATE)
	f3.Close()
	if got := countIO(tr, model.Open); got != 2 {
		t.Errorf("Open activities after O_CREAT-on-existing = %d, want 2", got)
	}
}

func TestWrapperTracksReadWriteFsync(t *testing.T) {
	w, tr, _ := setup(t, DefaultOptions())
	f, _ := w.Create("/f.dat")
	f.Write([]byte("hello"))
	f.WriteAt([]byte("x"), 0)
	f.Sync()
	f.Close()

	f2, _ := w.Open("/f.dat")
	buf := make([]byte, 5)
	f2.Read(buf)
	f2.ReadAt(buf, 0)
	f2.Close()

	if got := countIO(tr, model.Write); got != 2 {
		t.Errorf("Write activities = %d, want 2", got)
	}
	if got := countIO(tr, model.Read); got != 2 {
		t.Errorf("Read activities = %d, want 2", got)
	}
	if got := countIO(tr, model.Fsync); got != 1 {
		t.Errorf("Fsync activities = %d, want 1", got)
	}
	// The file entity carries the relation edges.
	fileNode := rdf.IRI(model.NodeIRI(model.File, "/f.dat"))
	g := tr.Graph()
	if n := len(g.Find(fileNode.Ptr(), model.WasWrittenBy.IRI().Ptr(), nil)); n != 2 {
		t.Errorf("wasWrittenBy = %d", n)
	}
	if n := len(g.Find(fileNode.Ptr(), model.WasFlushedBy.IRI().Ptr(), nil)); n != 1 {
		t.Errorf("wasFlushedBy = %d", n)
	}
}

func TestWrapperRename(t *testing.T) {
	w, tr, view := setup(t, DefaultOptions())
	w.WriteFile("/old.tdms", []byte("data"))
	if err := w.Rename("/old.tdms", "/new.tdms"); err != nil {
		t.Fatal(err)
	}
	if !view.Exists("/new.tdms") || view.Exists("/old.tdms") {
		t.Error("rename not forwarded")
	}
	if got := countIO(tr, model.Rename); got != 1 {
		t.Errorf("Rename activities = %d, want 1", got)
	}
	newNode := rdf.IRI(model.NodeIRI(model.File, "/new.tdms"))
	oldNode := rdf.IRI(model.NodeIRI(model.File, "/old.tdms"))
	g := tr.Graph()
	if !g.Has(rdf.Triple{S: newNode, P: model.WasDerivedFrom.IRI(), O: oldNode}) {
		t.Error("rename derivation edge missing")
	}
	if n := len(g.Find(newNode.Ptr(), model.WasModifiedBy.IRI().Ptr(), nil)); n != 1 {
		t.Errorf("wasModifiedBy = %d", n)
	}
}

func TestWrapperDirectoryAndLinks(t *testing.T) {
	w, tr, view := setup(t, DefaultOptions())
	if err := w.MkdirAll("/data/raw"); err != nil {
		t.Fatal(err)
	}
	w.WriteFile("/data/raw/f", []byte("x"))
	if err := w.Symlink("/data/raw/f", "/data/latest"); err != nil {
		t.Fatal(err)
	}
	if err := w.Link("/data/raw/f", "/data/hard"); err != nil {
		t.Fatal(err)
	}
	if !view.Exists("/data/latest") || !view.Exists("/data/hard") {
		t.Error("links not forwarded")
	}
	g := tr.Graph()
	if n := len(g.Find(nil, rdf.IRI(rdf.RDFType).Ptr(), model.Directory.IRI().Ptr())); n != 1 {
		t.Errorf("Directory entities = %d, want 1", n)
	}
	if n := len(g.Find(nil, rdf.IRI(rdf.RDFType).Ptr(), model.Link.IRI().Ptr())); n != 2 {
		t.Errorf("Link entities = %d, want 2", n)
	}
}

func TestWrapperXattrs(t *testing.T) {
	w, tr, _ := setup(t, DefaultOptions())
	w.WriteFile("/f", nil)
	if err := w.Setxattr("/f", "user.origin", []byte("sensor")); err != nil {
		t.Fatal(err)
	}
	val, err := w.Getxattr("/f", "user.origin")
	if err != nil || string(val) != "sensor" {
		t.Fatalf("Getxattr = %q, %v", val, err)
	}
	attrNode := rdf.IRI(model.NodeIRI(model.Attribute, "/f/.xattrs/user.origin"))
	g := tr.Graph()
	if n := len(g.Find(attrNode.Ptr(), model.WasWrittenBy.IRI().Ptr(), nil)); n != 1 {
		t.Errorf("xattr wasWrittenBy = %d", n)
	}
	if n := len(g.Find(attrNode.Ptr(), model.WasReadBy.IRI().Ptr(), nil)); n != 1 {
		t.Errorf("xattr wasReadBy = %d", n)
	}
	// Attribute contained in file.
	fileNode := rdf.IRI(model.NodeIRI(model.File, "/f"))
	if !g.Has(rdf.Triple{S: attrNode, P: model.WasDerivedFrom.IRI(), O: fileNode}) {
		t.Error("xattr containment edge missing")
	}
	names, err := w.Listxattr("/f")
	if err != nil || len(names) != 1 {
		t.Errorf("Listxattr = %v, %v", names, err)
	}
}

func TestWrapperReadWriteFileHelpers(t *testing.T) {
	w, _, _ := setup(t, DefaultOptions())
	payload := bytes.Repeat([]byte("abc"), 50000) // bigger than one read buffer
	if err := w.WriteFile("/big", payload); err != nil {
		t.Fatal(err)
	}
	got, err := w.ReadFile("/big")
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("ReadFile: %d bytes, %v", len(got), err)
	}
}

func TestWrapperDisabled(t *testing.T) {
	w, tr, view := setup(t, Options{Disabled: true})
	agentTriples := tr.Graph().Len() // user+program registration from setup
	f, _ := w.Create("/f")
	f.Write([]byte("x"))
	f.Sync()
	f.Close()
	w.Mkdir("/d")
	w.Rename("/f", "/g")
	if n := tr.Graph().Len(); n != agentTriples {
		t.Errorf("disabled wrapper still tracked: %d triples (agents alone are %d)", n, agentTriples)
	}
	if !view.Exists("/g") || !view.Exists("/d") {
		t.Error("disabled wrapper did not forward operations")
	}
}

func TestWrapperDataTrackingOff(t *testing.T) {
	w, tr, _ := setup(t, Options{TrackData: false})
	f, _ := w.Create("/f")
	f.Write([]byte("hello"))
	f.Close()
	f2, _ := w.Open("/f")
	f2.Read(make([]byte, 5))
	f2.Close()
	if got := countIO(tr, model.Write); got != 0 {
		t.Errorf("Write tracked despite TrackData=false: %d", got)
	}
	// Metadata ops still tracked.
	if got := countIO(tr, model.Create); got != 1 {
		t.Errorf("Create activities = %d, want 1", got)
	}
}

func TestWrapperErrorsNotTracked(t *testing.T) {
	w, tr, _ := setup(t, DefaultOptions())
	before := tr.Graph().Len()
	if _, err := w.Open("/missing"); err == nil {
		t.Fatal("expected error")
	}
	if err := w.Rename("/missing", "/x"); err == nil {
		t.Fatal("expected error")
	}
	if _, err := w.Getxattr("/missing", "a"); err == nil {
		t.Fatal("expected error")
	}
	if tr.Graph().Len() != before {
		t.Error("failed operations added provenance")
	}
}

func TestWrapperTransparencyBytes(t *testing.T) {
	// Same writes through wrapped and raw views produce identical bytes.
	raw := vfs.NewStore().NewView()
	raw.WriteFile("/f", []byte("payload"))

	w, _, view := setup(t, DefaultOptions())
	w.WriteFile("/f", []byte("payload"))

	a, _ := raw.ReadFile("/f")
	b, _ := view.ReadFile("/f")
	if !bytes.Equal(a, b) {
		t.Error("wrapper altered file contents")
	}
}
