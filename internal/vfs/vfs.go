// Package vfs implements the parallel-file-system substrate the reproduction
// uses in place of the paper's Lustre backend: an in-memory POSIX-like
// filesystem with directories, regular files, hard and symbolic links, and
// inode extended attributes (the paper's Attribute entity maps to xattrs on
// the POSIX side).
//
// A single Store holds the shared namespace; each simulated process or MPI
// rank obtains a View bound to its own virtual clock, so I/O costs modeled
// by simclock.CostModel are charged to the rank that issued the call — the
// same accounting a real Lustre client gives each node.
package vfs

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"path"
	"sort"
	"strings"
	"sync"

	"github.com/hpc-io/prov-io/internal/simclock"
)

// Open flags, mirroring the POSIX subset the workloads need.
const (
	O_RDONLY = 0x0
	O_WRONLY = 0x1
	O_RDWR   = 0x2
	O_CREATE = 0x40
	O_TRUNC  = 0x200
	O_APPEND = 0x400
	O_EXCL   = 0x80
)

// Sentinel errors (wrapping the io/fs canonical ones where they exist).
var (
	ErrNotExist   = fs.ErrNotExist
	ErrExist      = fs.ErrExist
	ErrIsDir      = errors.New("is a directory")
	ErrNotDir     = errors.New("not a directory")
	ErrNotEmpty   = errors.New("directory not empty")
	ErrClosed     = fs.ErrClosed
	ErrReadOnly   = errors.New("file opened read-only")
	ErrWriteOnly  = errors.New("file opened write-only")
	ErrNoAttr     = errors.New("no such attribute")
	ErrLinkLoop   = errors.New("too many levels of symbolic links")
	ErrBadPattern = errors.New("invalid path")
)

// FileInfo describes a file, directory, or symlink.
type FileInfo struct {
	Name   string
	Size   int64
	IsDir  bool
	IsLink bool
	Nlink  int
	Target string // symlink target
	Xattrs int    // number of extended attributes
}

// node is an inode.
type node struct {
	mu     sync.RWMutex
	dir    bool
	sym    bool
	target string // symlink target
	data   []byte
	// children maps name -> child node for directories.
	children map[string]*node
	xattrs   map[string][]byte
	nlink    int
}

func newDir() *node {
	return &node{dir: true, children: make(map[string]*node), xattrs: make(map[string][]byte), nlink: 1}
}

func newFile() *node {
	return &node{xattrs: make(map[string][]byte), nlink: 1}
}

// Store is the shared filesystem state.
type Store struct {
	mu   sync.RWMutex
	root *node
}

// NewStore returns an empty filesystem.
func NewStore() *Store {
	return &Store{root: newDir()}
}

// View is a process/rank-local handle on a Store. Operations charge modeled
// I/O costs to the attached clock (if any).
type View struct {
	store *Store
	clock *simclock.Clock
	cost  simclock.CostModel
	// chargeEnabled gates cost accounting; a View without a clock simply
	// performs the operations.
	chargeEnabled bool
}

// NewView returns a view without cost accounting (unit tests, tooling).
func (s *Store) NewView() *View {
	return &View{store: s}
}

// NewChargedView returns a view that charges modeled costs to clock.
func (s *Store) NewChargedView(clock *simclock.Clock, cost simclock.CostModel) *View {
	return &View{store: s, clock: clock, cost: cost, chargeEnabled: clock != nil}
}

// Clock returns the attached clock (nil when uncharged).
func (v *View) Clock() *simclock.Clock { return v.clock }

// CostModel returns the view's cost model.
func (v *View) CostModel() simclock.CostModel { return v.cost }

func (v *View) chargeMeta() {
	if v.chargeEnabled {
		v.clock.Advance(v.cost.MetadataLatency)
	}
}

func (v *View) chargeRead(n int64) {
	if v.chargeEnabled {
		v.clock.Advance(v.cost.ReadCost(n))
	}
}

func (v *View) chargeWrite(n int64) {
	if v.chargeEnabled {
		v.clock.Advance(v.cost.WriteCost(n))
	}
}

// splitPath cleans p and returns its components. An empty result means the
// root directory.
func splitPath(p string) ([]string, error) {
	if p == "" {
		return nil, &fs.PathError{Op: "resolve", Path: p, Err: ErrBadPattern}
	}
	clean := path.Clean("/" + p)
	if clean == "/" {
		return nil, nil
	}
	return strings.Split(strings.TrimPrefix(clean, "/"), "/"), nil
}

const maxSymlinkDepth = 16

// resolve walks the tree to the node for p. When followLast is false a final
// symlink component is returned unresolved (lstat semantics).
func (s *Store) resolve(p string, followLast bool) (*node, error) {
	return s.resolveDepth(p, followLast, 0)
}

func (s *Store) resolveDepth(p string, followLast bool, depth int) (*node, error) {
	if depth > maxSymlinkDepth {
		return nil, &fs.PathError{Op: "resolve", Path: p, Err: ErrLinkLoop}
	}
	parts, err := splitPath(p)
	if err != nil {
		return nil, err
	}
	s.mu.RLock()
	cur := s.root
	s.mu.RUnlock()
	for i, part := range parts {
		cur.mu.RLock()
		if !cur.dir {
			cur.mu.RUnlock()
			return nil, &fs.PathError{Op: "resolve", Path: p, Err: ErrNotDir}
		}
		child, ok := cur.children[part]
		cur.mu.RUnlock()
		if !ok {
			return nil, &fs.PathError{Op: "resolve", Path: p, Err: ErrNotExist}
		}
		last := i == len(parts)-1
		child.mu.RLock()
		isSym := child.sym
		target := child.target
		child.mu.RUnlock()
		if isSym && (!last || followLast) {
			rest := path.Join(parts[i+1:]...)
			next := target
			if !strings.HasPrefix(target, "/") {
				next = path.Join("/", path.Join(parts[:i]...), target)
			}
			if rest != "" {
				next = path.Join(next, rest)
			}
			return s.resolveDepth(next, followLast, depth+1)
		}
		cur = child
	}
	return cur, nil
}

// resolveParent returns the directory node containing p and p's base name.
func (s *Store) resolveParent(p string) (*node, string, error) {
	parts, err := splitPath(p)
	if err != nil {
		return nil, "", err
	}
	if len(parts) == 0 {
		return nil, "", &fs.PathError{Op: "resolve", Path: p, Err: ErrIsDir}
	}
	dirPath := "/" + path.Join(parts[:len(parts)-1]...)
	dir, err := s.resolve(dirPath, true)
	if err != nil {
		return nil, "", err
	}
	dir.mu.RLock()
	isDir := dir.dir
	dir.mu.RUnlock()
	if !isDir {
		return nil, "", &fs.PathError{Op: "resolve", Path: p, Err: ErrNotDir}
	}
	return dir, parts[len(parts)-1], nil
}

// Mkdir creates a single directory.
func (v *View) Mkdir(p string) error {
	v.chargeMeta()
	dir, name, err := v.store.resolveParent(p)
	if err != nil {
		return err
	}
	dir.mu.Lock()
	defer dir.mu.Unlock()
	if _, ok := dir.children[name]; ok {
		return &fs.PathError{Op: "mkdir", Path: p, Err: ErrExist}
	}
	dir.children[name] = newDir()
	return nil
}

// MkdirAll creates a directory and any missing parents.
func (v *View) MkdirAll(p string) error {
	parts, err := splitPath(p)
	if err != nil {
		return err
	}
	cur := "/"
	for _, part := range parts {
		cur = path.Join(cur, part)
		if err := v.Mkdir(cur); err != nil {
			if errors.Is(err, ErrExist) {
				// Must be a directory to continue.
				n, rerr := v.store.resolve(cur, true)
				if rerr != nil {
					return rerr
				}
				n.mu.RLock()
				isDir := n.dir
				n.mu.RUnlock()
				if !isDir {
					return &fs.PathError{Op: "mkdir", Path: cur, Err: ErrNotDir}
				}
				continue
			}
			return err
		}
	}
	return nil
}

// Create creates or truncates a file for writing (POSIX creat).
func (v *View) Create(p string) (*File, error) {
	return v.OpenFile(p, O_RDWR|O_CREATE|O_TRUNC)
}

// Open opens a file read-only.
func (v *View) Open(p string) (*File, error) {
	return v.OpenFile(p, O_RDONLY)
}

// OpenFile opens p with POSIX-style flags.
func (v *View) OpenFile(p string, flag int) (*File, error) {
	v.chargeMeta()
	n, err := v.store.resolve(p, true)
	switch {
	case err == nil:
		if flag&O_EXCL != 0 && flag&O_CREATE != 0 {
			return nil, &fs.PathError{Op: "open", Path: p, Err: ErrExist}
		}
	case errors.Is(err, ErrNotExist) && flag&O_CREATE != 0:
		dir, name, perr := v.store.resolveParent(p)
		if perr != nil {
			return nil, perr
		}
		dir.mu.Lock()
		if existing, ok := dir.children[name]; ok {
			n = existing
		} else {
			n = newFile()
			dir.children[name] = n
		}
		dir.mu.Unlock()
	default:
		return nil, err
	}
	n.mu.Lock()
	if n.dir {
		n.mu.Unlock()
		return nil, &fs.PathError{Op: "open", Path: p, Err: ErrIsDir}
	}
	if flag&O_TRUNC != 0 && flag&(O_WRONLY|O_RDWR) != 0 {
		n.data = nil
	}
	var off int64
	if flag&O_APPEND != 0 {
		off = int64(len(n.data))
	}
	n.mu.Unlock()
	return &File{view: v, node: n, name: path.Clean("/" + p), flag: flag, off: off}, nil
}

// Remove deletes a file, symlink, or empty directory.
func (v *View) Remove(p string) error {
	v.chargeMeta()
	dir, name, err := v.store.resolveParent(p)
	if err != nil {
		return err
	}
	dir.mu.Lock()
	defer dir.mu.Unlock()
	child, ok := dir.children[name]
	if !ok {
		return &fs.PathError{Op: "remove", Path: p, Err: ErrNotExist}
	}
	child.mu.Lock()
	if child.dir && len(child.children) > 0 {
		child.mu.Unlock()
		return &fs.PathError{Op: "remove", Path: p, Err: ErrNotEmpty}
	}
	child.nlink--
	child.mu.Unlock()
	delete(dir.children, name)
	return nil
}

// Rename moves oldp to newp (replacing a non-directory target).
func (v *View) Rename(oldp, newp string) error {
	v.chargeMeta()
	odir, oname, err := v.store.resolveParent(oldp)
	if err != nil {
		return err
	}
	ndir, nname, err := v.store.resolveParent(newp)
	if err != nil {
		return err
	}
	// Lock ordering: always lock the two parents in pointer order to avoid
	// deadlock between concurrent cross-directory renames.
	first, second := odir, ndir
	if first == second {
		first.mu.Lock()
		defer first.mu.Unlock()
	} else {
		if fmt.Sprintf("%p", first) > fmt.Sprintf("%p", second) {
			first, second = second, first
		}
		first.mu.Lock()
		second.mu.Lock()
		defer first.mu.Unlock()
		defer second.mu.Unlock()
	}
	child, ok := odir.children[oname]
	if !ok {
		return &fs.PathError{Op: "rename", Path: oldp, Err: ErrNotExist}
	}
	if existing, ok := ndir.children[nname]; ok {
		existing.mu.RLock()
		isDir := existing.dir
		existing.mu.RUnlock()
		if isDir {
			return &fs.PathError{Op: "rename", Path: newp, Err: ErrIsDir}
		}
	}
	delete(odir.children, oname)
	ndir.children[nname] = child
	return nil
}

// Symlink creates a symbolic link at linkp pointing at target.
func (v *View) Symlink(target, linkp string) error {
	v.chargeMeta()
	dir, name, err := v.store.resolveParent(linkp)
	if err != nil {
		return err
	}
	dir.mu.Lock()
	defer dir.mu.Unlock()
	if _, ok := dir.children[name]; ok {
		return &fs.PathError{Op: "symlink", Path: linkp, Err: ErrExist}
	}
	n := newFile()
	n.sym = true
	n.target = target
	dir.children[name] = n
	return nil
}

// Link creates a hard link at newp to the file at oldp.
func (v *View) Link(oldp, newp string) error {
	v.chargeMeta()
	n, err := v.store.resolve(oldp, true)
	if err != nil {
		return err
	}
	n.mu.Lock()
	if n.dir {
		n.mu.Unlock()
		return &fs.PathError{Op: "link", Path: oldp, Err: ErrIsDir}
	}
	n.nlink++
	n.mu.Unlock()
	dir, name, err := v.store.resolveParent(newp)
	if err != nil {
		return err
	}
	dir.mu.Lock()
	defer dir.mu.Unlock()
	if _, ok := dir.children[name]; ok {
		n.mu.Lock()
		n.nlink--
		n.mu.Unlock()
		return &fs.PathError{Op: "link", Path: newp, Err: ErrExist}
	}
	dir.children[name] = n
	return nil
}

// Stat returns information about the file at p, following symlinks.
func (v *View) Stat(p string) (FileInfo, error) {
	v.chargeMeta()
	n, err := v.store.resolve(p, true)
	if err != nil {
		return FileInfo{}, err
	}
	return infoOf(path.Base(path.Clean("/"+p)), n), nil
}

// Lstat is Stat without following a final symlink.
func (v *View) Lstat(p string) (FileInfo, error) {
	v.chargeMeta()
	n, err := v.store.resolve(p, false)
	if err != nil {
		return FileInfo{}, err
	}
	return infoOf(path.Base(path.Clean("/"+p)), n), nil
}

func infoOf(name string, n *node) FileInfo {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return FileInfo{
		Name:   name,
		Size:   int64(len(n.data)),
		IsDir:  n.dir,
		IsLink: n.sym,
		Nlink:  n.nlink,
		Target: n.target,
		Xattrs: len(n.xattrs),
	}
}

// ReadDir lists the entries of the directory at p in sorted order.
func (v *View) ReadDir(p string) ([]FileInfo, error) {
	v.chargeMeta()
	n, err := v.store.resolve(p, true)
	if err != nil {
		return nil, err
	}
	n.mu.RLock()
	defer n.mu.RUnlock()
	if !n.dir {
		return nil, &fs.PathError{Op: "readdir", Path: p, Err: ErrNotDir}
	}
	names := make([]string, 0, len(n.children))
	for name := range n.children {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]FileInfo, len(names))
	for i, name := range names {
		out[i] = infoOf(name, n.children[name])
	}
	return out, nil
}

// Setxattr sets an extended attribute on the file or directory at p.
func (v *View) Setxattr(p, name string, value []byte) error {
	v.chargeMeta()
	n, err := v.store.resolve(p, true)
	if err != nil {
		return err
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.xattrs[name] = append([]byte(nil), value...)
	return nil
}

// Getxattr reads an extended attribute.
func (v *View) Getxattr(p, name string) ([]byte, error) {
	v.chargeMeta()
	n, err := v.store.resolve(p, true)
	if err != nil {
		return nil, err
	}
	n.mu.RLock()
	defer n.mu.RUnlock()
	val, ok := n.xattrs[name]
	if !ok {
		return nil, &fs.PathError{Op: "getxattr", Path: p, Err: ErrNoAttr}
	}
	return append([]byte(nil), val...), nil
}

// Listxattr lists extended attribute names in sorted order.
func (v *View) Listxattr(p string) ([]string, error) {
	v.chargeMeta()
	n, err := v.store.resolve(p, true)
	if err != nil {
		return nil, err
	}
	n.mu.RLock()
	defer n.mu.RUnlock()
	names := make([]string, 0, len(n.xattrs))
	for name := range n.xattrs {
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// ReadFile reads the whole file at p, into a slice of the file's size.
func (v *View) ReadFile(p string) ([]byte, error) {
	f, err := v.Open(p)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	f.node.mu.RLock()
	defer f.node.mu.RUnlock()
	v.chargeRead(int64(len(f.node.data)))
	return append([]byte{}, f.node.data...), nil
}

// WriteFile writes data to the file at p, creating or truncating it.
func (v *View) WriteFile(p string, data []byte) error {
	f, err := v.Create(p)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Exists reports whether a path resolves.
func (v *View) Exists(p string) bool {
	_, err := v.store.resolve(p, true)
	return err == nil
}

// File is an open file handle.
type File struct {
	view *View
	node *node
	name string
	flag int

	mu     sync.Mutex
	off    int64
	closed bool
}

// Name returns the cleaned path the file was opened with.
func (f *File) Name() string { return f.name }

func (f *File) readable() bool {
	return f.flag&(O_WRONLY|O_RDWR) != O_WRONLY
}

func (f *File) writable() bool {
	return f.flag&(O_WRONLY|O_RDWR) != 0
}

// Read reads from the current offset.
func (f *File) Read(p []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return 0, &fs.PathError{Op: "read", Path: f.name, Err: ErrClosed}
	}
	if !f.readable() {
		return 0, &fs.PathError{Op: "read", Path: f.name, Err: ErrWriteOnly}
	}
	n, err := f.readAtLocked(p, f.off)
	f.off += int64(n)
	return n, err
}

// ReadAt reads len(p) bytes at offset off.
func (f *File) ReadAt(p []byte, off int64) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return 0, &fs.PathError{Op: "read", Path: f.name, Err: ErrClosed}
	}
	if !f.readable() {
		return 0, &fs.PathError{Op: "read", Path: f.name, Err: ErrWriteOnly}
	}
	n, err := f.readAtLocked(p, off)
	if err == nil && n < len(p) {
		err = io.EOF
	}
	return n, err
}

func (f *File) readAtLocked(p []byte, off int64) (int, error) {
	f.node.mu.RLock()
	defer f.node.mu.RUnlock()
	if off >= int64(len(f.node.data)) {
		if len(p) == 0 {
			return 0, nil
		}
		return 0, io.EOF
	}
	n := copy(p, f.node.data[off:])
	f.view.chargeRead(int64(n))
	return n, nil
}

// Write writes at the current offset (or end, for O_APPEND files).
func (f *File) Write(p []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return 0, &fs.PathError{Op: "write", Path: f.name, Err: ErrClosed}
	}
	if !f.writable() {
		return 0, &fs.PathError{Op: "write", Path: f.name, Err: ErrReadOnly}
	}
	f.off = f.writeAtLocked(p, f.off, f.flag&O_APPEND != 0)
	return len(p), nil
}

// WriteAt writes p at offset off.
func (f *File) WriteAt(p []byte, off int64) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return 0, &fs.PathError{Op: "write", Path: f.name, Err: ErrClosed}
	}
	if !f.writable() {
		return 0, &fs.PathError{Op: "write", Path: f.name, Err: ErrReadOnly}
	}
	f.writeAtLocked(p, off, false)
	return len(p), nil
}

// writeAtLocked writes p at off — or, with atEnd, at the node's current end —
// and returns the offset after it. The end is read inside the same node.mu
// critical section that writes, so two O_APPEND handles on one node never
// take the same offset.
func (f *File) writeAtLocked(p []byte, off int64, atEnd bool) int64 {
	f.node.mu.Lock()
	defer f.node.mu.Unlock()
	if atEnd {
		off = int64(len(f.node.data))
	}
	end := off + int64(len(p))
	if end > int64(len(f.node.data)) {
		if end <= int64(cap(f.node.data)) {
			// Grow within capacity; the extension is already zeroed
			// because shrinking Truncate re-zeroes abandoned bytes.
			f.node.data = f.node.data[:end]
		} else {
			// Amortized doubling so sequences of extending writes (the
			// common append pattern) cost O(total bytes), not O(n²).
			newCap := int64(cap(f.node.data)) * 2
			if newCap < end {
				newCap = end
			}
			grown := make([]byte, end, newCap)
			copy(grown, f.node.data)
			f.node.data = grown
		}
	}
	copy(f.node.data[off:end], p)
	f.view.chargeWrite(int64(len(p)))
	return end
}

// Seek sets the file offset.
func (f *File) Seek(offset int64, whence int) (int64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return 0, &fs.PathError{Op: "seek", Path: f.name, Err: ErrClosed}
	}
	var base int64
	switch whence {
	case io.SeekStart:
		base = 0
	case io.SeekCurrent:
		base = f.off
	case io.SeekEnd:
		f.node.mu.RLock()
		base = int64(len(f.node.data))
		f.node.mu.RUnlock()
	default:
		return 0, &fs.PathError{Op: "seek", Path: f.name, Err: ErrBadPattern}
	}
	pos := base + offset
	if pos < 0 {
		return 0, &fs.PathError{Op: "seek", Path: f.name, Err: ErrBadPattern}
	}
	f.off = pos
	return pos, nil
}

// Truncate resizes the file.
func (f *File) Truncate(size int64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return &fs.PathError{Op: "truncate", Path: f.name, Err: ErrClosed}
	}
	if !f.writable() {
		return &fs.PathError{Op: "truncate", Path: f.name, Err: ErrReadOnly}
	}
	f.node.mu.Lock()
	defer f.node.mu.Unlock()
	switch {
	case size < 0:
		return &fs.PathError{Op: "truncate", Path: f.name, Err: ErrBadPattern}
	case size <= int64(len(f.node.data)):
		// Zero the abandoned tail: capacity-based growth in writeAtLocked
		// may re-expose these bytes, and POSIX says they read as zero.
		tail := f.node.data[size:]
		for i := range tail {
			tail[i] = 0
		}
		f.node.data = f.node.data[:size]
	default:
		grown := make([]byte, size)
		copy(grown, f.node.data)
		f.node.data = grown
	}
	return nil
}

// Sync models fsync: it charges the metadata latency (data is already
// durable in memory).
func (f *File) Sync() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return &fs.PathError{Op: "fsync", Path: f.name, Err: ErrClosed}
	}
	f.view.chargeMeta()
	return nil
}

// Size returns the current file size.
func (f *File) Size() int64 {
	f.node.mu.RLock()
	defer f.node.mu.RUnlock()
	return int64(len(f.node.data))
}

// Close closes the handle. Double close returns ErrClosed.
func (f *File) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return &fs.PathError{Op: "close", Path: f.name, Err: ErrClosed}
	}
	f.closed = true
	return nil
}
