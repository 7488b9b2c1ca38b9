package backend

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"sort"
	"strings"
	"sync"
)

// Archive is the single-file store backend: one append-friendly container
// (.pvs) packing every segment file — and anything else the store writes,
// merged output included — into a journal of CRC-framed records. It is the
// cold tier of a mounted store and the natural shipping format for a
// compacted history ("give me the provenance" is one file).
//
// Layout:
//
//	"PVS\x01"                                      4-byte magic
//	frame*                                         append-only journal
//
//	frame := op(1) | uvarint(len(path)) | path
//	         | [op==put] uvarint(len(data)) | data
//	         | crc32-IEEE(frame bytes so far, little-endian)
//
// Ops: put (whole-file write), del, mkdir. The newest frame for a path wins,
// so WriteFile is one append — no rewrite of earlier data — and a reopen
// replays the journal into an in-memory index. A torn tail (the last frame
// cut short or failing its CRC, with nothing valid after it) is ignored on
// open and truncated away by the next mutation, which makes WriteFile
// effectively atomic across crashes: a frame either replays whole or not at
// all. Interior damage — an unparseable frame with valid frames behind it —
// is refused at open (see OpenArchive). Superseded frames accumulate until
// Vacuum rewrites the container.
type Archive struct {
	mu   sync.Mutex
	path string // container file on the host filesystem

	files map[string][]byte
	dirs  map[string]bool
	size  int64 // byte offset past the last valid frame
	torn  bool  // container bytes beyond size must be truncated before appending
}

var archiveMagic = []byte("PVS\x01")

// archive ops.
const (
	opPut   = 1
	opDel   = 2
	opMkdir = 3
)

// OpenArchive opens (or prepares to create) the container file at path. A
// missing file is an empty archive — it is created on the first mutation.
// A torn journal tail is tolerated: a crashed append leaves one damaged
// frame at the very end and nothing after it. Damage anywhere else — a bad
// magic, or an unparseable frame with valid frames still behind it — cannot
// be a torn write, so it is refused as corruption rather than silently
// replayed around (dropping the suffix would make a one-byte flip shrink
// the store to a state the audit sees as clean).
func OpenArchive(path string) (*Archive, error) {
	a := &Archive{path: path, files: make(map[string][]byte), dirs: map[string]bool{"/": true}}
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return a, nil
	}
	if err != nil {
		return nil, err
	}
	if len(data) < len(archiveMagic) || string(data[:len(archiveMagic)]) != string(archiveMagic) {
		return nil, fmt.Errorf("backend: %s is not a provenance archive (bad magic)", path)
	}
	off := int64(len(archiveMagic))
	for {
		n, op, p, payload := parseFrame(data[off:])
		if n <= 0 {
			break
		}
		switch op {
		case opPut:
			a.files[p] = payload
		case opDel:
			delete(a.files, p)
		case opMkdir:
			a.mkdir(p)
		}
		off += int64(n)
	}
	// A frame failed to parse. A torn tail is the ONLY damage a crash can
	// produce, and it reaches EOF — if any complete frame still parses past
	// the failure point, the journal is corrupt in the middle, not torn.
	for j := off + 1; j < int64(len(data)); j++ {
		if n, _, _, _ := parseFrame(data[j:]); n > 0 {
			return nil, fmt.Errorf("backend: %s: corrupt journal frame at offset %d (valid frames follow — damage, not a torn tail)", path, off)
		}
	}
	a.size = off
	a.torn = off < int64(len(data))
	return a, nil
}

// Path returns the container file's location on the host filesystem.
func (a *Archive) Path() string { return a.path }

// parseFrame decodes one frame from b, returning its total length (<= 0 when
// b does not start with a complete, CRC-valid frame).
func parseFrame(b []byte) (n int, op byte, path string, payload []byte) {
	if len(b) < 1 {
		return 0, 0, "", nil
	}
	op = b[0]
	if op != opPut && op != opDel && op != opMkdir {
		return 0, 0, "", nil
	}
	i := 1
	plen, w := binary.Uvarint(b[i:])
	if w <= 0 || plen > uint64(len(b)) {
		return 0, 0, "", nil
	}
	i += w
	if uint64(len(b)-i) < plen {
		return 0, 0, "", nil
	}
	path = string(b[i : i+int(plen)])
	i += int(plen)
	if op == opPut {
		dlen, w := binary.Uvarint(b[i:])
		if w <= 0 || dlen > uint64(len(b)) {
			return 0, 0, "", nil
		}
		i += w
		if uint64(len(b)-i) < dlen {
			return 0, 0, "", nil
		}
		payload = append([]byte(nil), b[i:i+int(dlen)]...)
		i += int(dlen)
	}
	if len(b)-i < 4 {
		return 0, 0, "", nil
	}
	if crc32.ChecksumIEEE(b[:i]) != binary.LittleEndian.Uint32(b[i:]) {
		return 0, 0, "", nil
	}
	return i + 4, op, path, payload
}

// encodeFrame renders one journal frame.
func encodeFrame(op byte, path string, payload []byte) []byte {
	buf := make([]byte, 0, 1+2*binary.MaxVarintLen64+len(path)+len(payload)+4)
	buf = append(buf, op)
	buf = binary.AppendUvarint(buf, uint64(len(path)))
	buf = append(buf, path...)
	if op == opPut {
		buf = binary.AppendUvarint(buf, uint64(len(payload)))
		buf = append(buf, payload...)
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

// appendLocked durably appends one frame, creating the container (magic
// included) on first use and truncating a previously detected torn tail.
// The file handle is opened per call: the archive holds no OS state between
// operations, so a crashed process leaves nothing buffered and a recovery
// tool can reopen the same container immediately. Caller holds a.mu.
func (a *Archive) appendLocked(frame []byte) error {
	f, err := os.OpenFile(a.path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	if a.size == 0 {
		a.size = int64(len(archiveMagic))
		if _, err := f.WriteAt(archiveMagic, 0); err != nil {
			return err
		}
	}
	if a.torn {
		if err := f.Truncate(a.size); err != nil {
			return err
		}
		a.torn = false
	}
	if _, err := f.WriteAt(frame, a.size); err != nil {
		// Roll the container back to its last good frame so a partial
		// append cannot linger mid-file.
		f.Truncate(a.size)
		return err
	}
	a.size += int64(len(frame))
	return nil
}

func (a *Archive) mkdir(dir string) {
	dir = strings.TrimSuffix(dir, "/")
	for dir != "" && !a.dirs[dir] {
		a.dirs[dir] = true
		i := strings.LastIndex(dir, "/")
		if i <= 0 {
			break
		}
		dir = dir[:i]
	}
}

// MkdirAll implements Storage. Already-recorded directories append nothing,
// so reopening a store does not grow the journal.
func (a *Archive) MkdirAll(dir string) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.dirs[strings.TrimSuffix(dir, "/")] {
		return nil
	}
	if err := a.appendLocked(encodeFrame(opMkdir, dir, nil)); err != nil {
		return err
	}
	a.mkdir(dir)
	return nil
}

// WriteFile implements Storage.
func (a *Archive) WriteFile(path string, data []byte) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if err := a.appendLocked(encodeFrame(opPut, path, data)); err != nil {
		return err
	}
	if i := strings.LastIndex(path, "/"); i > 0 {
		a.mkdir(path[:i])
	}
	a.files[path] = append([]byte(nil), data...)
	return nil
}

// ReadFile implements Storage.
func (a *Archive) ReadFile(path string) ([]byte, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	data, ok := a.files[path]
	if !ok {
		return nil, notExist("read", path)
	}
	return append([]byte(nil), data...), nil
}

// ReadFileRange implements RangeReader against the replayed in-memory copy
// (the journal is whole-file framed, so there is no cheaper extent source).
func (a *Archive) ReadFileRange(path string, off, n int64) ([]byte, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	data, ok := a.files[path]
	if !ok {
		return nil, notExist("read", path)
	}
	off, n = clampRange(int64(len(data)), off, n)
	return append([]byte(nil), data[off:off+n]...), nil
}

// List implements Storage.
func (a *Archive) List(dir string) ([]string, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	dir = strings.TrimSuffix(dir, "/")
	if !a.dirs[dir] && dir != "" {
		return nil, notExist("list", dir)
	}
	var names []string
	prefix := dir + "/"
	for p := range a.files {
		if strings.HasPrefix(p, prefix) && !strings.Contains(p[len(prefix):], "/") {
			names = append(names, p[len(prefix):])
		}
	}
	sort.Strings(names)
	return names, nil
}

// Remove implements Storage.
func (a *Archive) Remove(path string) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if _, ok := a.files[path]; !ok {
		return notExist("remove", path)
	}
	if err := a.appendLocked(encodeFrame(opDel, path, nil)); err != nil {
		return err
	}
	delete(a.files, path)
	return nil
}

// Stat implements Storage.
func (a *Archive) Stat(path string) (int64, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	data, ok := a.files[path]
	if !ok {
		return 0, notExist("stat", path)
	}
	return int64(len(data)), nil
}

// Caps implements Storage.
func (a *Archive) Caps() uint32 { return CapAtomicWrite | CapPersistent | CapArchive }

// Vacuum rewrites the container with exactly one frame per live file and
// directory, dropping every superseded or deleted frame, then atomically
// renames it over the old journal. Store-level Compact folds segments into
// canonical files but appends the results; Vacuum reclaims the journal
// space those rewrites superseded.
func (a *Archive) Vacuum() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	buf := append([]byte(nil), archiveMagic...)
	dirs := make([]string, 0, len(a.dirs))
	for d := range a.dirs {
		if d != "/" && d != "" {
			dirs = append(dirs, d)
		}
	}
	sort.Strings(dirs)
	for _, d := range dirs {
		buf = append(buf, encodeFrame(opMkdir, d, nil)...)
	}
	paths := make([]string, 0, len(a.files))
	for p := range a.files {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		buf = append(buf, encodeFrame(opPut, p, a.files[p])...)
	}
	tmp := a.path + ".vacuum"
	if err := os.WriteFile(tmp, buf, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, a.path); err != nil {
		os.Remove(tmp)
		return err
	}
	a.size = int64(len(buf))
	a.torn = false
	return nil
}
