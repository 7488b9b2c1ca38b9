package vfs

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"github.com/hpc-io/prov-io/internal/simclock"
)

func newTestView() *View { return NewStore().NewView() }

func TestCreateWriteReadRoundTrip(t *testing.T) {
	v := newTestView()
	if err := v.WriteFile("/a.txt", []byte("hello lustre")); err != nil {
		t.Fatal(err)
	}
	got, err := v.ReadFile("/a.txt")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "hello lustre" {
		t.Errorf("content = %q", got)
	}
}

func TestOpenMissingFile(t *testing.T) {
	v := newTestView()
	_, err := v.Open("/missing")
	if !errors.Is(err, ErrNotExist) {
		t.Errorf("err = %v, want ErrNotExist", err)
	}
}

func TestMkdirAndNesting(t *testing.T) {
	v := newTestView()
	if err := v.Mkdir("/data"); err != nil {
		t.Fatal(err)
	}
	if err := v.Mkdir("/data"); !errors.Is(err, ErrExist) {
		t.Errorf("duplicate mkdir err = %v", err)
	}
	if err := v.Mkdir("/data/sub/deep"); !errors.Is(err, ErrNotExist) {
		t.Errorf("mkdir without parent err = %v", err)
	}
	if err := v.MkdirAll("/data/sub/deep"); err != nil {
		t.Fatal(err)
	}
	info, err := v.Stat("/data/sub/deep")
	if err != nil || !info.IsDir {
		t.Errorf("deep dir stat = %+v, %v", info, err)
	}
	if err := v.MkdirAll("/data/sub/deep"); err != nil {
		t.Errorf("MkdirAll idempotency: %v", err)
	}
}

func TestMkdirAllThroughFileFails(t *testing.T) {
	v := newTestView()
	v.WriteFile("/f", nil)
	if err := v.MkdirAll("/f/sub"); err == nil {
		t.Error("MkdirAll through a file succeeded")
	}
}

func TestOpenFlags(t *testing.T) {
	v := newTestView()
	v.WriteFile("/f", []byte("0123456789"))

	t.Run("rdonly-write-fails", func(t *testing.T) {
		f, _ := v.Open("/f")
		defer f.Close()
		if _, err := f.Write([]byte("x")); !errors.Is(err, ErrReadOnly) {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("wronly-read-fails", func(t *testing.T) {
		f, _ := v.OpenFile("/f", O_WRONLY)
		defer f.Close()
		if _, err := f.Read(make([]byte, 1)); !errors.Is(err, ErrWriteOnly) {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("trunc", func(t *testing.T) {
		f, _ := v.OpenFile("/f", O_RDWR|O_TRUNC)
		f.Close()
		data, _ := v.ReadFile("/f")
		if len(data) != 0 {
			t.Errorf("after trunc len = %d", len(data))
		}
	})
	t.Run("excl", func(t *testing.T) {
		v.WriteFile("/g", nil)
		if _, err := v.OpenFile("/g", O_CREATE|O_EXCL|O_RDWR); !errors.Is(err, ErrExist) {
			t.Errorf("O_EXCL on existing file err = %v", err)
		}
	})
	t.Run("open-dir-fails", func(t *testing.T) {
		v.Mkdir("/d")
		if _, err := v.Open("/d"); !errors.Is(err, ErrIsDir) {
			t.Errorf("err = %v", err)
		}
	})
}

func TestAppendMode(t *testing.T) {
	v := newTestView()
	v.WriteFile("/log", []byte("aaa"))
	f, err := v.OpenFile("/log", O_WRONLY|O_APPEND)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("bbb"))
	f.Write([]byte("ccc"))
	f.Close()
	data, _ := v.ReadFile("/log")
	if string(data) != "aaabbbccc" {
		t.Errorf("content = %q", data)
	}
}

func TestConcurrentAppendersInterleaveWithoutLoss(t *testing.T) {
	v := newTestView()
	v.WriteFile("/log", nil)
	var wg sync.WaitGroup
	const writers, per = 8, 500
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			f, err := v.OpenFile("/log", O_WRONLY|O_APPEND)
			if err != nil {
				t.Error(err)
				return
			}
			defer f.Close()
			for i := 0; i < per; i++ {
				f.Write([]byte{byte('a' + w)})
			}
		}(w)
	}
	wg.Wait()
	data, _ := v.ReadFile("/log")
	if len(data) != writers*per {
		t.Errorf("len = %d, want %d (appends lost)", len(data), writers*per)
	}
	// Two handles that took the same offset overwrite each other; the
	// per-writer counts say whose appends were lost.
	for w := 0; w < writers; w++ {
		if n := bytes.Count(data, []byte{byte('a' + w)}); n != per {
			t.Errorf("writer %d: %d of its %d appends survived", w, n, per)
		}
	}
}

func TestReadWriteAtAndSeek(t *testing.T) {
	v := newTestView()
	f, _ := v.Create("/f")
	f.WriteAt([]byte("world"), 6)
	f.WriteAt([]byte("hello"), 0)
	buf := make([]byte, 5)
	if _, err := f.ReadAt(buf, 6); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "world" {
		t.Errorf("ReadAt = %q", buf)
	}
	pos, err := f.Seek(-5, io.SeekEnd)
	if err != nil || pos != 6 {
		t.Fatalf("Seek = %d, %v", pos, err)
	}
	n, _ := f.Read(buf)
	if string(buf[:n]) != "world" {
		t.Errorf("Read after seek = %q", buf[:n])
	}
	if _, err := f.Seek(-100, io.SeekStart); err == nil {
		t.Error("negative seek allowed")
	}
	if _, err := f.Seek(0, 99); err == nil {
		t.Error("bad whence allowed")
	}
}

func TestReadAtEOFSemantics(t *testing.T) {
	v := newTestView()
	v.WriteFile("/f", []byte("abc"))
	f, _ := v.Open("/f")
	defer f.Close()
	buf := make([]byte, 10)
	n, err := f.ReadAt(buf, 0)
	if n != 3 || err != io.EOF {
		t.Errorf("short ReadAt = %d, %v; want 3, EOF", n, err)
	}
	if _, err := f.ReadAt(buf, 100); err != io.EOF {
		t.Errorf("past-end ReadAt err = %v", err)
	}
}

func TestTruncate(t *testing.T) {
	v := newTestView()
	f, _ := v.Create("/f")
	f.Write([]byte("0123456789"))
	if err := f.Truncate(4); err != nil {
		t.Fatal(err)
	}
	if f.Size() != 4 {
		t.Errorf("Size = %d", f.Size())
	}
	if err := f.Truncate(8); err != nil {
		t.Fatal(err)
	}
	data, _ := v.ReadFile("/f")
	if string(data) != "0123\x00\x00\x00\x00" {
		t.Errorf("grown content = %q", data)
	}
	if err := f.Truncate(-1); err == nil {
		t.Error("negative truncate allowed")
	}
}

func TestTruncateThenGrowReadsZeros(t *testing.T) {
	// Shrinking must zero the abandoned region even though the underlying
	// capacity is reused by later extending writes.
	v := newTestView()
	f, _ := v.Create("/f")
	f.Write([]byte("SECRETDATA"))
	if err := f.Truncate(2); err != nil {
		t.Fatal(err)
	}
	// Extend within old capacity by writing at a later offset.
	f.WriteAt([]byte("ZZ"), 8)
	data, _ := v.ReadFile("/f")
	want := []byte{'S', 'E', 0, 0, 0, 0, 0, 0, 'Z', 'Z'}
	if string(data) != string(want) {
		t.Errorf("data = %q, want %q (stale bytes re-exposed)", data, want)
	}
}

func TestManyExtendingWritesAmortized(t *testing.T) {
	// 20k small appends must complete quickly (amortized growth, not
	// O(n²) whole-file copies).
	v := newTestView()
	f, _ := v.OpenFile("/big", O_RDWR|O_CREATE|O_APPEND)
	chunk := make([]byte, 256)
	for i := 0; i < 20000; i++ {
		if _, err := f.Write(chunk); err != nil {
			t.Fatal(err)
		}
	}
	if f.Size() != 20000*256 {
		t.Errorf("size = %d", f.Size())
	}
	f.Close()
}

func TestCloseSemantics(t *testing.T) {
	v := newTestView()
	f, _ := v.Create("/f")
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); !errors.Is(err, ErrClosed) {
		t.Errorf("double close err = %v", err)
	}
	if _, err := f.Read(make([]byte, 1)); !errors.Is(err, ErrClosed) {
		t.Errorf("read after close err = %v", err)
	}
	if _, err := f.Write([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Errorf("write after close err = %v", err)
	}
	if err := f.Sync(); !errors.Is(err, ErrClosed) {
		t.Errorf("sync after close err = %v", err)
	}
}

func TestRemove(t *testing.T) {
	v := newTestView()
	v.WriteFile("/f", nil)
	if err := v.Remove("/f"); err != nil {
		t.Fatal(err)
	}
	if v.Exists("/f") {
		t.Error("file still exists")
	}
	if err := v.Remove("/f"); !errors.Is(err, ErrNotExist) {
		t.Errorf("remove twice err = %v", err)
	}
	v.MkdirAll("/d/sub")
	if err := v.Remove("/d"); !errors.Is(err, ErrNotEmpty) {
		t.Errorf("remove non-empty dir err = %v", err)
	}
	v.Remove("/d/sub")
	if err := v.Remove("/d"); err != nil {
		t.Errorf("remove emptied dir err = %v", err)
	}
}

func TestRename(t *testing.T) {
	v := newTestView()
	v.MkdirAll("/a")
	v.MkdirAll("/b")
	v.WriteFile("/a/f", []byte("data"))
	if err := v.Rename("/a/f", "/b/g"); err != nil {
		t.Fatal(err)
	}
	if v.Exists("/a/f") {
		t.Error("old path still exists")
	}
	data, err := v.ReadFile("/b/g")
	if err != nil || string(data) != "data" {
		t.Errorf("renamed content = %q, %v", data, err)
	}
	if err := v.Rename("/a/f", "/b/h"); !errors.Is(err, ErrNotExist) {
		t.Errorf("rename missing err = %v", err)
	}
	// Replace existing file.
	v.WriteFile("/b/h", []byte("old"))
	if err := v.Rename("/b/g", "/b/h"); err != nil {
		t.Fatal(err)
	}
	data, _ = v.ReadFile("/b/h")
	if string(data) != "data" {
		t.Errorf("replaced content = %q", data)
	}
	// Renaming onto a directory fails.
	v.WriteFile("/b/x", nil)
	if err := v.Rename("/b/x", "/a"); !errors.Is(err, ErrIsDir) {
		t.Errorf("rename onto dir err = %v", err)
	}
}

func TestHardLink(t *testing.T) {
	v := newTestView()
	v.WriteFile("/f", []byte("shared"))
	if err := v.Link("/f", "/g"); err != nil {
		t.Fatal(err)
	}
	info, _ := v.Stat("/f")
	if info.Nlink != 2 {
		t.Errorf("nlink = %d, want 2", info.Nlink)
	}
	// Write through one name, read through the other.
	f, _ := v.OpenFile("/g", O_RDWR)
	f.WriteAt([]byte("SHARED"), 0)
	f.Close()
	data, _ := v.ReadFile("/f")
	if string(data) != "SHARED" {
		t.Errorf("content via original = %q", data)
	}
	// Removing one name keeps the other.
	v.Remove("/f")
	if !v.Exists("/g") {
		t.Error("hard link vanished with original")
	}
	if err := v.Link("/g", "/g"); !errors.Is(err, ErrExist) {
		t.Errorf("link onto existing err = %v", err)
	}
	v.Mkdir("/d")
	if err := v.Link("/d", "/d2"); !errors.Is(err, ErrIsDir) {
		t.Errorf("hard link to dir err = %v", err)
	}
}

func TestSymlink(t *testing.T) {
	v := newTestView()
	v.MkdirAll("/data")
	v.WriteFile("/data/real.h5", []byte("h5data"))
	if err := v.Symlink("/data/real.h5", "/latest"); err != nil {
		t.Fatal(err)
	}
	data, err := v.ReadFile("/latest")
	if err != nil || string(data) != "h5data" {
		t.Fatalf("read through symlink = %q, %v", data, err)
	}
	li, err := v.Lstat("/latest")
	if err != nil || !li.IsLink || li.Target != "/data/real.h5" {
		t.Errorf("Lstat = %+v, %v", li, err)
	}
	si, err := v.Stat("/latest")
	if err != nil || si.IsLink || si.Size != 6 {
		t.Errorf("Stat = %+v, %v", si, err)
	}
}

func TestSymlinkRelative(t *testing.T) {
	v := newTestView()
	v.MkdirAll("/data")
	v.WriteFile("/data/real", []byte("x"))
	if err := v.Symlink("real", "/data/alias"); err != nil {
		t.Fatal(err)
	}
	data, err := v.ReadFile("/data/alias")
	if err != nil || string(data) != "x" {
		t.Errorf("relative symlink read = %q, %v", data, err)
	}
}

func TestSymlinkDirectoryTraversal(t *testing.T) {
	v := newTestView()
	v.MkdirAll("/real/dir")
	v.WriteFile("/real/dir/f", []byte("y"))
	v.Symlink("/real", "/alias")
	data, err := v.ReadFile("/alias/dir/f")
	if err != nil || string(data) != "y" {
		t.Errorf("read through dir symlink = %q, %v", data, err)
	}
}

func TestSymlinkLoopDetected(t *testing.T) {
	v := newTestView()
	v.Symlink("/b", "/a")
	v.Symlink("/a", "/b")
	if _, err := v.ReadFile("/a"); !errors.Is(err, ErrLinkLoop) {
		t.Errorf("loop err = %v", err)
	}
}

func TestXattrs(t *testing.T) {
	v := newTestView()
	v.WriteFile("/f", nil)
	if err := v.Setxattr("/f", "user.units", []byte("m/s")); err != nil {
		t.Fatal(err)
	}
	v.Setxattr("/f", "user.origin", []byte("sensor7"))
	val, err := v.Getxattr("/f", "user.units")
	if err != nil || string(val) != "m/s" {
		t.Errorf("Getxattr = %q, %v", val, err)
	}
	if _, err := v.Getxattr("/f", "user.missing"); !errors.Is(err, ErrNoAttr) {
		t.Errorf("missing attr err = %v", err)
	}
	names, _ := v.Listxattr("/f")
	if len(names) != 2 || names[0] != "user.origin" || names[1] != "user.units" {
		t.Errorf("Listxattr = %v", names)
	}
	info, _ := v.Stat("/f")
	if info.Xattrs != 2 {
		t.Errorf("Xattrs = %d", info.Xattrs)
	}
	// Values are copied, not aliased.
	val[0] = 'X'
	val2, _ := v.Getxattr("/f", "user.units")
	if string(val2) != "m/s" {
		t.Error("xattr value aliased caller buffer")
	}
}

func TestReadDirSorted(t *testing.T) {
	v := newTestView()
	v.MkdirAll("/d")
	for _, name := range []string{"c.h5", "a.h5", "b.tdms"} {
		v.WriteFile("/d/"+name, nil)
	}
	v.Mkdir("/d/sub")
	infos, err := v.ReadDir("/d")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, fi := range infos {
		names = append(names, fi.Name)
	}
	want := []string{"a.h5", "b.tdms", "c.h5", "sub"}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("ReadDir = %v, want %v", names, want)
		}
	}
	if _, err := v.ReadDir("/d/a.h5"); !errors.Is(err, ErrNotDir) {
		t.Errorf("ReadDir on file err = %v", err)
	}
}

func TestPathCleaning(t *testing.T) {
	v := newTestView()
	v.MkdirAll("/a/b")
	v.WriteFile("/a/b/f", []byte("z"))
	for _, p := range []string{"/a/b/f", "a/b/f", "/a//b/f", "/a/./b/f", "/a/b/../b/f"} {
		data, err := v.ReadFile(p)
		if err != nil || string(data) != "z" {
			t.Errorf("path %q: %q, %v", p, data, err)
		}
	}
	if _, err := v.Open(""); err == nil {
		t.Error("empty path accepted")
	}
}

func TestChargedViewAdvancesClock(t *testing.T) {
	store := NewStore()
	clock := simclock.NewClock()
	cost := simclock.Default()
	v := store.NewChargedView(clock, cost)

	v.WriteFile("/f", make([]byte, 1<<20))
	afterWrite := clock.Now()
	if afterWrite <= 0 {
		t.Fatal("write charged nothing")
	}
	// Expect at least metadata + 1MB/bandwidth.
	minWrite := cost.MetadataLatency + cost.WriteCost(1<<20)
	if afterWrite < minWrite {
		t.Errorf("write charged %v, want >= %v", afterWrite, minWrite)
	}
	v.ReadFile("/f")
	if clock.Now() <= afterWrite {
		t.Error("read charged nothing")
	}
}

func TestUnchargedViewSharesData(t *testing.T) {
	store := NewStore()
	clock := simclock.NewClock()
	charged := store.NewChargedView(clock, simclock.Default())
	plain := store.NewView()

	charged.WriteFile("/f", []byte("visible"))
	data, err := plain.ReadFile("/f")
	if err != nil || string(data) != "visible" {
		t.Errorf("cross-view read = %q, %v", data, err)
	}
	before := clock.Now()
	plain.ReadFile("/f")
	if clock.Now() != before {
		t.Error("uncharged view advanced the charged view's clock")
	}
}

func TestPerRankClockIsolation(t *testing.T) {
	store := NewStore()
	cost := simclock.Default()
	c0, c1 := simclock.NewClock(), simclock.NewClock()
	v0 := store.NewChargedView(c0, cost)
	v1 := store.NewChargedView(c1, cost)

	v0.WriteFile("/rank0", make([]byte, 4096))
	if c1.Now() != 0 {
		t.Error("rank 1 clock charged for rank 0 I/O")
	}
	v1.ReadFile("/rank0")
	if c1.Now() == 0 {
		t.Error("rank 1 clock not charged for its own I/O")
	}
}

func TestSyncChargesMetadata(t *testing.T) {
	store := NewStore()
	clock := simclock.NewClock()
	v := store.NewChargedView(clock, simclock.Default())
	f, _ := v.Create("/f")
	before := clock.Now()
	f.Sync()
	if clock.Now() != before+v.CostModel().MetadataLatency {
		t.Errorf("Sync charged %v", clock.Now()-before)
	}
}

func TestConcurrentMixedOperations(t *testing.T) {
	store := NewStore()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			v := store.NewView()
			dir := fmt.Sprintf("/w%d", w)
			if err := v.MkdirAll(dir); err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < 30; i++ {
				p := fmt.Sprintf("%s/f%d", dir, i)
				if err := v.WriteFile(p, []byte("x")); err != nil {
					t.Error(err)
				}
				v.Setxattr(p, "user.k", []byte("v"))
				v.Stat(p)
				v.ReadDir(dir)
				if i%3 == 0 {
					v.Rename(p, p+".renamed")
				}
			}
		}(w)
	}
	wg.Wait()
}

// Property: WriteFile then ReadFile returns identical bytes for any content.
func TestWriteReadProperty(t *testing.T) {
	v := newTestView()
	f := func(data []byte, nameSeed uint8) bool {
		p := fmt.Sprintf("/prop/f%d", nameSeed)
		v.MkdirAll("/prop")
		if err := v.WriteFile(p, data); err != nil {
			return false
		}
		got, err := v.ReadFile(p)
		if err != nil {
			return false
		}
		if len(got) != len(data) {
			return false
		}
		for i := range data {
			if got[i] != data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: WriteAt at arbitrary offsets yields a file whose size is
// max(end of writes) and whose holes read as zero.
func TestWriteAtHolesProperty(t *testing.T) {
	f := func(off uint16, payload []byte) bool {
		if len(payload) == 0 {
			return true
		}
		v := newTestView()
		fh, err := v.Create("/f")
		if err != nil {
			return false
		}
		defer fh.Close()
		if _, err := fh.WriteAt(payload, int64(off)); err != nil {
			return false
		}
		if fh.Size() != int64(off)+int64(len(payload)) {
			return false
		}
		data, err := v.ReadFile("/f")
		if err != nil {
			return false
		}
		for i := 0; i < int(off); i++ {
			if data[i] != 0 {
				return false
			}
		}
		return string(data[off:]) == string(payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestClockViewAccessors(t *testing.T) {
	store := NewStore()
	clock := simclock.NewClock()
	cost := simclock.Default()
	v := store.NewChargedView(clock, cost)
	if v.Clock() != clock {
		t.Error("Clock accessor wrong")
	}
	if v.CostModel().MetadataLatency != cost.MetadataLatency {
		t.Error("CostModel accessor wrong")
	}
	clock.Advance(time.Second)
	if v.Clock().Now() != time.Second {
		t.Error("clock not shared")
	}
}
