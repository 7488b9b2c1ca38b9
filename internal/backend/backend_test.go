package backend

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// storages returns one instance of every non-mount backend, each rooted so
// the shared contract suite can exercise it under the same logical paths.
func storages(t *testing.T) map[string]Storage {
	t.Helper()
	a, err := OpenArchive(filepath.Join(t.TempDir(), "store.pvs"))
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMount(mountRoot,
		Tier{Name: "hot", Hot: true, B: NewMem(), Root: mountRoot},
		Tier{Name: "cold", Hot: false, B: NewMem(), Root: mountRoot},
	)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Storage{
		"mem":   NewMem(),
		"file":  a,
		"mount": m,
	}
}

func TestStorageContract(t *testing.T) {
	// Dir gets the same suite via a TempDir root below; the in-memory family
	// shares mountRoot-style absolute paths.
	for name, b := range storages(t) {
		t.Run(name, func(t *testing.T) { contractSuite(t, b, mountRoot) })
	}
	t.Run("dir", func(t *testing.T) { contractSuite(t, Dir{}, filepath.Join(t.TempDir(), "prov")) })
}

func contractSuite(t *testing.T, b Storage, root string) {
	if err := b.MkdirAll(root); err != nil {
		t.Fatalf("MkdirAll: %v", err)
	}
	join := func(name string) string { return root + "/" + name }

	if _, err := b.ReadFile(join("missing")); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("ReadFile(missing) = %v, want fs.ErrNotExist", err)
	}
	if _, err := b.Stat(join("missing")); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("Stat(missing) = %v, want fs.ErrNotExist", err)
	}
	if err := b.Remove(join("missing")); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("Remove(missing) = %v, want fs.ErrNotExist", err)
	}

	if err := b.WriteFile(join("prov_p000001.nt"), []byte("alpha\n")); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	if err := b.WriteFile(join("prov_p000001.seg0001.nt"), []byte("beta\n")); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	data, err := b.ReadFile(join("prov_p000001.nt"))
	if err != nil || string(data) != "alpha\n" {
		t.Fatalf("ReadFile = %q, %v", data, err)
	}
	if n, err := b.Stat(join("prov_p000001.seg0001.nt")); err != nil || n != 5 {
		t.Fatalf("Stat = %d, %v, want 5", n, err)
	}

	// Overwrite replaces the whole file.
	if err := b.WriteFile(join("prov_p000001.nt"), []byte("gamma\n")); err != nil {
		t.Fatalf("overwrite: %v", err)
	}
	if data, _ := b.ReadFile(join("prov_p000001.nt")); string(data) != "gamma\n" {
		t.Fatalf("after overwrite: %q", data)
	}

	// Every built-in backend implements the optional RangeReader capability;
	// check the clamped-extent contract on each.
	rr, ok := b.(RangeReader)
	if !ok {
		t.Fatalf("%T does not implement RangeReader", b)
	}
	if got, err := rr.ReadFileRange(join("prov_p000001.nt"), 1, 3); err != nil || string(got) != "amm" {
		t.Fatalf("ReadFileRange(1,3) = %q, %v", got, err)
	}
	if got, err := rr.ReadFileRange(join("prov_p000001.nt"), 4, 100); err != nil || string(got) != "a\n" {
		t.Fatalf("ReadFileRange past EOF = %q, %v", got, err)
	}
	if got, err := rr.ReadFileRange(join("prov_p000001.nt"), 99, 5); err != nil || len(got) != 0 {
		t.Fatalf("ReadFileRange at EOF = %q, %v", got, err)
	}
	if _, err := rr.ReadFileRange(join("missing"), 0, 4); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("ReadFileRange(missing) = %v, want fs.ErrNotExist", err)
	}

	names, err := b.List(root)
	if err != nil {
		t.Fatalf("List: %v", err)
	}
	want := []string{"prov_p000001.nt", "prov_p000001.seg0001.nt"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("List = %v, want %v", names, want)
	}

	if err := b.Remove(join("prov_p000001.seg0001.nt")); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if _, err := b.ReadFile(join("prov_p000001.seg0001.nt")); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("ReadFile(removed) = %v, want fs.ErrNotExist", err)
	}

	// Mutating returned slices must not corrupt the stored copy.
	data, _ = b.ReadFile(join("prov_p000001.nt"))
	for i := range data {
		data[i] = 'X'
	}
	if data, _ := b.ReadFile(join("prov_p000001.nt")); string(data) != "gamma\n" {
		t.Fatalf("stored data aliased caller slice: %q", data)
	}
}

func TestMemListMissingDir(t *testing.T) {
	m := NewMem()
	if _, err := m.List("/never"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("List(uncreated) = %v, want fs.ErrNotExist", err)
	}
}

func TestArchiveReopenReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.pvs")
	a, err := OpenArchive(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.MkdirAll(mountRoot); err != nil {
		t.Fatal(err)
	}
	if err := a.WriteFile(mountRoot+"/a.nt", []byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := a.WriteFile(mountRoot+"/b.nt", []byte("two")); err != nil {
		t.Fatal(err)
	}
	if err := a.WriteFile(mountRoot+"/a.nt", []byte("three")); err != nil {
		t.Fatal(err)
	}
	if err := a.Remove(mountRoot + "/b.nt"); err != nil {
		t.Fatal(err)
	}

	re, err := OpenArchive(path)
	if err != nil {
		t.Fatal(err)
	}
	if data, err := re.ReadFile(mountRoot + "/a.nt"); err != nil || string(data) != "three" {
		t.Fatalf("replayed a.nt = %q, %v", data, err)
	}
	if _, err := re.ReadFile(mountRoot + "/b.nt"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("deleted file resurrected: %v", err)
	}
	names, err := re.List(mountRoot)
	if err != nil || !reflect.DeepEqual(names, []string{"a.nt"}) {
		t.Fatalf("List = %v, %v", names, err)
	}

	// Reopening must not have grown the journal (MkdirAll of an existing dir
	// appends nothing).
	before, _ := os.Stat(path)
	if err := re.MkdirAll(mountRoot); err != nil {
		t.Fatal(err)
	}
	after, _ := os.Stat(path)
	if before.Size() != after.Size() {
		t.Fatalf("idempotent MkdirAll grew journal: %d -> %d", before.Size(), after.Size())
	}
}

func TestArchiveTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.pvs")
	a, err := OpenArchive(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.WriteFile(mountRoot+"/a.nt", []byte("keep")); err != nil {
		t.Fatal(err)
	}
	good, _ := os.Stat(path)

	// Simulate a crash mid-append: a torn copy of a frame at the tail.
	frame := encodeFrame(opPut, mountRoot+"/b.nt", []byte("torn away"))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(frame[:len(frame)-3]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	re, err := OpenArchive(path)
	if err != nil {
		t.Fatalf("torn tail should not fail open: %v", err)
	}
	if data, err := re.ReadFile(mountRoot + "/a.nt"); err != nil || string(data) != "keep" {
		t.Fatalf("pre-crash data lost: %q, %v", data, err)
	}
	if _, err := re.ReadFile(mountRoot + "/b.nt"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("torn frame applied: %v", err)
	}

	// The next mutation truncates the wreckage and lands cleanly.
	if err := re.WriteFile(mountRoot+"/c.nt", []byte("fresh")); err != nil {
		t.Fatal(err)
	}
	re2, err := OpenArchive(path)
	if err != nil {
		t.Fatal(err)
	}
	if data, err := re2.ReadFile(mountRoot + "/c.nt"); err != nil || string(data) != "fresh" {
		t.Fatalf("post-recovery write lost: %q, %v", data, err)
	}
	if fi, _ := os.Stat(path); fi.Size() <= good.Size() {
		t.Fatalf("journal did not grow past pre-crash size: %d <= %d", fi.Size(), good.Size())
	}
}

func TestArchiveInteriorCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.pvs")
	a, err := OpenArchive(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.WriteFile(mountRoot+"/a.nt", []byte("first")); err != nil {
		t.Fatal(err)
	}
	if err := a.WriteFile(mountRoot+"/b.nt", []byte("second")); err != nil {
		t.Fatal(err)
	}

	// Flip one byte of every non-final frame: valid frames follow the damage,
	// so this is corruption, never a torn tail, and open must refuse rather
	// than silently replay an emptier store.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lastFrame := int64(len(raw)) - int64(len(encodeFrame(opPut, mountRoot+"/b.nt", []byte("second"))))
	for off := int64(len(archiveMagic)); off < lastFrame; off++ {
		bad := append([]byte(nil), raw...)
		bad[off] ^= 0x40
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenArchive(path); err == nil {
			t.Fatalf("interior flip at offset %d opened cleanly", off)
		}
	}

	// The same flip on the final frame reads as a torn tail (nothing valid
	// follows) and stays recoverable.
	bad := append([]byte(nil), raw...)
	bad[lastFrame+1] ^= 0x40
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := OpenArchive(path)
	if err != nil {
		t.Fatalf("damaged final frame should open as torn tail: %v", err)
	}
	if data, err := re.ReadFile(mountRoot + "/a.nt"); err != nil || string(data) != "first" {
		t.Fatalf("pre-damage data lost: %q, %v", data, err)
	}
	if _, err := re.ReadFile(mountRoot + "/b.nt"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("damaged frame applied: %v", err)
	}
}

func TestArchiveBadMagic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.pvs")
	if err := os.WriteFile(path, []byte("not an archive"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenArchive(path); err == nil || !strings.Contains(err.Error(), "bad magic") {
		t.Fatalf("OpenArchive on junk = %v, want bad-magic error", err)
	}
}

func TestArchiveVacuum(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.pvs")
	a, err := OpenArchive(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.MkdirAll(mountRoot); err != nil {
		t.Fatal(err)
	}
	// Pile up superseded frames.
	for i := 0; i < 20; i++ {
		if err := a.WriteFile(mountRoot+"/a.nt", []byte(strings.Repeat("x", 512))); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.WriteFile(mountRoot+"/gone.nt", []byte("doomed")); err != nil {
		t.Fatal(err)
	}
	if err := a.Remove(mountRoot + "/gone.nt"); err != nil {
		t.Fatal(err)
	}
	before, _ := os.Stat(path)
	if err := a.Vacuum(); err != nil {
		t.Fatal(err)
	}
	after, _ := os.Stat(path)
	if after.Size() >= before.Size() {
		t.Fatalf("Vacuum did not shrink journal: %d -> %d", before.Size(), after.Size())
	}
	// State is intact both live and across a reopen.
	for _, b := range []Storage{a, mustReopen(t, path)} {
		if data, err := b.ReadFile(mountRoot + "/a.nt"); err != nil || len(data) != 512 {
			t.Fatalf("post-vacuum read = %d bytes, %v", len(data), err)
		}
		if _, err := b.ReadFile(mountRoot + "/gone.nt"); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("vacuum resurrected deleted file: %v", err)
		}
	}
}

func mustReopen(t *testing.T, path string) *Archive {
	t.Helper()
	a, err := OpenArchive(path)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func testMount(t *testing.T) (*Mount, *Mem, *Mem) {
	t.Helper()
	hot, cold := NewMem(), NewMem()
	m, err := NewMount(mountRoot,
		Tier{Name: "hot", Hot: true, B: hot, Root: "/hot"},
		Tier{Name: "cold", Hot: false, B: cold, Root: "/cold"},
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.MkdirAll(mountRoot); err != nil {
		t.Fatal(err)
	}
	return m, hot, cold
}

func TestMountRouting(t *testing.T) {
	m, hot, cold := testMount(t)
	if err := m.WriteFile(mountRoot+"/prov_p000001.seg0001.nt", []byte("delta")); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteFile(mountRoot+"/prov_p000001.nt", []byte("canonical")); err != nil {
		t.Fatal(err)
	}
	if _, err := hot.ReadFile("/hot/prov_p000001.seg0001.nt"); err != nil {
		t.Fatalf("segment not routed hot: %v", err)
	}
	if _, err := cold.ReadFile("/cold/prov_p000001.nt"); err != nil {
		t.Fatalf("canonical not routed cold: %v", err)
	}
	// Any name with the segment infix routes hot.
	if err := m.WriteFile(mountRoot+"/prov_p000001.seg0001.sum", []byte("h")); err != nil {
		t.Fatal(err)
	}
	if _, err := hot.ReadFile("/hot/prov_p000001.seg0001.sum"); err != nil {
		t.Fatalf("segment-infix name not routed hot: %v", err)
	}

	names, err := m.List(mountRoot)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"prov_p000001.nt", "prov_p000001.seg0001.nt", "prov_p000001.seg0001.sum"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("union List = %v, want %v", names, want)
	}
}

func TestMountFallbackAndMisplaced(t *testing.T) {
	m, hot, cold := testMount(t)
	// A canonical file sitting on the hot tier (pre-migration layout): reads
	// fall back to it, and it is reported misplaced.
	if err := hot.WriteFile("/hot/prov_p000002.nt", []byte("old home")); err != nil {
		t.Fatal(err)
	}
	if data, err := m.ReadFile(mountRoot + "/prov_p000002.nt"); err != nil || string(data) != "old home" {
		t.Fatalf("fallback read = %q, %v", data, err)
	}
	if n, err := m.Stat(mountRoot + "/prov_p000002.nt"); err != nil || n != 8 {
		t.Fatalf("fallback stat = %d, %v", n, err)
	}
	if !m.Misplaced(mountRoot + "/prov_p000002.nt") {
		t.Fatal("canonical on hot tier not reported misplaced")
	}

	// Writing through the mount homes it and cleans the stale copy.
	if err := m.WriteFile(mountRoot+"/prov_p000002.nt", []byte("new home")); err != nil {
		t.Fatal(err)
	}
	if _, err := hot.ReadFile("/hot/prov_p000002.nt"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("stale hot copy survived write-through: %v", err)
	}
	if data, _ := cold.ReadFile("/cold/prov_p000002.nt"); string(data) != "new home" {
		t.Fatalf("cold copy = %q", data)
	}
	if m.Misplaced(mountRoot + "/prov_p000002.nt") {
		t.Fatal("homed file still reported misplaced")
	}
	if m.Misplaced(mountRoot + "/never.nt") {
		t.Fatal("absent file reported misplaced")
	}
}

func TestMountRemoveAllTiers(t *testing.T) {
	m, hot, cold := testMount(t)
	// Duplicate copies on both tiers: one Remove clears them all.
	if err := hot.WriteFile("/hot/x.nt", []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := cold.WriteFile("/cold/x.nt", []byte("b")); err != nil {
		t.Fatal(err)
	}
	if err := m.Remove(mountRoot + "/x.nt"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Stat(mountRoot + "/x.nt"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("copy survived Remove: %v", err)
	}
}

func TestMountCaps(t *testing.T) {
	m, _, _ := testMount(t)
	if caps := m.Caps(); caps&CapPersistent != 0 {
		t.Fatalf("mem+mem mount claims persistence: %s", CapsString(caps))
	}
	a, err := OpenArchive(filepath.Join(t.TempDir(), "s.pvs"))
	if err != nil {
		t.Fatal(err)
	}
	m2, err := NewMount(mountRoot,
		Tier{Name: "hot", Hot: true, B: Dir{}, Root: t.TempDir()},
		Tier{Name: "cold", Hot: false, B: a, Root: mountRoot},
	)
	if err != nil {
		t.Fatal(err)
	}
	if caps := m2.Caps(); caps != CapAtomicWrite|CapPersistent {
		t.Fatalf("dir+file mount caps = %s", CapsString(caps))
	}
}

func TestNewMountNeedsBothClasses(t *testing.T) {
	if _, err := NewMount(mountRoot, Tier{Hot: true, B: NewMem(), Root: "/a"}); err == nil {
		t.Fatal("hot-only mount accepted")
	}
	if _, err := NewMount(mountRoot, Tier{Hot: false, B: NewMem(), Root: "/a"}); err == nil {
		t.Fatal("cold-only mount accepted")
	}
}

func TestParseSpec(t *testing.T) {
	cases := []struct {
		in   string
		want string // canonical String(); "" means parse must fail
	}{
		{"dir:/prov", "dir:/prov"},
		{"/prov", "dir:/prov"},
		{"prov-out", "dir:prov-out"},
		{"mem:", "mem:"},
		{"file:/prov.pvs", "file:/prov.pvs"},
		{"mount:hot=mem:,cold=file:/prov.pvs", "mount:hot=mem:,cold=file:/prov.pvs"},
		{"mount:hot=dir:/fast,cold=dir:/slow", "mount:hot=dir:/fast,cold=dir:/slow"},
		{" dir:/prov ", "dir:/prov"},
		{"", ""},
		{"dir:", ""},
		{"file:", ""},
		{"mem:/x", ""},
		{"bogus:/x", ""},
		{"mount:hot=mem:", ""},
		{"mount:cold=mem:", ""},
		{"mount:hot=mem:,cold=mem:,hot=mem:", ""},
		{"mount:hot=mount:hot=mem:,cold=mem:,cold=mem:", ""},
		{"mount:tepid=mem:,cold=mem:", ""},
	}
	for _, c := range cases {
		got, err := parseSpec(c.in, true)
		if c.want == "" {
			if err == nil {
				t.Errorf("ParseSpec(%q) accepted, want error", c.in)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", c.in, err)
			continue
		}
		if got.String() != c.want {
			t.Errorf("ParseSpec(%q).String() = %q, want %q", c.in, got.String(), c.want)
		}
	}
}

func TestSpecOpen(t *testing.T) {
	dir := t.TempDir()
	b, root, err := Open("dir:" + dir)
	if err != nil || root != dir {
		t.Fatalf("dir open: root=%q err=%v", root, err)
	}
	if _, ok := b.(Dir); !ok {
		t.Fatalf("dir spec opened %T", b)
	}

	b, root, err = Open("mem:")
	if err != nil || root != mountRoot {
		t.Fatalf("mem open: root=%q err=%v", root, err)
	}
	if _, ok := b.(*Mem); !ok {
		t.Fatalf("mem spec opened %T", b)
	}

	pvs := filepath.Join(dir, "s.pvs")
	b, root, err = Open("file:" + pvs)
	if err != nil || root != mountRoot {
		t.Fatalf("file open: root=%q err=%v", root, err)
	}
	if a, ok := b.(*Archive); !ok || a.Path() != pvs {
		t.Fatalf("file spec opened %T", b)
	}

	b, root, err = Open("mount:hot=mem:,cold=file:" + pvs)
	if err != nil || root != mountRoot {
		t.Fatalf("mount open: root=%q err=%v", root, err)
	}
	m, ok := b.(*Mount)
	if !ok {
		t.Fatalf("mount spec opened %T", b)
	}
	tiers := m.tiers
	if len(tiers) != 2 || !tiers[0].Hot || tiers[1].Hot {
		t.Fatalf("mount tiers = %+v", tiers)
	}
}
