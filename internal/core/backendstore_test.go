package core

import (
	"bytes"
	"maps"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"github.com/hpc-io/prov-io/internal/backend"
	"github.com/hpc-io/prov-io/internal/faultfs"
	"github.com/hpc-io/prov-io/internal/vfs"
)

// This file runs the integrity machinery of PR 6 — the tamper/truncation
// matrix, the crash-consistency sweep — over the pluggable backends, and pins
// the mount layer's core promise: a store spanning backends is
// byte-equivalent to the same history in a plain directory, and Compact
// doubles as cross-backend migration.

// openSnapshotOn materializes a file snapshot on a fresh backend of the
// given kind and opens it, the cross-backend analogue of openDir.
func openSnapshotOn(t testing.TB, kind string, files map[string][]byte) *Store {
	t.Helper()
	var b Backend
	switch kind {
	case "vfs":
		b = VFSBackend{View: vfs.NewStore().NewView()}
	case "mem":
		b = backend.NewMem()
	case "file":
		a, err := backend.OpenArchive(filepath.Join(t.TempDir(), "store.pvs"))
		if err != nil {
			t.Fatal(err)
		}
		b = a
	case "mount":
		m, err := backend.NewMount("/prov",
			backend.Tier{Name: "hot", Hot: true, B: backend.NewMem(), Root: "/prov"},
			backend.Tier{Name: "cold", Hot: false, B: backend.NewMem(), Root: "/prov"})
		if err != nil {
			t.Fatal(err)
		}
		b = m
	default:
		t.Fatalf("unknown backend kind %q", kind)
	}
	if err := b.MkdirAll("/prov"); err != nil {
		t.Fatal(err)
	}
	for n, data := range files {
		if err := b.WriteFile("/prov/"+n, data); err != nil {
			t.Fatal(err)
		}
	}
	store, err := NewStore(b, "/prov", FormatBinary)
	if err != nil {
		t.Fatal(err)
	}
	return store
}

// TestWriteFileKeepsNoReference: every backend, and the fault injector
// wrapped around one, is done with a buffer once WriteFile returns — the
// store writes every file from a pooled buffer the next write overwrites.
func TestWriteFileKeepsNoReference(t *testing.T) {
	tmp := t.TempDir()
	archive, err := backend.OpenArchive(filepath.Join(tmp, "store.pvs"))
	if err != nil {
		t.Fatal(err)
	}
	mount, err := backend.NewMount("/prov",
		backend.Tier{Name: "hot", Hot: true, B: backend.NewMem(), Root: "/prov"},
		backend.Tier{Name: "cold", Hot: false, B: backend.NewMem(), Root: "/prov"})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		b    Backend
		dir  string
	}{
		{"mem", backend.NewMem(), "/prov"},
		{"dir", OSBackend{}, filepath.Join(tmp, "prov")},
		{"file", archive, "/prov"},
		{"mount", mount, "/prov"},
		{"vfs", VFSBackend{View: vfs.NewStore().NewView()}, "/prov"},
		{"faultfs", faultfs.New(backend.NewMem(), 1), "/prov"},
	} {
		t.Run(c.name, func(t *testing.T) {
			if err := c.b.MkdirAll(c.dir); err != nil {
				t.Fatal(err)
			}
			want := []byte("PBS\x05 the bytes a store file holds")
			buf := append(make([]byte, 0, 2*len(want)), want...)
			for i, name := range []string{"prov_p000000.pbs", "prov_p000000.seg0000.pbs"} {
				path := c.dir + "/" + name
				if err := c.b.WriteFile(path, buf); err != nil {
					t.Fatal(err)
				}
				// Overwrite the buffer, and grow it in place, the way the next
				// pooled write does.
				for j := range buf {
					buf[j] ^= byte(0x5a + i)
				}
				buf = append(buf, "more"...)
				got, err := c.b.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("%s reads %q after its buffer was overwritten, want %q", name, got, want)
				}
				buf = append(buf[:0], want...)
			}
		})
	}
}

// TestVerifyMatrixAcrossBackends re-runs the single-byte tamper and
// truncation matrices with the store held by each pluggable backend. The
// same damage must be detected regardless of substrate — verification reads
// only through the StoreBackend interface, and this pins that. The in-memory
// substrates run the exhaustive per-byte matrix; the file backend (real disk
// I/O per snapshot) samples several offsets per file, every file covered.
//
// A text store an older build wrote is refused as needing migration on
// every backend, damaged or not (checkTextDamageRefused).
func TestVerifyMatrixAcrossBackends(t *testing.T) {
	for _, kind := range []string{"mem", "file", "mount"} {
		t.Run("ttl/"+kind, func(t *testing.T) {
			checkRefused(t, "clean", openSnapshotOn(t, kind, asLayout(t, storeFiles(t, demoStore(t, VFSBackend{View: vfs.NewStore().NewView()})), "ttl")))
			checkTextDamageRefused(t, kind, flipped)
			checkTextDamageRefused(t, kind, truncated)
		})
	}
	src := newBinaryVFSStore(t)
	smallHistory(t, src, 0)
	clean := storeFiles(t, src)
	srcRep := mustVerify(t, src)
	heads := srcRep.Heads

	for _, kind := range []string{"mem", "file", "mount"} {
		t.Run("pbs/"+kind, func(t *testing.T) {
			// The untouched snapshot verifies clean with identical heads:
			// chain digests depend on file bytes, never on the substrate.
			rep := mustVerify(t, openSnapshotOn(t, kind, clean))
			if !rep.Clean() {
				t.Fatalf("clean snapshot has defects on %s: %v", kind, rep.Defects)
			}
			if string(rep.FormatHeads()) != string(srcRep.FormatHeads()) {
				t.Fatalf("heads differ across backends:\n%s\nvs\n%s",
					rep.FormatHeads(), srcRep.FormatHeads())
			}

			offsets := func(n int) []int {
				if kind != "file" {
					out := make([]int, n)
					for i := range out {
						out[i] = i
					}
					return out
				}
				set := map[int]bool{0: true, n / 3: true, n / 2: true, 2 * n / 3: true, n - 1: true}
				out := make([]int, 0, len(set))
				for i := range set {
					if i >= 0 && i < n {
						out = append(out, i)
					}
				}
				return out
			}

			mutate := func(name string, data []byte) map[string][]byte {
				mut := make(map[string][]byte, len(clean))
				for n, d := range clean {
					mut[n] = d
				}
				mut[name] = data
				return mut
			}

			for name, data := range clean {
				for _, i := range offsets(len(data)) {
					flipped := append([]byte(nil), data...)
					flipped[i] ^= 1 << (i % 8)
					if rep := mustVerify(t, openSnapshotOn(t, kind, mutate(name, flipped))); rep.Clean() {
						t.Errorf("%s: flip of %s byte %d verified clean", kind, name, i)
					}

					tstore := openSnapshotOn(t, kind, mutate(name, append([]byte(nil), data[:i]...)))
					if rep := mustVerify(t, tstore); rep.Clean() {
						anchored, err := tstore.VerifyAgainst(heads)
						if err != nil {
							t.Fatal(err)
						}
						if anchored.Clean() {
							t.Errorf("%s: truncating %s to %d bytes verified clean even against recorded heads", kind, name, i)
						}
					}
				}
			}
		})
	}
}

// TestCrashSweepBackends runs the full crash-consistency sweep with each
// pluggable substrate under the fault injector. The file sweep reopens the
// on-disk archive for every recovery, putting journal replay inside the
// crash loop; the mount sweep exercises tier routing and fallback at every
// crash point. A text store an older build wrote is swept through its
// writing instead, and every crash state is refused (textCrashSweep).
func TestCrashSweepBackends(t *testing.T) {
	for _, c := range []struct{ kind, layout string }{
		{"mem", "pbs"}, {"mem", "ttl"}, {"file", "pbs"}, {"mount", "pbs"}, {"mount", "ttl"},
	} {
		t.Run(c.kind+"/"+c.layout, func(t *testing.T) {
			if c.layout != "pbs" {
				textCrashSweep(t, c.layout, c.kind)
				return
			}
			rep, err := RunCrashSweep(CrashSweepConfig{Seed: 1, Torn: true, Backend: c.kind})
			if err != nil {
				t.Fatal(err)
			}
			t.Log(rep)
			for _, v := range rep.Violations {
				t.Error(v)
			}
			if rep.Points == 0 || rep.Recovered == 0 {
				t.Fatalf("sweep exercised %d points, recovered %d", rep.Points, rep.Recovered)
			}
			if rep.Recovered+rep.Rejected != rep.Points-len(rep.Violations) {
				t.Fatalf("accounting: %s", rep)
			}
		})
	}
}

// mergedNT renders a store's merged graph as canonical N-Triples bytes — the
// byte-level fingerprint the parity tests compare (what provio-query and
// provio-export emit).
func mergedNT(t *testing.T, s *Store) []byte {
	t.Helper()
	g, err := s.Merge()
	if err != nil {
		t.Fatal(err)
	}
	return ntBytes(t, g)
}

// TestMountStoreParity is the mount-spanning round-trip property: the same
// workload written through a mounted store (hot deltas in mem, compacted
// history in a .pvs archive) and through a plain directory store must merge
// to byte-identical output — before Compact, after Compact (which drains the
// hot tier into the archive), and when the archive is reopened cold.
//
// A text store an older build wrote, its segments on a hot tier and its
// canonical files on a cold one, is refused by every path on the mount,
// and Compact moves none of its files between the tiers.
func TestMountStoreParity(t *testing.T) {
	t.Run("ttl", func(t *testing.T) {
		src := newBinaryVFSStore(t)
		smallHistory(t, src, 0)
		smallHistory(t, src, 1)
		hot, cold := backend.NewMem(), backend.NewMem()
		mount, err := backend.NewMount("/prov",
			backend.Tier{Name: "hot", Hot: true, B: hot, Root: "/prov"},
			backend.Tier{Name: "cold", B: cold, Root: "/prov"})
		if err != nil {
			t.Fatal(err)
		}
		for name, data := range asLayout(t, storeFiles(t, src), "ttl") {
			if err := mount.WriteFile("/prov/"+name, data); err != nil {
				t.Fatal(err)
			}
		}
		mounted, err := NewStore(mount, "/prov", FormatBinary)
		if err != nil {
			t.Fatal(err)
		}
		tiers := func() map[string][]byte {
			out := map[string][]byte{}
			for tier, b := range map[string]Backend{"hot": hot, "cold": cold} {
				s, err := NewStore(b, "/prov", FormatBinary)
				if err != nil {
					t.Fatal(err)
				}
				for name, data := range storeFiles(t, s) {
					out[tier+"/"+name] = data
				}
			}
			return out
		}
		before := tiers()
		if !slices.ContainsFunc(fileNames(before), func(n string) bool { return strings.HasPrefix(n, "hot/") }) ||
			!slices.ContainsFunc(fileNames(before), func(n string) bool { return strings.HasPrefix(n, "cold/") }) {
			t.Fatalf("premise: files on both tiers, got %v", fileNames(before))
		}
		checkRefused(t, "mounted text store", mounted)
		if after := tiers(); !maps.EqualFunc(before, after, bytes.Equal) {
			t.Errorf("a refused path moved files between the tiers: %v, was %v", fileNames(after), fileNames(before))
		}
	})
	t.Run("pbs", mountStoreParityPBS)
}

// mountStoreParityPBS is TestMountStoreParity on the pbs store.
func mountStoreParityPBS(t *testing.T) {
	plain := newBinaryVFSStore(t)
	pvs := filepath.Join(t.TempDir(), "cold.pvs")
	mount, dir, err := backend.Open("mount:hot=mem:,cold=file:" + pvs)
	if err != nil {
		t.Fatal(err)
	}
	mounted, err := NewStore(mount, dir, FormatBinary)
	if err != nil {
		t.Fatal(err)
	}
	for pid := 0; pid < 2; pid++ {
		smallHistory(t, plain, pid)
		smallHistory(t, mounted, pid)
	}

	want := mergedNT(t, plain)
	if got := mergedNT(t, mounted); !bytes.Equal(got, want) {
		t.Fatal("mounted store merge differs from plain store before Compact")
	}
	rep := mustVerify(t, mounted)
	if !rep.Clean() {
		t.Fatalf("mounted store defects: %v", rep.Defects)
	}

	if err := mounted.Compact(); err != nil {
		t.Fatalf("Compact on mounted store: %v", err)
	}
	if got := mergedNT(t, mounted); !bytes.Equal(got, want) {
		t.Fatal("mounted store merge differs after Compact")
	}

	// After Compact every segment is folded: the whole history must now live
	// in the cold archive, readable on its own.
	cold, err := OpenStore("file:"+pvs, FormatBinary)
	if err != nil {
		t.Fatal(err)
	}
	if got := mergedNT(t, cold); !bytes.Equal(got, want) {
		t.Fatal("cold archive alone does not reproduce the merged history")
	}
	crep := mustVerify(t, cold)
	if !crep.Clean() {
		t.Fatalf("cold archive defects: %v", crep.Defects)
	}
}

// TestCompactMigratesBetweenBackends drives a history between substrates in
// both directions with nothing but Compact on a mount: dir -> .pvs archive,
// then archive -> a fresh dir. At every stage the store verifies clean and
// the chain heads survive unchanged — migration moves bytes, never rewrites
// history it wasn't asked to (the canonical files' digests are the heads).
func TestCompactMigratesBetweenBackends(t *testing.T) {
	oldDir := filepath.Join(t.TempDir(), "old")
	src, err := OpenStore("dir:"+oldDir, FormatBinary)
	if err != nil {
		t.Fatal(err)
	}
	smallHistory(t, src, 0)
	// Compact first so the source is a canonical-only store; its head then
	// must survive both migrations byte-for-byte.
	if err := src.Compact(); err != nil {
		t.Fatal(err)
	}
	srcRep := mustVerify(t, src)
	heads := srcRep.Heads
	_ = heads
	want := mergedNT(t, src)

	// dir -> archive: mount the old dir as hot (segments' home; there are
	// none left) and the archive as cold, and let Compact re-home the
	// misplaced canonicals.
	pvs := filepath.Join(t.TempDir(), "hist.pvs")
	mig, err := OpenStore("mount:hot=dir:"+oldDir+",cold=file:"+pvs, FormatBinary)
	if err != nil {
		t.Fatal(err)
	}
	if err := mig.Compact(); err != nil {
		t.Fatalf("migrating Compact: %v", err)
	}
	// The old directory is drained and the archive alone carries the store.
	if names, err := (backend.Dir{}).List(oldDir); err != nil || len(names) != 0 {
		t.Fatalf("old dir still holds %v (err %v) after migration", names, err)
	}
	arch, err := OpenStore("file:"+pvs, FormatBinary)
	if err != nil {
		t.Fatal(err)
	}
	rep := mustVerify(t, arch)
	if !rep.Clean() {
		t.Fatalf("migrated archive defects: %v", rep.Defects)
	}
	if string(rep.FormatHeads()) != string(srcRep.FormatHeads()) {
		t.Fatalf("migration changed chain heads:\n%s\nvs\n%s", rep.FormatHeads(), srcRep.FormatHeads())
	}
	if got := mergedNT(t, arch); !bytes.Equal(got, want) {
		t.Fatal("migrated archive merges differently")
	}

	// archive -> dir: the reverse mount moves it back onto a directory.
	newDir := filepath.Join(t.TempDir(), "new")
	back, err := OpenStore("mount:hot=file:"+pvs+",cold=dir:"+newDir, FormatBinary)
	if err != nil {
		t.Fatal(err)
	}
	if err := back.Compact(); err != nil {
		t.Fatalf("reverse migrating Compact: %v", err)
	}
	dst, err := OpenStore("dir:"+newDir, FormatBinary)
	if err != nil {
		t.Fatal(err)
	}
	rep = mustVerify(t, dst)
	if !rep.Clean() {
		t.Fatalf("reverse-migrated dir defects: %v", rep.Defects)
	}
	if string(rep.FormatHeads()) != string(srcRep.FormatHeads()) {
		t.Fatalf("reverse migration changed chain heads:\n%s\nvs\n%s", rep.FormatHeads(), srcRep.FormatHeads())
	}
	if got := mergedNT(t, dst); !bytes.Equal(got, want) {
		t.Fatal("reverse-migrated dir merges differently")
	}
}
