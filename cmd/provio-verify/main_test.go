package main

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	provio "github.com/hpc-io/prov-io"
)

// buildStore writes a small two-run history (sealed canonical + sealed delta
// segments) into dir with the real OS backend, as a production run would.
func buildStore(t *testing.T, dir string) {
	t.Helper()
	store, err := provio.NewStore(provio.OSBackend{}, dir, provio.FormatBinary)
	if err != nil {
		t.Fatal(err)
	}
	tr := provio.NewTracker(provio.DefaultConfig(), store, 0)
	user := tr.RegisterUser("alice")
	tr.RegisterProgram("verify.exe", user)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	cfg := provio.DefaultConfig()
	cfg.Mode = provio.ModePeriodic
	cfg.FlushEvery = 1
	tr = provio.NewTracker(cfg, store, 0)
	for i := 0; i < 3; i++ {
		tr.TrackIO(provio.ModelWrite, "H5Dwrite", provio.Term{}, provio.Term{},
			time.Duration(i)*time.Millisecond, 0)
	}
	if err := tr.Drain(); err != nil {
		t.Fatal(err)
	}
}

func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// segments returns the store's delta segment file names, sorted.
func segments(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var segs []string
	for _, e := range entries {
		if strings.Contains(e.Name(), ".seg") {
			segs = append(segs, e.Name())
		}
	}
	sort.Strings(segs)
	return segs
}

func TestExitCodes(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "prov")
	buildStore(t, dir)

	code, out, _ := runCLI(t, "-store", dir)
	if code != exitClean || !strings.Contains(out, "clean") {
		t.Fatalf("clean store: code %d, output %q", code, out)
	}

	// Tampered: flip one byte mid-file.
	segs := segments(t, dir)
	victim := filepath.Join(dir, segs[1])
	data, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	good := append([]byte(nil), data...)
	data[len(data)/3] ^= 0x10
	if err := os.WriteFile(victim, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if code, out, _ := runCLI(t, "-store", dir); code != exitTampered {
		t.Fatalf("tampered store: code %d, output %q", code, out)
	}

	// Truncated: cut the same file short.
	if err := os.WriteFile(victim, good[:len(good)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if code, out, _ := runCLI(t, "-store", dir); code != exitTruncated {
		t.Fatalf("truncated store: code %d, output %q", code, out)
	}

	// Missing: delete a middle segment outright.
	if err := os.Remove(victim); err != nil {
		t.Fatal(err)
	}
	if code, out, _ := runCLI(t, "-store", dir); code != exitMissing {
		t.Fatalf("store with deleted segment: code %d, output %q", code, out)
	}
}

func TestHeadsAnchoring(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "prov")
	buildStore(t, dir)
	heads := filepath.Join(t.TempDir(), "heads.txt")

	if code, _, errb := runCLI(t, "-store", dir, "-q", "-write-heads", heads); code != exitClean {
		t.Fatalf("write-heads: code %d, stderr %q", code, errb)
	}
	if code, _, _ := runCLI(t, "-store", dir, "-heads", heads); code != exitClean {
		t.Fatal("clean store failed heads-anchored verification")
	}

	// Deleting the chain's tail segment is locally invisible but must fail
	// against the recorded heads.
	segs := segments(t, dir)
	if err := os.Remove(filepath.Join(dir, segs[len(segs)-1])); err != nil {
		t.Fatal(err)
	}
	if code, _, _ := runCLI(t, "-store", dir); code != exitClean {
		t.Fatal("tail deletion should be locally invisible (this guards the test's premise)")
	}
	if code, out, _ := runCLI(t, "-store", dir, "-heads", heads); code != exitTampered {
		t.Fatalf("tail deletion against heads: code %d, output %q", code, out)
	}
}

func TestOperationalErrors(t *testing.T) {
	if code, _, errb := runCLI(t); code != exitOperational || !strings.Contains(errb, "-store is required") {
		t.Fatalf("missing -store: code %d, stderr %q", code, errb)
	}
	if code, _, _ := runCLI(t, "-store", "x", "-heads", "/does/not/exist"); code != exitOperational {
		t.Fatal("unreadable heads file must be an operational error")
	}
}

// TestStrictFlagsUnsealed: every write appends its seal in the same write,
// so a file cut exactly before its chain frame is flagged by default — a
// truncated defect, exit 3 — and there is nothing left for -strict to be
// strict about: the flag is gone, an operational error.
func TestStrictFlagsUnsealed(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "prov")
	buildStore(t, dir)
	segs := segments(t, dir)
	newest := filepath.Join(dir, segs[len(segs)-1])
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	// Walk the frames (uvarint length, payload, CRC32) to the last, the seal.
	cut := -1
	for off := 4; off < len(data); {
		n, k := binary.Uvarint(data[off:])
		end := off + k + int(n) + 4
		if k <= 0 || end > len(data) {
			t.Fatalf("%s: malformed frame at %d", segs[len(segs)-1], off)
		}
		if end == len(data) && bytes.HasPrefix(data[off+k:], []byte("CHN")) {
			cut = off
		}
		off = end
	}
	if cut < 0 {
		t.Fatal("premise: the newest segment ends in its chain frame")
	}
	if err := os.WriteFile(newest, data[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
	if code, out, _ := runCLI(t, "-store", dir); code != exitTruncated || !strings.Contains(out, "ends before its chain frame") {
		t.Fatalf("unsealed newest segment: code %d, output %q", code, out)
	}
	if code, _, errb := runCLI(t, "-store", dir, "-strict"); code != exitOperational || !strings.Contains(errb, "-strict") {
		t.Fatalf("-strict: code %d, stderr %q", code, errb)
	}
}

func TestSelftest(t *testing.T) {
	code, out, errb := runCLI(t, "-selftest")
	if code != exitClean {
		t.Fatalf("selftest: code %d, stderr %q", code, errb)
	}
	if strings.Count(out, "crash sweep:") != 4 {
		t.Fatalf("selftest output missing per-case reports: %q", out)
	}
	for _, want := range []string{"vfs pbs", "mem pbs", "file pbs", "mount pbs"} {
		if !strings.Contains(out, want+" crash sweep:") {
			t.Fatalf("selftest output missing %q sweep: %q", want, out)
		}
	}
}

// TestStoreGenerations: the summary line of a store this build wrote is what
// it always was; a store an older build wrote, in an older pbs layout or as
// text, loose or packed, is refused (exit 1: a verdict, not a defect) naming
// the build that migrates it; and a segment whose version this build does
// not know is reported as that — tampered, by its own decoder.
func TestStoreGenerations(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "prov")
	buildStore(t, dir)
	code, out, _ := runCLI(t, "-store", dir)
	if code != exitClean || !strings.Contains(out, "]\nclean") {
		t.Fatalf("current store: code %d, output %q", code, out)
	}

	testdata := filepath.Join("..", "..", "internal", "core", "testdata")
	for _, old := range []string{"legacy_pbs_v1", "legacy_pbs_v2", "legacy_pbs_v3", "legacy_pbs_v4", "legacy_text"} {
		for _, layout := range []string{"loose", "packed"} {
			store := filepath.Join(testdata, old, layout)
			code, out, errb := runCLI(t, "-store", store, "-heads", store+".heads")
			if code != exitOperational || out != "" || !strings.Contains(errb, "provio-merge -compact built from commit 93a6ed8") {
				t.Errorf("%s/%s store: code %d, stdout %q, stderr %q", old, layout, code, out, errb)
			}
		}
	}

	victim := filepath.Join(dir, segments(t, dir)[2])
	data, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	data[3] = 9
	if err := os.WriteFile(victim, data, 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, _ = runCLI(t, "-store", dir)
	if code != exitTampered || !strings.Contains(out, "unsupported pbs version 9") {
		t.Errorf("unknown version: code %d, output %q", code, out)
	}
}
