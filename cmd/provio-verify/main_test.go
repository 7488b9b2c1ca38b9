package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	provio "github.com/hpc-io/prov-io"
	"github.com/hpc-io/prov-io/internal/rdf/segcodec"
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

// textStore copies the committed loose text store, the store older builds
// wrote (a Turtle canonical file, N-Triples segments, a .sum sidecar
// sealing each), into a fresh directory and returns it with its recorded
// heads file.
func textStore(t *testing.T) (dir, heads string) {
	t.Helper()
	src := filepath.Join("..", "..", "internal", "core", "testdata", "legacy_text", "loose")
	dir = filepath.Join(t.TempDir(), "prov")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err == nil {
			err = os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return dir, src + ".heads"
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
		if strings.Contains(e.Name(), ".seg") && !strings.HasSuffix(e.Name(), ".sum") {
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
	dir, recorded := textStore(t)
	if code, out, _ := runCLI(t, "-store", dir, "-heads", recorded); code != exitClean {
		t.Fatalf("text store against its recorded heads: code %d, output %q", code, out)
	}
	heads := filepath.Join(t.TempDir(), "heads.txt")

	if code, _, errb := runCLI(t, "-store", dir, "-q", "-write-heads", heads); code != exitClean {
		t.Fatalf("write-heads: code %d, stderr %q", code, errb)
	}
	if code, _, _ := runCLI(t, "-store", dir, "-heads", heads); code != exitClean {
		t.Fatal("clean store failed heads-anchored verification")
	}

	// Deleting the chain's tail (segment + sidecar) is locally invisible but
	// must fail against the recorded heads.
	segs := segments(t, dir)
	tail := segs[len(segs)-1]
	for _, n := range []string{tail + ".sum", tail} {
		if err := os.Remove(filepath.Join(dir, n)); err != nil {
			t.Fatal(err)
		}
	}
	if code, _, _ := runCLI(t, "-store", dir); code != exitClean {
		t.Fatal("tail deletion should be locally invisible (this guards the test's premise)")
	}
	if code, out, _ := runCLI(t, "-store", dir, "-heads", heads); code != exitTampered {
		t.Fatalf("tail deletion against heads: code %d, output %q", code, out)
	}
}

func TestStrictFlagsUnsealed(t *testing.T) {
	dir, _ := textStore(t)

	// Deleting a mid-chain sidecar demotes its file to unsealed: tolerated by
	// default, orphaned under -strict.
	segs := segments(t, dir)
	if err := os.Remove(filepath.Join(dir, segs[0]+".sum")); err != nil {
		t.Fatal(err)
	}
	if code, _, _ := runCLI(t, "-store", dir); code != exitClean {
		t.Fatal("unsealed file must be tolerated without -strict")
	}
	if code, out, _ := runCLI(t, "-store", dir, "-strict"); code != exitOrphaned {
		t.Fatalf("-strict: code %d, output %q", code, out)
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
// it always was; a store in an older pbs layout, or a text store, verifies
// just as clean (exit 0: a verdict, not a defect), with its files counted by
// version or as text, since reads refuse them until the one rewrite; and a
// segment whose version this build does not know is reported as that —
// tampered, by its own decoder — not as Turtle syntax in a binary file.
func TestStoreGenerations(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "prov")
	buildStore(t, dir)
	code, out, _ := runCLI(t, "-store", dir)
	if code != exitClean || strings.Contains(out, "legacy") || !strings.Contains(out, "]\nclean") {
		t.Fatalf("current store: code %d, output %q", code, out)
	}

	for v := 1; v < segcodec.PBSVersion; v++ {
		legacy := filepath.Join("..", "..", "internal", "core", "testdata", fmt.Sprintf("legacy_pbs_v%d", v))
		want := fmt.Sprintf(", 3 file(s) in legacy pbs v%d (provio-merge -compact rewrites them)\n", v)
		for _, layout := range []string{"loose", "packed"} {
			code, out, _ := runCLI(t, "-store", filepath.Join(legacy, layout), "-heads", filepath.Join(legacy, layout+".heads"))
			if code != exitClean || !strings.Contains(out, want) {
				t.Errorf("version %d %s store: code %d, output %q", v, layout, code, out)
			}
		}
	}
	text := filepath.Join("..", "..", "internal", "core", "testdata", "legacy_text")
	for _, layout := range []string{"loose", "packed"} {
		code, out, _ := runCLI(t, "-store", filepath.Join(text, layout), "-heads", filepath.Join(text, layout+".heads"))
		if code != exitClean || !strings.Contains(out, ", 3 text file(s) (provio-merge -compact rewrites them)\n") {
			t.Errorf("text %s store: code %d, output %q", layout, code, out)
		}
	}
	for _, tc := range []struct {
		versions map[byte]int
		text     int
		want     string
	}{
		{nil, 0, ""},
		{map[byte]int{segcodec.PBSVersion: 4}, 0, ""},
		{map[byte]int{2: 5, 1: 3, segcodec.PBSVersion: 2}, 0, ", 3 file(s) in legacy pbs v1, 5 in v2 (provio-merge -compact rewrites them)"},
		{map[byte]int{2: 5}, 0, ", 5 file(s) in legacy pbs v2 (provio-merge -compact rewrites them)"},
		{nil, 2, ", 2 text file(s) (provio-merge -compact rewrites them)"},
		{map[byte]int{4: 1, 3: 6, segcodec.PBSVersion: 2}, 2, ", 2 text file(s), 6 file(s) in legacy pbs v3, 1 in v4 (provio-merge -compact rewrites them)"},
	} {
		if got := legacyNote(&provio.VerifyReport{PBSVersions: tc.versions, Text: tc.text}); got != tc.want {
			t.Errorf("legacyNote(%v, %d text) = %q, want %q", tc.versions, tc.text, got, tc.want)
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
