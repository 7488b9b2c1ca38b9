package stats

import (
	"strings"
	"testing"
	"time"

	"github.com/hpc-io/prov-io/internal/core"
	"github.com/hpc-io/prov-io/internal/model"
	"github.com/hpc-io/prov-io/internal/rdf"
)

// buildGraph tracks a small mixed workload with durations.
func buildGraph(t *testing.T, duration bool) *rdf.Graph {
	t.Helper()
	cfg := core.ScenarioConfig(duration, "Create", "Open", "Read", "Write", "Fsync", "Rename", "File", "Dataset")
	tr := core.NewTracker(cfg, nil, 0)
	file := tr.TrackDataObject(model.File, "/data/f.h5", "/data/f.h5", rdf.Term{}, rdf.Term{})
	ds := tr.TrackDataObject(model.Dataset, "/data/f.h5/x", "/x", file, rdf.Term{})
	tr.TrackIO(model.Create, "H5Fcreate", file, rdf.Term{}, 0, 2*time.Millisecond)
	tr.TrackIO(model.Create, "H5Dcreate2", ds, rdf.Term{}, 0, time.Millisecond)
	for i := 0; i < 5; i++ {
		tr.TrackIO(model.Write, "H5Dwrite", ds, rdf.Term{}, 0, 10*time.Millisecond)
	}
	for i := 0; i < 3; i++ {
		tr.TrackIO(model.Read, "H5Dread", ds, rdf.Term{}, 0, 4*time.Millisecond)
	}
	tr.TrackIO(model.Fsync, "H5Fflush", file, rdf.Term{}, 0, time.Millisecond)
	tr.TrackIO(model.Rename, "rename", file, rdf.Term{}, 0, time.Millisecond)
	return tr.Graph()
}

func TestComputeOpCounts(t *testing.T) {
	s := Compute(buildGraph(t, false))
	if s.Activities != 12 {
		t.Errorf("Activities = %d, want 12", s.Activities)
	}
	want := map[string]int{"H5Fcreate": 1, "H5Dcreate2": 1, "H5Dwrite": 5, "H5Dread": 3, "H5Fflush": 1, "rename": 1}
	for api, n := range want {
		if s.OpCounts[api] != n {
			t.Errorf("OpCounts[%s] = %d, want %d", api, s.OpCounts[api], n)
		}
	}
	if s.HasDurations {
		t.Error("durations reported despite duration=off")
	}
	if api, _ := s.bottleneck(); api != "" {
		t.Errorf("bottleneck = %q without durations", api)
	}
}

func TestComputeDurationsAndBottleneck(t *testing.T) {
	s := Compute(buildGraph(t, true))
	if !s.HasDurations {
		t.Fatal("durations missing")
	}
	if got := s.OpTotal["H5Dwrite"]; got != 50*time.Millisecond {
		t.Errorf("H5Dwrite total = %v, want 50ms", got)
	}
	api, d := s.bottleneck()
	if api != "H5Dwrite" || d != 50*time.Millisecond {
		t.Errorf("bottleneck = %s, %v", api, d)
	}
}

func TestObjectProfiles(t *testing.T) {
	s := Compute(buildGraph(t, false))
	hot := s.hottestObjects(0)
	if len(hot) != 2 {
		t.Fatalf("objects = %d, want 2", len(hot))
	}
	top := hot[0]
	if top.Name != "/x" || top.Class != "Dataset" {
		t.Errorf("hottest = %+v", top)
	}
	if top.Writes != 5 || top.Reads != 3 || top.Created != 1 {
		t.Errorf("dataset profile = %+v", top)
	}
	fileProf := hot[1]
	if fileProf.Flushes != 1 || fileProf.Renames != 1 || fileProf.Created != 1 {
		t.Errorf("file profile = %+v", fileProf)
	}
	if got := s.hottestObjects(1); len(got) != 1 {
		t.Errorf("hottestObjects(1) = %d entries", len(got))
	}
}

func TestWriteReport(t *testing.T) {
	s := Compute(buildGraph(t, true))
	var sb strings.Builder
	if err := s.Write(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"total I/O API invocations: 12", "H5Dwrite", "bottleneck: H5Dwrite", "hottest data objects"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestAPINameOf(t *testing.T) {
	cases := map[string]string{
		model.ActivityIRI("H5Dwrite", 3, 7):   "H5Dwrite",
		model.ActivityIRI("read", 0, 1):       "read",
		model.ActivityIRI("adios2_put", 1, 2): "adios2_put",
		"plainname":                           "plainname",
	}
	for iri, want := range cases {
		if got := apiNameOf(iri); got != want {
			t.Errorf("apiNameOf(%q) = %q, want %q", iri, got, want)
		}
	}
}

func TestEmptyGraph(t *testing.T) {
	s := Compute(rdf.NewGraph())
	if s.Activities != 0 || len(s.ObjectAccess) != 0 {
		t.Errorf("empty graph summary = %+v", s)
	}
	var sb strings.Builder
	if err := s.Write(&sb); err != nil {
		t.Fatal(err)
	}
}

func TestTruncate(t *testing.T) {
	if got := truncate("short", 10); got != "short" {
		t.Errorf("truncate = %q", got)
	}
	long := truncate("/a/very/long/path/to/some/file.h5", 12)
	if len(long) > 14 { // ellipsis rune is multi-byte
		t.Errorf("truncate too long: %q", long)
	}
	if !strings.Contains(long, "file.h5") {
		t.Errorf("suffix lost: %q", long)
	}
}

func TestPerAgentBreakdown(t *testing.T) {
	cfg := core.ScenarioConfig(false, "Create", "Open", "Read", "Write", "Fsync", "Rename", "Thread", "Program", "User")
	tr := core.NewTracker(cfg, nil, 0)
	user := tr.RegisterUser("u")
	prog := tr.RegisterProgram("p", user)
	t0 := tr.RegisterThread(0, prog)
	t1 := tr.RegisterThread(1, prog)
	for i := 0; i < 3; i++ {
		tr.TrackIO(model.Write, "write", rdf.Term{}, t0, 0, 0)
	}
	tr.TrackIO(model.Read, "read", rdf.Term{}, t1, 0, 0)

	per := perAgent(tr.Graph())
	if per["MPI_rank_0"] != 3 {
		t.Errorf("rank 0 ops = %d, want 3", per["MPI_rank_0"])
	}
	if per["MPI_rank_1"] != 1 {
		t.Errorf("rank 1 ops = %d, want 1", per["MPI_rank_1"])
	}
}

func TestWriteWithAgents(t *testing.T) {
	cfg := core.ScenarioConfig(false, "Create", "Open", "Read", "Write", "Fsync", "Rename", "Thread", "Program", "User")
	tr := core.NewTracker(cfg, nil, 0)
	prog := tr.RegisterProgram("p", tr.RegisterUser("u"))
	thr := tr.RegisterThread(0, prog)
	tr.TrackIO(model.Write, "write", rdf.Term{}, thr, 0, 0)
	var sb strings.Builder
	if err := Compute(tr.Graph()).WriteWithAgents(&sb, tr.Graph()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "operations per agent") ||
		!strings.Contains(sb.String(), "MPI_rank_0") {
		t.Errorf("per-agent section missing:\n%s", sb.String())
	}
}
