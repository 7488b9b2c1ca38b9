package core

import (
	"bytes"
	"fmt"
	"sort"
	"testing"
	"time"

	"github.com/hpc-io/prov-io/internal/model"
	"github.com/hpc-io/prov-io/internal/rdf"
	"github.com/hpc-io/prov-io/internal/vfs"
)

// TestUnsafeAPINameRoundTrips: an API name is caller text like a path is, and
// the activity IRI it is pasted into must survive every store format. Pasted
// raw, `my api> <x` closed fine under nt and ttl and then failed Merge with
// "expected ';' or '.' after object".
func TestUnsafeAPINameRoundTrips(t *testing.T) {
	for _, format := range []Format{FormatNTriples, FormatTurtle, FormatBinary} {
		store, err := NewStore(VFSBackend{View: vfs.NewStore().NewView()}, "/prov", format)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.Duration = true
		tr := NewTracker(cfg, store, 0)
		prog := tr.RegisterProgram("odd.exe", tr.RegisterUser("alice"))
		obj := tr.TrackDataObject(model.File, "/odd.h5", "", rdf.Term{}, prog)
		var acts []rdf.Term
		for _, api := range []string{"my api> <x", "my api> <y", "quo\"te\\", "H5Dwrite"} {
			acts = append(acts, tr.TrackIO(model.Write, api, obj, prog, time.Millisecond, time.Microsecond))
		}
		if err := tr.Close(); err != nil {
			t.Fatalf("%v: Close: %v", format, err)
		}
		g, err := store.Merge()
		if err != nil {
			t.Fatalf("%v: Merge: %v", format, err)
		}
		if g.Len() != tr.Graph().Len() {
			t.Errorf("%v: merged %d triples, tracked %d", format, g.Len(), tr.Graph().Len())
		}
		for _, act := range acts {
			if !g.Has(rdf.Triple{S: obj, P: model.WasWrittenBy.IRI(), O: act}) {
				t.Errorf("%v: merged store lost activity %v", format, act)
			}
		}
	}
}

// buildStep is one tracking call and the record it stands for.
type buildStep struct {
	track func(*Tracker) rdf.Term
	rec   interface {
		AppendTriples([]rdf.Triple) ([]rdf.Triple, rdf.Term)
	}
}

// buildScript is a rank's worth of every record kind: objects re-tracked and
// new, API names safe and not, literals that repeat and that do not.
func buildScript() []buildStep {
	user := model.AgentRecord{Class: model.User, ID: "alice", Rank: -1}
	prog := model.AgentRecord{Class: model.Program, ID: "same.exe", Rank: -1, OnBehalfOf: user.IRI().Value}
	thr := model.AgentRecord{Class: model.Thread, ID: "MPI_rank_3", Rank: 3, OnBehalfOf: prog.IRI().Value}
	file := model.DataObjectRecord{Class: model.File, ID: "/same.h5", AttributedTo: prog.IRI().Value}
	steps := []buildStep{
		{func(tr *Tracker) rdf.Term { return tr.RegisterUser("alice") }, user},
		{func(tr *Tracker) rdf.Term { return tr.RegisterProgram("same.exe", user.IRI()) }, prog},
		{func(tr *Tracker) rdf.Term { return tr.RegisterThread(3, prog.IRI()) }, thr},
		{func(tr *Tracker) rdf.Term {
			return tr.TrackDataObject(model.File, "/same.h5", "", rdf.Term{}, prog.IRI())
		}, file},
	}
	seqs := map[string]int{}
	for i := 0; i < 60; i++ {
		i := i
		ds := model.DataObjectRecord{Class: model.Dataset, ID: fmt.Sprintf("/same.h5/step %d/x", i%7),
			Name: fmt.Sprintf("/step %d/x", i%7), Container: file.IRI().Value, AttributedTo: prog.IRI().Value}
		api := []string{"H5Dwrite", "my api> <x", "H5Dread"}[i%3]
		seqs[api]++
		io := model.IOActivityRecord{Class: model.Write, API: api, PID: 0, Seq: seqs[api],
			Object: ds.IRI(), Agent: thr.IRI(), Started: time.Duration(i) * time.Millisecond,
			Elapsed: time.Duration(i%4) * 250 * time.Microsecond, TrackDuration: true}
		conf := model.ExtensibleRecord{Class: model.Configuration, Owner: prog.IRI().Value, Key: "learning rate",
			Value: rdf.Double(0.1), Version: i / 6, Accuracy: float64(i) / 64, HasAccuracy: true}
		metric := model.ExtensibleRecord{Class: model.Metrics, Owner: prog.IRI().Value, Key: "loss",
			Value: rdf.Integer(int64(i % 5)), Version: i}
		steps = append(steps,
			buildStep{func(tr *Tracker) rdf.Term {
				return tr.TrackDataObject(model.Dataset, ds.ID, ds.Name, file.IRI(), prog.IRI())
			}, ds},
			buildStep{func(tr *Tracker) rdf.Term {
				return tr.TrackIO(model.Write, api, ds.IRI(), thr.IRI(), io.Started, io.Elapsed)
			}, io},
			buildStep{func(tr *Tracker) rdf.Term {
				return tr.TrackConfigurationAccuracy(prog.IRI(), conf.Key, conf.Value, conf.Version, conf.Accuracy)
			}, conf},
			buildStep{func(tr *Tracker) rdf.Term {
				return tr.TrackMetric(prog.IRI(), metric.Key, metric.Value, metric.Version)
			}, metric},
		)
	}
	return steps
}

// TestTrackerWritesWhatAppendTriplesWrites feeds one script to a tracker
// (records built through its graph out of the pooled scratch) and to the
// layers called by hand the way the perf harness's probe calls them
// (AppendTriples, AddBatch, WriteDeltaSegmentRefs, WriteSubgraph): delta
// segments and canonical files must be the same bytes, text and binary.
func TestTrackerWritesWhatAppendTriplesWrites(t *testing.T) {
	const flushEvery = 16
	for _, format := range []Format{FormatBinary, FormatNTriples} {
		newStore := func() *Store {
			store, err := NewStore(VFSBackend{View: vfs.NewStore().NewView()}, "/prov", format)
			if err != nil {
				t.Fatal(err)
			}
			return store
		}
		script := buildScript()

		tracked := newStore()
		cfg := DefaultConfig()
		cfg.Duration = true
		cfg.Mode, cfg.FlushEvery, cfg.Pipeline = ModePeriodic, flushEvery, PipelineDelta
		tr := NewTracker(cfg, tracked, 0)

		byHand := newStore()
		g := rdf.NewGraph()
		render := rdf.NewTermRenderer(g)
		var ts []rdf.Triple
		cursor, seg := 0, 0
		for i, step := range script {
			node := step.track(tr)
			var want rdf.Term
			ts, want = step.rec.AppendTriples(ts[:0])
			if node != want {
				t.Fatalf("%v step %d: tracker returned %v, the record's node is %v", format, i, node, want)
			}
			g.AddBatch(ts)
			if (i+1)%flushEvery == 0 {
				var refs []rdf.TripleID
				refs, cursor = g.RefsSince(cursor)
				if err := byHand.WriteDeltaSegmentRefs(0, seg, refs, render); err != nil {
					t.Fatal(err)
				}
				seg++
			}
		}
		if err := tr.Drain(); err != nil {
			t.Fatal(err)
		}
		if seg < 8 {
			t.Fatalf("%v: only %d delta segments written", format, seg)
		}
		sameFiles(t, fmt.Sprintf("%v delta segments", format), storeFiles(t, tracked), storeFiles(t, byHand))

		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
		if err := byHand.WriteSubgraph(0, g); err != nil {
			t.Fatal(err)
		}
		if err := byHand.RemoveSegments(0); err != nil {
			t.Fatal(err)
		}
		sameFiles(t, fmt.Sprintf("%v canonical file", format), storeFiles(t, tracked), storeFiles(t, byHand))
	}
}

func sameFiles(t *testing.T, what string, got, want map[string][]byte) {
	t.Helper()
	names := func(m map[string][]byte) []string {
		var out []string
		for n := range m {
			out = append(out, n)
		}
		sort.Strings(out)
		return out
	}
	if g, w := names(got), names(want); fmt.Sprint(g) != fmt.Sprint(w) {
		t.Fatalf("%s: tracker wrote %v, by hand %v", what, g, w)
	}
	for n, data := range got {
		if !bytes.Equal(data, want[n]) {
			t.Fatalf("%s: %s differs (%d bytes from the tracker, %d by hand)", what, n, len(data), len(want[n]))
		}
	}
}
