package core

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/hpc-io/prov-io/internal/model"
	"github.com/hpc-io/prov-io/internal/rdf"
	"github.com/hpc-io/prov-io/internal/rdf/segcodec"
)

// TestUnsafeAPINameRoundTrips: an API name is caller text like a path is, and
// the activity IRI it is pasted into must survive the store. Pasted raw, `my api> <x` closed fine under nt
// and ttl and then failed Merge with "expected ';' or '.' after object".
func TestUnsafeAPINameRoundTrips(t *testing.T) {
	store := newBinaryVFSStore(t)
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
		t.Fatalf("Close: %v", err)
	}
	g, err := store.Merge()
	if err != nil {
		t.Fatalf("Merge: %v", err)
	}
	if g.Len() != tr.Graph().Len() {
		t.Errorf("merged %d triples, tracked %d", g.Len(), tr.Graph().Len())
	}
	for _, act := range acts {
		if !g.Has(rdf.Triple{S: obj, P: model.WasWrittenBy.IRI(), O: act}) {
			t.Errorf("merged store lost activity %v", act)
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
// new, API names safe and not, literals that repeat and that do not. hostile
// is matrixSteps' hostile identity.
func buildScript(hostile string) []buildStep {
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
	return append(steps, matrixSteps("", hostile)...)
}

// callerTerms are what a caller may put where a tracking call expects a node:
// nothing, an IRI, a blank node, a literal.
var callerTerms = []rdf.Term{{}, rdf.IRI("http://x/a> <http://x/b"), rdf.Blank("b0"), rdf.Literal("lit x")}

// hostileID is an identity with every byte an IRI must escape, and one that
// is not UTF-8, which a pbs store keeps byte for byte.
const hostileID = "sp ace<>\"\\\n\xff"

// matrixSteps is every tracking call over identities plain, hostile and longer
// than the builders' stack buffers, with every callerTerms entry in every
// position a caller fills. tag keeps one caller's API names, and with them the
// per-API sequence numbers, apart from another's.
func matrixSteps(tag, hostile string) []buildStep {
	var steps []buildStep
	seqs := map[string]int{}
	for n, id := range []string{"/plain.h5/x", hostile, strings.Repeat("/long/path/component", 40)} {
		for i, a := range callerTerms {
			b := callerTerms[(i+n+1)%len(callerTerms)]
			id, api, rank, version := id, id+tag, 16*n+i, 4*n+i-1
			seqs[api]++
			seq := seqs[api]
			steps = append(steps,
				buildStep{func(tr *Tracker) rdf.Term { return tr.RegisterUser(id) },
					model.AgentRecord{Class: model.User, ID: id, Rank: -1}},
				buildStep{func(tr *Tracker) rdf.Term { return tr.RegisterProgram(id, a) },
					model.AgentRecord{Class: model.Program, ID: id, Rank: -1, OnBehalfOfTerm: a}},
				buildStep{func(tr *Tracker) rdf.Term { return tr.RegisterThread(rank, a) },
					model.AgentRecord{Class: model.Thread, ID: fmt.Sprintf("MPI_rank_%d", rank), Rank: rank, OnBehalfOfTerm: a}},
				buildStep{func(tr *Tracker) rdf.Term { return tr.TrackDataObject(model.Group, id, "", a, b) },
					model.DataObjectRecord{Class: model.Group, ID: id, ContainerTerm: a, AttributedToTerm: b}},
				buildStep{func(tr *Tracker) rdf.Term {
					return tr.TrackIO(model.Read, api, a, b, time.Duration(rank)*time.Millisecond, time.Microsecond)
				}, model.IOActivityRecord{Class: model.Read, API: api, PID: 0, Seq: seq, Object: a, Agent: b,
					Started: time.Duration(rank) * time.Millisecond, Elapsed: time.Microsecond, TrackDuration: true}},
				buildStep{func(tr *Tracker) rdf.Term { return tr.TrackType(a, id) },
					model.ExtensibleRecord{Class: model.Type, OwnerTerm: a, Key: "type", Value: rdf.Literal(id), Version: -1}},
				buildStep{func(tr *Tracker) rdf.Term { return tr.TrackConfiguration(a, id, b, version) },
					model.ExtensibleRecord{Class: model.Configuration, OwnerTerm: a, Key: id, Value: b, Version: version}},
				buildStep{func(tr *Tracker) rdf.Term { return tr.TrackMetric(a, id, b, version) },
					model.ExtensibleRecord{Class: model.Metrics, OwnerTerm: a, Key: id, Value: b, Version: version}},
			)
			if !a.IsZero() && !b.IsZero() { // TrackDerivation drops an edge with a missing end uncounted
				steps = append(steps, buildStep{func(tr *Tracker) rdf.Term { tr.TrackDerivation(a, b); return rdf.Term{} },
					model.DerivationRecord{Product: a, Source: b}})
			}
		}
	}
	return steps
}

// termTriples is g's insertion log as terms.
func termTriples(g *rdf.Graph) []rdf.Triple {
	refs, _ := g.RefsSince(0)
	out := make([]rdf.Triple, len(refs))
	for i, r := range refs {
		out[i] = rdf.Triple{S: g.TermOf(r.S), P: g.TermOf(r.P), O: g.TermOf(r.O)}
	}
	return out
}

// TestTrackerWritesWhatAppendTriplesWrites feeds one script to a tracker
// (records resolved against its graph out of the pooled scratch, inserted as
// IDs) and to the layers called by hand the way the perf harness's probe calls
// them (AppendTriples, AddBatch, WriteDeltaSegmentRefs, WriteSubgraph): the
// two graphs must log the same triples in the same order and count the same
// records and triples, and delta segments and canonical files must be the
// same bytes.
func TestTrackerWritesWhatAppendTriplesWrites(t *testing.T) {
	const flushEvery = 16
	script := buildScript(hostileID)

	tracked := newBinaryVFSStore(t)
	cfg := DefaultConfig()
	cfg.Duration = true
	cfg.Mode, cfg.FlushEvery, cfg.Pipeline = ModePeriodic, flushEvery, PipelineDelta
	tr := NewTracker(cfg, tracked, 0)

	byHand := newBinaryVFSStore(t)
	g := rdf.NewGraph()
	render := rdf.NewTermRenderer(g)
	var ts []rdf.Triple
	cursor, seg, listed := 0, 0, 0
	for i, step := range script {
		node := step.track(tr)
		var want rdf.Term
		ts, want = step.rec.AppendTriples(ts[:0])
		if node != want {
			t.Fatalf("step %d: tracker returned %v, the record's node is %v", i, node, want)
		}
		g.AddBatch(ts)
		listed += len(ts)
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
		t.Fatalf("only %d delta segments written", seg)
	}
	if records, triples := tr.Stats(); records != int64(len(script)) || triples != int64(listed) {
		t.Fatalf("tracker counts %d records and %d triples, the script has %d and AppendTriples lists %d",
			records, triples, len(script), listed)
	}
	if got, want := termTriples(tr.Graph()), termTriples(g); !slices.Equal(got, want) {
		t.Fatalf("the tracker's graph logs %d triples, AddBatch of the same records %d, or in another order",
			len(got), len(want))
	}
	sameFiles(t, "delta segments", storeFiles(t, tracked), storeFiles(t, byHand))

	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := byHand.WriteSubgraph(0, g); err != nil {
		t.Fatal(err)
	}
	if err := byHand.RemoveSegments(0); err != nil {
		t.Fatal(err)
	}
	sameFiles(t, "canonical file", storeFiles(t, tracked), storeFiles(t, byHand))
}

// TestTextStoresRefuseNonUTF8Literals: a literal that is not UTF-8 is kept
// byte for byte by the pbs store, and refused by both text writers — what
// export writes, and what the text stores of older builds were — which
// would have put U+FFFD in its place; the refusal names the term.
func TestTextStoresRefuseNonUTF8Literals(t *testing.T) {
	store := newBinaryVFSStore(t)
	tr := NewTracker(DefaultConfig(), store, 0)
	tr.TrackType(rdf.IRI("http://x/a"), hostileID)
	if err := tr.Close(); err != nil {
		t.Fatalf("pbs: %v", err)
	}
	g := mustMerge(t, store)
	kept := false
	for _, tr := range g.Triples() {
		kept = kept || tr.O.Value == hostileID
	}
	if !kept {
		t.Errorf("pbs: the merged graph lost %q", hostileID)
	}
	for _, codec := range []segcodec.Codec{segcodec.Turtle, segcodec.NTriples} {
		err := codec.Encode(io.Discard, g, model.Namespaces())
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%q", hostileID)) {
			t.Errorf("%s: Encode returned %v, want the writer's refusal of %q", codec.Ext(), err, hostileID)
		}
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

// TestConcurrentTrackingEqualsSerial: one tracker driven by 8 goroutines over
// every record kind holds the triples, and counts the records, of the same
// calls made one after another. Each goroutine uses API names of its own, so
// the per-API sequence numbers do not depend on the interleaving. Under the
// race detector this is also the check that the tracker's table of static
// vocabulary IDs, filled on first use, is safe to share.
func TestConcurrentTrackingEqualsSerial(t *testing.T) {
	const workers = 8
	cfg := DefaultConfig()
	cfg.Duration = true
	serial, shared := NewTracker(cfg, nil, 0), NewTracker(cfg, nil, 0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		steps := matrixSteps(fmt.Sprintf("-w%d", w), hostileID)
		for _, step := range steps {
			step.track(serial)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, step := range steps {
				step.track(shared)
			}
		}()
	}
	wg.Wait()
	sr, st := serial.Stats()
	if r, n := shared.Stats(); r != sr || n != st {
		t.Fatalf("8 goroutines counted %d records and %d triples, serial tracking %d and %d", r, n, sr, st)
	}
	got, want := shared.Graph().SortedTriples(), serial.Graph().SortedTriples()
	if !slices.Equal(got, want) {
		t.Fatalf("8 goroutines left %d triples, serial tracking %d, or other ones", len(got), len(want))
	}
	if a, b := shared.Graph().TermCount(), serial.Graph().TermCount(); a != b {
		t.Fatalf("8 goroutines interned %d terms, serial tracking %d", a, b)
	}
}

// TestTrackingKeepsCallerTermKinds: a term handed to a tracking call is stored
// as the term it is. Every call that takes one used to keep its Value and
// rebuild it as an IRI, so a blank node b0 came back as <b0> and a literal as
// an IRI with spaces in it. A literal where RDF wants a subject now makes no
// triple at all (and is still counted).
func TestTrackingKeepsCallerTermKinds(t *testing.T) {
	cfg := DefaultConfig()
	lit := rdf.Literal("lit x")
	for _, x := range []rdf.Term{rdf.IRI("http://x/n"), rdf.Blank("b0"), lit, rdf.LangLiteral("été", "fr")} {
		for _, c := range []struct {
			call string
			// track makes the call with x and returns the triple that must
			// hold x exactly where the call's contract puts it.
			track func(tr *Tracker) rdf.Triple
		}{
			{"RegisterProgram(user)", func(tr *Tracker) rdf.Triple {
				return rdf.Triple{S: tr.RegisterProgram("p", x), P: model.ActedOnBehalfOf.IRI(), O: x}
			}},
			{"RegisterThread(program)", func(tr *Tracker) rdf.Triple {
				return rdf.Triple{S: tr.RegisterThread(3, x), P: model.ActedOnBehalfOf.IRI(), O: x}
			}},
			{"TrackDataObject(container)", func(tr *Tracker) rdf.Triple {
				return rdf.Triple{S: tr.TrackDataObject(model.Dataset, "d", "", x, rdf.Term{}), P: model.WasDerivedFrom.IRI(), O: x}
			}},
			{"TrackDataObject(attributedTo)", func(tr *Tracker) rdf.Triple {
				return rdf.Triple{S: tr.TrackDataObject(model.Dataset, "d", "", rdf.Term{}, x), P: model.WasAttributedTo.IRI(), O: x}
			}},
			{"TrackIO(object)", func(tr *Tracker) rdf.Triple {
				return rdf.Triple{S: x, P: model.WasWrittenBy.IRI(), O: tr.TrackIO(model.Write, "w", x, rdf.Term{}, 0, 0)}
			}},
			{"TrackIO(agent)", func(tr *Tracker) rdf.Triple {
				return rdf.Triple{S: tr.TrackIO(model.Write, "w", rdf.Term{}, x, 0, 0), P: model.AssociatedWith.IRI(), O: x}
			}},
			{"TrackDerivation(product)", func(tr *Tracker) rdf.Triple {
				tr.TrackDerivation(x, rdf.IRI("http://x/src"))
				return rdf.Triple{S: x, P: model.WasDerivedFrom.IRI(), O: rdf.IRI("http://x/src")}
			}},
			{"TrackDerivation(source)", func(tr *Tracker) rdf.Triple {
				tr.TrackDerivation(rdf.IRI("http://x/prod"), x)
				return rdf.Triple{S: rdf.IRI("http://x/prod"), P: model.WasDerivedFrom.IRI(), O: x}
			}},
			{"TrackType(owner)", func(tr *Tracker) rdf.Triple {
				return rdf.Triple{S: x, P: model.PropType.IRI(), O: tr.TrackType(x, "ml")}
			}},
			{"TrackConfiguration(owner)", func(tr *Tracker) rdf.Triple {
				return rdf.Triple{S: x, P: model.PropConfig.IRI(), O: tr.TrackConfiguration(x, "lr", lit, 1)}
			}},
			{"TrackConfigurationAccuracy(owner)", func(tr *Tracker) rdf.Triple {
				return rdf.Triple{S: x, P: model.PropConfig.IRI(), O: tr.TrackConfigurationAccuracy(x, "lr", lit, 1, 0.5)}
			}},
			{"TrackMetric(owner)", func(tr *Tracker) rdf.Triple {
				return rdf.Triple{S: x, P: model.PropMetric.IRI(), O: tr.TrackMetric(x, "loss", lit, 1)}
			}},
		} {
			tr := NewTracker(cfg, nil, 0)
			want := c.track(tr)
			g := tr.Graph()
			if got := g.Has(want); got != want.Valid() {
				t.Errorf("%s with %v: graph holds %v: %v, want %v", c.call, x, want, got, want.Valid())
			}
			if _, rekinded := g.TermID(rdf.IRI(x.Value)); rekinded && !x.IsIRI() {
				t.Errorf("%s with %v: the graph holds <%s>, an IRI made of the term's value", c.call, x, x.Value)
			}
			records, listed := tr.Stats()
			if records != 1 || int(listed) != g.Len()+map[bool]int{true: 0, false: 1}[want.Valid()] {
				t.Errorf("%s with %v: counted %d record(s), %d triples listed, %d stored", c.call, x, records, listed, g.Len())
			}
		}
	}
}

// callerIRIRoundTrips tracks value as the IRI of every node a caller supplies
// — object, agent, container, attribution, owner, product, source — closes the
// tracker into a store and checks that Merge reads back exactly the
// tracker's triples, Term-equal.
func callerIRIRoundTrips(t *testing.T, value string) {
	t.Helper()
	x := rdf.IRI(value)
	store := newBinaryVFSStore(t)
	cfg := DefaultConfig()
	cfg.Duration = true
	tr := NewTracker(cfg, store, 0)
	tr.RegisterProgram("p", x)
	ds := tr.TrackDataObject(model.Dataset, "d", "", x, x)
	tr.TrackIO(model.Write, "H5Dwrite", x, x, time.Millisecond, time.Microsecond)
	tr.TrackConfiguration(x, "lr", x, 1)
	tr.TrackDerivation(x, ds)
	tr.TrackDerivation(ds, x)
	if err := tr.Close(); err != nil {
		t.Fatalf("IRI %q: Close: %v", value, err)
	}
	g, err := store.Merge()
	if err != nil {
		t.Fatalf("IRI %q: Merge: %v", value, err)
	}
	if got, want := g.SortedTriples(), tr.Graph().SortedTriples(); !slices.Equal(got, want) {
		t.Fatalf("IRI %q: merged %d triples, tracked %d, or other ones:\n%v\n%v", value, len(got), len(want), got, want)
	}
}

// FuzzCallerIRIRoundTrips: any byte string, as the value of a caller-supplied
// IRI, survives Close and Merge. Written raw between angle
// brackets, `http://x/a> <http://x/b` closed fine under nt and ttl and then
// failed Merge with "expected ';' or '.' after object".
func FuzzCallerIRIRoundTrips(f *testing.F) {
	for _, seed := range []string{"http://x/a> <http://x/b", "http://x/ends-in\\", "http://x/nul\x00", "",
		"http://x/plain", model.ProvIONS + "file/a.h5", "\\u0041", "a\nb\t\"{}|^`\x7f\x80\xff\u00e9"} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, value []byte) { callerIRIRoundTrips(t, string(value)) })
}

// TestCallerIRIRoundTrips is the property over random byte strings, every
// byte value among them.
func TestCallerIRIRoundTrips(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	var all [256]byte
	for i := range all {
		all[i] = byte(i)
	}
	callerIRIRoundTrips(t, string(all[:]))
	const unsafe = "<>\"{}|^`\\ \n\x00"
	for i := 0; i < 200; i++ {
		b := make([]byte, rng.Intn(24))
		for j := range b {
			if rng.Intn(3) == 0 {
				b[j] = unsafe[rng.Intn(len(unsafe))]
			} else {
				b[j] = byte(rng.Intn(256))
			}
		}
		callerIRIRoundTrips(t, string(b))
	}
}
