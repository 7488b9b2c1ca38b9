package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/hpc-io/prov-io/internal/faultfs"
	"github.com/hpc-io/prov-io/internal/model"
	"github.com/hpc-io/prov-io/internal/rdf"
	"github.com/hpc-io/prov-io/internal/rdf/segcodec"
	"github.com/hpc-io/prov-io/internal/vfs"
)

// Tests and benchmarks of the store's bulk paths — Close, PackSegments,
// Verify — which work on segment columns instead of graphs: byte parity with
// the graph-based algorithms they replaced, the read-once property, and Go
// benchmarks at the perf harness's h5bench shape for measuring while working.

// referencePack is PackSegments as it was while it still built a union
// graph: every loose segment and lower-level pack member of the snapshot,
// member stats from the file's own frame (loose) or the old header (packed),
// and pack-level stats from a graph every member was decoded into.
func referencePack(t *testing.T, files map[string][]byte, level int) []byte {
	t.Helper()
	entries := make(map[string]segcodec.PackEntry)
	for n, data := range files {
		sn, ok := parseStoreName(n)
		if ok && sn.kind == kindPack {
			if sn.level >= level {
				continue
			}
			h, err := segcodec.DecodePackHeader(data)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range h.Members {
				entries[m.Name] = segcodec.PackEntry{Name: m.Name, Data: data[m.Off : m.Off+m.Size], Stats: &m.Stats}
			}
			continue
		}
		if !ok || sn.kind != kindSegment {
			continue
		}
		st, err := segcodec.StatsOf(data)
		if err != nil {
			t.Fatal(err)
		}
		entries[n] = segcodec.PackEntry{Name: n, Data: data, Stats: st}
	}
	names := make([]string, 0, len(entries))
	for n := range entries {
		names = append(names, n)
	}
	sort.Strings(names)
	var ordered []segcodec.PackEntry
	union := rdf.NewGraph()
	for _, n := range names {
		e := entries[n]
		ordered = append(ordered, e)
		if err := segcodec.Binary.Decode(bytes.NewReader(e.Data), union); err != nil {
			t.Fatal(err)
		}
	}
	packStats := segcodec.ComputeGraphStats(union)
	pack, err := segcodec.EncodePack(level, ordered, &packStats)
	if err != nil {
		t.Fatal(err)
	}
	return pack
}

// TestPackBytesMatchReference: over randomized member sets — terms shared
// between members, one triple slice written to two members, a member with no
// triples — the pack PackSegments writes is
// byte-identical to the union-graph algorithm's, at level 1 (loose members)
// and at level 2 (the level-1 pack's members plus new loose ones).
func TestPackBytesMatchReference(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		backend := VFSBackend{View: vfs.NewStore().NewView()}
		store, err := NewStore(backend, "/prov", FormatBinary)
		if err != nil {
			t.Fatal(err)
		}
		node := func() rdf.Term { return rdf.IRI(fmt.Sprintf("urn:n%d", rng.Intn(30))) }
		randomTriples := func() []rdf.Triple {
			ts := make([]rdf.Triple, 1+rng.Intn(12))
			for i := range ts {
				o := node()
				if rng.Intn(4) == 0 {
					o = rdf.Literal(fmt.Sprintf("v%d", rng.Intn(8)))
				}
				ts[i] = rdf.Triple{S: node(), P: rdf.IRI(fmt.Sprintf("urn:p%d", rng.Intn(5))), O: o}
			}
			return ts
		}
		nextSeg := map[int]int{}
		write := func(s *Store, pid int, ts []rdf.Triple) {
			if err := writeDelta(s, pid, nextSeg[pid], ts); err != nil {
				t.Fatal(err)
			}
			nextSeg[pid]++
		}
		wave := func() {
			for i := 0; i < 3+rng.Intn(5); i++ {
				write(store, rng.Intn(3), randomTriples())
			}
			shared := randomTriples()
			write(store, 0, append([]rdf.Triple(nil), shared...))
			write(store, 1, shared)
			write(store, 2, nil)
		}
		for level := 1; level <= 2; level++ {
			wave()
			before := storeFiles(t, store)
			name, err := store.PackSegments(level)
			if err != nil {
				t.Fatalf("seed %d level %d: %v", seed, level, err)
			}
			after := storeFiles(t, store)
			if want := referencePack(t, before, level); !bytes.Equal(after[name], want) {
				t.Fatalf("seed %d level %d: %s (%d bytes) differs from the union-graph reference (%d bytes)",
					seed, level, name, len(after[name]), len(want))
			}
			if len(after) != 1 {
				t.Fatalf("seed %d level %d: %d files left after packing, want the pack alone", seed, level, len(after))
			}
		}
	}
}

// demoStore is internal/tools/mkstore's demonstration store: one closed run
// and one periodic run left as sealed delta segments.
func demoStore(t *testing.T, backend Backend) *Store {
	t.Helper()
	const records = 24
	store, err := NewStore(backend, "/prov", FormatBinary)
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTracker(DefaultConfig(), store, 0)
	prog := tr.RegisterProgram("demo.exe", tr.RegisterUser("demo-user"))
	for i := 0; i < records; i++ {
		obj := tr.TrackDataObject(model.File, fmt.Sprintf("/data/f%d", i%8), "", rdf.Term{}, prog)
		tr.TrackIO(model.Write, "H5Dwrite", obj, prog, time.Duration(i)*time.Millisecond, 0)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Mode = ModePeriodic
	cfg.FlushEvery = records/3 + 1
	tr = NewTracker(cfg, store, 0)
	for i := 0; i < records; i++ {
		tr.TrackIO(model.Read, "H5Dread", rdf.Term{}, rdf.Term{}, time.Duration(i)*time.Millisecond, 0)
	}
	if err := tr.Drain(); err != nil {
		t.Fatal(err)
	}
	return store
}

// TestGoldenDemoStore pins everything a Close and a PackSegments put on disk:
// the chain heads of the demo store (a head is the digest of a whole file, so
// the canonical file Close encodes and every delta segment are pinned with
// it) and the level-1 pack, header statistics included. The fixtures change
// only with the format: the ones each older version wrote — equal to
// `mkstore` + `provio-merge -compact -level 1` of that version byte for byte
// — are that version's testdata/legacy_pbs_vN/packed store, which every
// path refuses (TestLegacyReadable).
func TestGoldenDemoStore(t *testing.T) {
	store := demoStore(t, VFSBackend{View: vfs.NewStore().NewView()})
	checkGolden(t, "golden_demo_heads.txt", mustVerify(t, store).FormatHeads())
	name, err := store.PackSegments(1)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "golden_demo_pack.psk", storeFiles(t, store)[name])
}

// TestBulkPathsReadEachFileOnce traces the backend under PackSegments and
// Verify: each reads every store file exactly once — the audit's bytes and
// decoded columns are all packing works from — and in listing order, on
// whatever number of workers the check pass then runs: the read pass stays on
// the calling goroutine, so a fault injected at "the n-th read" names the same
// file on every run.
func TestBulkPathsReadEachFileOnce(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	fb := faultfs.New(VFSBackend{View: vfs.NewStore().NewView()}, 1)
	store := demoStore(t, fb)
	readsSince := func(mark int) (reads []string) {
		for _, op := range fb.Trace()[mark:] {
			if op.Kind == faultfs.OpRead {
				reads = append(reads, filepath.Base(op.Path))
			}
		}
		return reads
	}
	list := func() []string {
		t.Helper()
		listing, err := store.backend.List(store.dir)
		if err != nil {
			t.Fatal(err)
		}
		return listing
	}
	check := func(what string, listing, reads []string) {
		t.Helper()
		if !reflect.DeepEqual(reads, listing) {
			t.Errorf("%s read %v, want each file once in listing order %v", what, reads, listing)
		}
	}
	for level := 1; level <= 2; level++ {
		// Level 2 folds the level-1 pack together with a fresh loose segment.
		if level == 2 {
			if err := writeDelta(store, 5, 0, []rdf.Triple{{S: rdf.IRI("urn:s"), P: rdf.IRI("urn:p"), O: rdf.IRI("urn:o")}}); err != nil {
				t.Fatal(err)
			}
		}
		listing := list()
		mark := len(fb.Trace())
		if _, err := store.PackSegments(level); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("PackSegments(%d)", level), listing, readsSince(mark))

		listing = list()
		mark = len(fb.Trace())
		if rep := mustVerify(t, store); !rep.Clean() {
			t.Fatalf("level %d: %v", level, rep.Defects)
		}
		check("Verify", listing, readsSince(mark))
	}
}

// ---- benchmarks at the perf harness's h5bench shape ----

const (
	benchRanks      = 16
	benchPerRank    = 1024
	benchFlushEvery = 512
)

// benchTracker is a tracker set up like the harness's, with its thread agent.
func benchTracker(store *Store, pid int) (tr *Tracker, prog, thr rdf.Term) {
	cfg := DefaultConfig()
	cfg.Mode = ModePeriodic
	cfg.FlushEvery = benchFlushEvery
	cfg.Pipeline = PipelineAsync
	cfg.Duration = true
	tr = NewTracker(cfg, store, pid)
	prog = tr.RegisterProgram("h5bench.exe", tr.RegisterUser("bench"))
	return tr, prog, tr.RegisterThread(pid, prog)
}

// trackH5benchRank tracks one rank of the h5bench shape — few entities, many
// timed I/O activities — and returns the tracker before Close or Drain.
func trackH5benchRank(store *Store, pid int) *Tracker {
	tr, prog, thr := benchTracker(store, pid)
	var objs [8]rdf.Term
	for i := range objs {
		objs[i] = tr.TrackDataObject(model.Dataset, fmt.Sprintf("/bench.h5/r%d/d%d", pid, i), "", rdf.Term{}, prog)
	}
	for i := 3 + len(objs); i < benchPerRank; i++ {
		tr.TrackIO(model.Write, "H5Dwrite", objs[i%len(objs)], thr,
			time.Duration(i)*time.Millisecond, 250*time.Microsecond)
	}
	return tr
}

// h5benchStoreFiles builds the harness's store shape once: three ranks in
// four end with Drain (delta segments), the fourth with Close (a canonical
// file).
func h5benchStoreFiles(b *testing.B) (files map[string][]byte, size int64) {
	b.Helper()
	store, err := NewStore(VFSBackend{View: vfs.NewStore().NewView()}, "/prov", FormatBinary)
	if err != nil {
		b.Fatal(err)
	}
	var drained []*Tracker
	for pid := 0; pid < benchRanks; pid++ {
		tr := trackH5benchRank(store, pid)
		if pid%4 == 3 {
			err = tr.Close()
		} else {
			err = tr.Drain()
			drained = append(drained, tr)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	files = storeFiles(b, store)
	for _, tr := range drained {
		_ = tr.Close() // stops the rank's flush writer; the snapshot is taken
	}
	for _, data := range files {
		size += int64(len(data))
	}
	return files, size
}

// trackDassaRank tracks one rank of the harness's DASSA shape: after the three
// agents, 9-record groups — raw file, read, converted file and its dataset,
// write, wasDerivedFrom, product dataset, write, wasDerivedFrom — all names
// distinct, so nearly every record mints terms the graph has not seen.
func trackDassaRank(store *Store, pid int) *Tracker {
	tr, _, thr := benchTracker(store, pid)
	var clock time.Duration
	io := func(class model.Class, api string, obj rdf.Term) {
		tr.TrackIO(class, api, obj, thr, clock, 250*time.Microsecond)
		clock += time.Millisecond
	}
	for g := 0; 3+9*(g+1) <= benchPerRank; g++ {
		base := fmt.Sprintf("/das/r%d/conv%05d.h5", pid, g)
		raw := tr.TrackDataObject(model.File, fmt.Sprintf("/das/r%d/raw%05d.tdms", pid, g), "", rdf.Term{}, rdf.Term{})
		io(model.Read, "read", raw)
		cf := tr.TrackDataObject(model.File, base, "", rdf.Term{}, rdf.Term{})
		conv := tr.TrackDataObject(model.Dataset, base+"/DataCT", "", cf, rdf.Term{})
		io(model.Write, "H5Dwrite", conv)
		tr.TrackDerivation(conv, raw)
		prod := tr.TrackDataObject(model.Dataset, base+"/xcorr", "", cf, rdf.Term{})
		io(model.Write, "H5Dwrite", prod)
		tr.TrackDerivation(prod, conv)
	}
	return tr
}

// BenchmarkTrackIO is the harness's ingest in one rank, at its two shapes:
// each iteration tracks about 1024 records, flushing every 512 to a fresh
// mem: store. /h5bench is all but eleven of them timed TrackIO over 8 datasets;
// /dassa is 9-record groups of every record kind the DASSA workloads track,
// a third of them TrackIO. allocs/op ÷ 1024 is the harness's
// track_allocs_per_record, flush encoding included.
func BenchmarkTrackIO(b *testing.B) {
	for _, shape := range []struct {
		name  string
		track func(*Store, int) *Tracker
	}{{"h5bench", trackH5benchRank}, {"dassa", trackDassaRank}} {
		b.Run(shape.name, func(b *testing.B) {
			b.ReportAllocs()
			var records int64
			for i := 0; i < b.N; i++ {
				// A store of its own, so a rank's chain init lists no
				// earlier rank's files.
				b.StopTimer()
				store, err := OpenStore("mem:", FormatBinary)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				tr := shape.track(store, i)
				if err := tr.Drain(); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				n, _ := tr.Stats()
				records += n
				_ = tr.Close() // stops the rank's flush writer
				b.StartTimer()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(records), "ns/record")
		})
	}
}

// TestTrackerRankAllocs pins the heap objects one rank of each
// BenchmarkTrackIO shape costs, its flushes and Drain included: the count
// behind the harness's track_allocs_per_record. The first two ranks on a
// store pay for pools and lazy state every later rank shares, so the count is
// the median of five ranks after those two. Collection is off while they run:
// a collection during a rank empties the pools, and refilling them adds up to
// 60 objects to that rank. A term dictionary that grew 16 slot tables of its
// own read 237–240 for h5bench here (and 654–657 for dassa); a flush that
// copied its delta, and encoded, sealed and wrote it through five buffers,
// read 153–156 (and 578–581).
func TestTrackerRankAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const warm, ranks = 2, 5
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, c := range []struct {
		name   string
		track  func(*Store, int) *Tracker
		budget uint64
	}{{"h5bench", trackH5benchRank, 135}, {"dassa", trackDassaRank, 600}} {
		t.Run(c.name, func(t *testing.T) {
			store, err := OpenStore("mem:", FormatBinary)
			if err != nil {
				t.Fatal(err)
			}
			var counts []uint64
			for pid := 0; pid < warm+ranks; pid++ {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				tr := c.track(store, pid)
				err := tr.Drain()
				runtime.ReadMemStats(&after)
				if err != nil {
					t.Fatal(err)
				}
				_ = tr.Close() // stops the rank's flush writer
				if pid >= warm {
					counts = append(counts, after.Mallocs-before.Mallocs)
				}
			}
			sort.Slice(counts, func(i, j int) bool { return counts[i] < counts[j] })
			got := counts[ranks/2]
			t.Logf("%d heap objects for one rank (of %v)", got, counts)
			if got > c.budget {
				t.Fatalf("one rank allocates %d heap objects, budget %d", got, c.budget)
			}
		})
	}
}

// TestWarmDeltaWriteAllocs pins what one periodic flush's write costs once
// the pools are warm: the delta is encoded, sealed and written from one
// pooled buffer, so what is left is the path and the backend's own copy. It
// counts like TestTrackerRankAllocs: collection off, the median of five
// writes after two.
func TestWarmDeltaWriteAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const warm, writes, budget = 2, 5, 3
	store, err := OpenStore("mem:", FormatBinary)
	if err != nil {
		t.Fatal(err)
	}
	tr := trackH5benchRank(store, 0)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	refs, _ := tr.Graph().LogSince(0)
	refs = refs[len(refs)/2:]
	render := rdf.NewTermRenderer(tr.Graph())
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var counts []uint64
	for seg := 0; seg < warm+writes; seg++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := store.WriteDeltaSegmentRefs(0, seg, refs, render)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if seg >= warm {
			counts = append(counts, after.Mallocs-before.Mallocs)
		}
	}
	sort.Slice(counts, func(i, j int) bool { return counts[i] < counts[j] })
	got := counts[writes/2]
	t.Logf("%d heap objects for one %d-triple delta write (of %v)", got, len(refs), counts)
	if got > budget {
		t.Fatalf("one delta write allocates %d heap objects, budget %d", got, budget)
	}
}

// benchBackends are the substrates BenchmarkPackSegments and BenchmarkVerify
// run on: the virtual filesystem the tests use, and the harness's mem:
// backend, where the time is the store's rather than the filesystem model's.
var benchBackends = []string{"vfs", "mem"}

func BenchmarkPackSegments(b *testing.B) {
	files, size := h5benchStoreFiles(b)
	for _, kind := range benchBackends {
		b.Run(kind, func(b *testing.B) {
			b.SetBytes(size)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				store := openSnapshotOn(b, kind, files)
				b.StartTimer()
				if _, err := store.PackSegments(1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkVerify(b *testing.B) {
	files, size := h5benchStoreFiles(b)
	for _, kind := range benchBackends {
		b.Run(kind, func(b *testing.B) {
			store := openSnapshotOn(b, kind, files)
			if _, err := store.PackSegments(1); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(size)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep, err := store.Verify()
				if err != nil || !rep.Clean() {
					b.Fatal(err, rep)
				}
			}
		})
	}
}

func BenchmarkTrackerClose(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		store, err := NewStore(VFSBackend{View: vfs.NewStore().NewView()}, "/prov", FormatBinary)
		if err != nil {
			b.Fatal(err)
		}
		tr := trackH5benchRank(store, 0)
		if err := tr.Drain(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := tr.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncodeDelta is one periodic flush's encode at the harness's
// h5bench shape: the second half of a rank's log — 512 records, about 3 k
// triples naming 1.5 k terms, their graph IDs all above the first delta's —
// through EncodeRefs, dictionary build, row sort and stats included.
func BenchmarkEncodeDelta(b *testing.B) {
	store, err := OpenStore("mem:", FormatBinary)
	if err != nil {
		b.Fatal(err)
	}
	tr := trackH5benchRank(store, 0)
	if err := tr.Close(); err != nil {
		b.Fatal(err)
	}
	g := tr.Graph()
	refs, _ := g.RefsSince(0)
	refs = refs[len(refs)/2:]
	enc := segcodec.Binary.(segcodec.RefsEncoder)
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := enc.EncodeRefs(&buf, refs, g); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(buf.Len()))
	b.ReportMetric(float64(len(refs)), "triples")
}

// TestCloseEncodesTermSpaceBytes: Close serializes the graph from its
// insertion log; the canonical file must hold the bytes of the graph's
// triples re-interned, as terms, into a fresh graph.
func TestCloseEncodesTermSpaceBytes(t *testing.T) {
	store := newBinaryVFSStore(t)
	tr := NewTracker(DefaultConfig(), store, 0)
	prog := tr.RegisterProgram("close.exe", tr.RegisterUser("alice"))
	for i := 0; i < 40; i++ {
		tr.TrackIO(model.Write, "H5Dwrite", prog, rdf.Term{}, time.Duration(i)*time.Millisecond, 0)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	terms := rdf.NewGraph()
	terms.AddBatch(tr.Graph().Triples())
	var want bytes.Buffer
	if err := segcodec.Binary.Encode(&want, terms, nil); err != nil {
		t.Fatal(err)
	}
	var got []byte
	for n, data := range storeFiles(t, store) {
		if strings.HasSuffix(n, ".pbs") {
			got = stripChain(data)
		}
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("canonical file payload (%d bytes) differs from the term-space encoding (%d bytes)", len(got), want.Len())
	}
}
