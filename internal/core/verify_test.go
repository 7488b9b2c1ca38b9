package core

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/hpc-io/prov-io/internal/model"
	"github.com/hpc-io/prov-io/internal/rdf"
	"github.com/hpc-io/prov-io/internal/rdf/segcodec"
	"github.com/hpc-io/prov-io/internal/vfs"
)

// smallHistory writes a compact but complete chain for one process: a closed
// run (sealed canonical root) followed by a drained periodic run (sealed
// delta segments anchored at the canonical). This is the smallest store shape
// exercising every chain feature, and small files keep the exhaustive
// flip/truncation matrices fast.
func smallHistory(t *testing.T, store *Store, pid int) {
	t.Helper()
	tr := NewTracker(DefaultConfig(), store, pid)
	user := tr.RegisterUser("alice")
	prog := tr.RegisterProgram("verify.exe", user)
	tr.TrackIO(model.Write, "H5Dwrite", prog, rdf.Term{}, time.Millisecond, 0)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Mode = ModePeriodic
	cfg.FlushEvery = 1
	tr = NewTracker(cfg, store, pid)
	for i := 0; i < 3; i++ {
		tr.TrackIO(model.Read, "H5Dread", rdf.Term{}, rdf.Term{},
			time.Duration(i)*time.Millisecond, 0)
	}
	if err := tr.Drain(); err != nil {
		t.Fatal(err)
	}
}

// storeFiles snapshots every file of a store directory (sidecars included).
func storeFiles(t testing.TB, store *Store) map[string][]byte {
	t.Helper()
	names, err := store.backend.List(store.dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string][]byte, len(names))
	for _, n := range names {
		data, err := store.backend.ReadFile(store.dir + "/" + n)
		if err != nil {
			t.Fatal(err)
		}
		files[n] = data
	}
	return files
}

// writeDelta writes ts as delta segment seg of pid through the flush path,
// WriteDeltaSegmentRefs, with a graph of ts numbering the terms.
func writeDelta(s *Store, pid, seg int, ts []rdf.Triple) error {
	g := rdf.NewGraph()
	g.AddBatch(ts)
	refs, _ := g.RefsSince(0)
	return s.WriteDeltaSegmentRefs(pid, seg, refs, rdf.NewTermRenderer(g))
}

// openDir materializes a file snapshot in a fresh view and opens it, exactly
// as provio-verify does.
func openDir(t testing.TB, files map[string][]byte) *Store {
	t.Helper()
	backend := VFSBackend{View: vfs.NewStore().NewView()}
	if err := backend.MkdirAll("/prov"); err != nil {
		t.Fatal(err)
	}
	for n, data := range files {
		if err := backend.WriteFile("/prov/"+n, data); err != nil {
			t.Fatal(err)
		}
	}
	store, err := NewStore(backend, "/prov", FormatBinary)
	if err != nil {
		t.Fatal(err)
	}
	return store
}

func mustVerify(t *testing.T, store *Store) *VerifyReport {
	t.Helper()
	rep, err := store.Verify()
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestVerifyCleanMatrix pins the zero-false-positive requirement: stores
// of every layout built by every flush pipeline — canonical-only,
// segments-only, and full histories, before and after Compact (which
// migrates a text store) — must verify clean, fully sealed, and stable
// against their own recorded heads.
func TestVerifyCleanMatrix(t *testing.T) {
	for _, format := range layouts {
		for _, shape := range []string{"close", "drain", "history"} {
			t.Run(fmt.Sprintf("%v/%s", format, shape), func(t *testing.T) {
				store := newLayoutStore(t, format)
				for pid := 0; pid < 2; pid++ {
					switch shape {
					case "close":
						trackInto(t, store, pid, DefaultConfig(), false)
					case "drain":
						cfg := DefaultConfig()
						cfg.Mode = ModePeriodic
						cfg.FlushEvery = 3
						trackInto(t, store, pid, cfg, true)
					case "history":
						smallHistory(t, store, pid)
					}
				}
				rep := mustVerify(t, store)
				if !rep.Clean() {
					t.Fatalf("clean store has defects: %v", rep.Defects)
				}
				if rep.Processes != 2 || rep.Files == 0 {
					t.Fatalf("Processes=%d Files=%d", rep.Processes, rep.Files)
				}
				if rep.Sealed != rep.Files || len(rep.Unsealed) != 0 {
					t.Fatalf("Sealed=%d of %d files, unsealed %v", rep.Sealed, rep.Files, rep.Unsealed)
				}
				if shape == "drain" && rep.Segments == 0 {
					t.Fatal("drained store has no segments")
				}
				// The recorded heads must re-verify, survive the text
				// round-trip, and stay clean across Compact + re-audit.
				heads, err := ParseHeads(rep.FormatHeads())
				if err != nil {
					t.Fatal(err)
				}
				if rep2, err := store.VerifyAgainst(heads); err != nil || !rep2.Clean() {
					t.Fatalf("VerifyAgainst own heads: %v, %v", err, rep2.Defects)
				}
				store = plainStore(t, store)
				if err := store.Compact(); err != nil {
					t.Fatalf("Compact on clean store: %v", err)
				}
				rep3 := mustVerify(t, store)
				if !rep3.Clean() || rep3.Sealed != rep3.Files {
					t.Fatalf("post-Compact: defects %v, sealed %d/%d", rep3.Defects, rep3.Sealed, rep3.Files)
				}
			})
		}
	}
}

// TestVerifyLegacyUnsealedTolerated: a store written before the integrity
// layer (no seals anywhere) verifies clean — there is nothing to contradict —
// but every file is reported unsealed, so strict auditing can flag it. New
// sealed segments written on top of the legacy canonical (the upgrade path)
// keep the store clean.
func TestVerifyLegacyUnsealedTolerated(t *testing.T) {
	for _, format := range []string{"ttl", "pbs"} {
		t.Run(format, func(t *testing.T) {
			store := newLayoutStore(t, format)
			trackInto(t, store, 0, DefaultConfig(), false)
			// Strip the seals: remove sidecars, strip embedded chain frames.
			legacy := make(map[string][]byte)
			for n, data := range storeFiles(t, store) {
				if filepath.Ext(n) == ".sum" {
					continue
				}
				legacy[n] = stripChain(data)
			}
			lstore := openDir(t, legacy)
			rep := mustVerify(t, lstore)
			if !rep.Clean() {
				t.Fatalf("legacy store has defects: %v", rep.Defects)
			}
			if rep.Sealed != 0 || len(rep.Unsealed) != rep.Files {
				t.Fatalf("legacy store: sealed %d, unsealed %v of %d files",
					rep.Sealed, rep.Unsealed, rep.Files)
			}

			// Upgrade path: a new periodic run chains onto the legacy canonical.
			cfg := DefaultConfig()
			cfg.Mode = ModePeriodic
			cfg.FlushEvery = 1
			tr := NewTracker(cfg, lstore, 0)
			tr.TrackIO(model.Write, "write", rdf.Term{}, rdf.Term{}, 0, 0)
			tr.TrackIO(model.Write, "write", rdf.Term{}, rdf.Term{}, time.Millisecond, 0)
			if err := tr.Drain(); err != nil {
				t.Fatal(err)
			}
			rep = mustVerify(t, lstore)
			if !rep.Clean() {
				t.Fatalf("upgraded store has defects: %v", rep.Defects)
			}
			if rep.Sealed == 0 || len(rep.Unsealed) == 0 {
				t.Fatalf("upgrade should mix sealed segments (%d) with the unsealed canonical (%v)",
					rep.Sealed, rep.Unsealed)
			}
		})
	}
}

// TestVerifyFlipMatrix is the exhaustive single-byte tamper matrix: for every
// file of a sealed store — data files and sidecars alike — flipping one bit
// of any byte must be detected. Detection kinds vary (a flipped frame length
// reads as truncation), but no flip may verify clean.
func TestVerifyFlipMatrix(t *testing.T) {
	for _, format := range []string{"ttl", "pbs"} {
		t.Run(format, func(t *testing.T) {
			store := newLayoutStore(t, format)
			smallHistory(t, store, 0)
			clean := storeFiles(t, store)
			total, missed := 0, 0
			for name, data := range clean {
				for i := range data {
					mut := make(map[string][]byte, len(clean))
					for n, d := range clean {
						mut[n] = d
					}
					flipped := append([]byte(nil), data...)
					flipped[i] ^= 1 << (i % 8)
					mut[name] = flipped
					total++
					if rep := mustVerify(t, openDir(t, mut)); rep.Clean() {
						missed++
						if missed <= 5 {
							t.Errorf("flip of %s byte %d verified clean", name, i)
						}
					}
				}
			}
			if missed > 0 {
				t.Fatalf("%d of %d single-bit flips undetected", missed, total)
			}
		})
	}
	// The committed text stores, loose and packed: every bit of each sidecar
	// flipped is tampering (the sidecar's own CRC, or a seal that no longer
	// holds its file), and so is a bit of a text file, sampled, against the
	// recorded heads.
	for _, layout := range []string{"loose", "packed"} {
		clean, heads := legacyTextFiles(t, layout)
		for name, data := range clean {
			step := 7
			if filepath.Ext(name) == ".sum" {
				step = 1
			}
			for i := 0; i < len(data); i += step {
				mut := maps.Clone(clean)
				mut[name] = append([]byte(nil), data...)
				mut[name][i] ^= 1 << (i % 8)
				rep, err := openDir(t, mut).VerifyAgainst(heads)
				if err != nil {
					t.Fatal(err)
				}
				if rep.Clean() || step == 1 && rep.Worst() != DefectTampered {
					t.Errorf("text store %s: flip of %s byte %d: defects %v", layout, name, i, rep.Defects)
				}
			}
		}
	}

	// Naming another known layout takes more than one bit flip, so the matrix
	// above never tries it: a sealed segment under another known version byte
	// is a defect, never a silent decode as that layout — of a store this
	// build wrote, and of the committed store of every older version.
	current := newBinaryVFSStore(t)
	smallHistory(t, current, 0)
	stores := map[string]map[string][]byte{"current": storeFiles(t, current)}
	for _, v := range legacyVersions() {
		stores[fmt.Sprintf("version %d", v)], _ = legacyStoreFiles(t, v, "loose")
	}
	for what, clean := range stores {
		for name, data := range clean {
			for v := byte(1); v <= segcodec.PBSVersion; v++ {
				if v == data[3] {
					continue
				}
				mut := maps.Clone(clean)
				mut[name] = append([]byte(nil), data...)
				mut[name][3] = v
				rep := mustVerify(t, openDir(t, mut))
				rejected := false
				for _, d := range rep.Defects {
					rejected = rejected || d.Name == name && strings.HasPrefix(d.Detail, "decode:")
				}
				if !rejected {
					t.Errorf("%s store: %s under version byte %d was not rejected by its decode: %v", what, name, v, rep.Defects)
				}
			}
		}
	}
}

// TestVerifyChecksPackHeaderStats: pruned and lazy reads trust a pack's
// header stats instead of fetching its members, so a header rewritten behind
// a valid CRC is a tampered pack — a union that holds no triples, which
// prunes the whole pack from every pattern; a member's stats taken from
// another member; a member's stats or the union dropped.
func TestVerifyChecksPackHeaderStats(t *testing.T) {
	store := demoStore(t, VFSBackend{View: vfs.NewStore().NewView()})
	name, err := store.PackSegments(1)
	if err != nil {
		t.Fatal(err)
	}
	clean := storeFiles(t, store)
	h, err := segcodec.DecodePackHeader(clean[name])
	if err != nil {
		t.Fatal(err)
	}
	rewrite := func(edit func(entries []segcodec.PackEntry, union **segcodec.SegStats)) *Store {
		t.Helper()
		entries := make([]segcodec.PackEntry, len(h.Members))
		for i, m := range h.Members {
			entries[i] = segcodec.PackEntry{Name: m.Name, Data: clean[name][m.Off : m.Off+m.Size], Stats: &h.Members[i].Stats}
		}
		union := h.Stats
		pu := &union
		edit(entries, &pu)
		pack, err := segcodec.EncodePack(h.Level, entries, pu)
		if err != nil {
			t.Fatal(err)
		}
		files := maps.Clone(clean)
		files[name] = pack
		return openDir(t, files)
	}
	if len(h.Members) < 2 {
		t.Fatalf("premise: the demo pack holds %d members", len(h.Members))
	}
	noTriples := rewrite(func(_ []segcodec.PackEntry, u **segcodec.SegStats) { (*u).Triples = 0 })
	full, err := noTriples.Merge()
	if err != nil {
		t.Fatal(err)
	}
	pruned, _, err := noTriples.MergePruned(&SegmentPruner{Patterns: []PrunePattern{{}}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if pruned.Len() >= full.Len() {
		t.Fatalf("premise: a union of no triples should prune the pack's %d triples away (pruned read %d of %d)",
			full.Len()-pruned.Len(), pruned.Len(), full.Len())
	}
	for what, forged := range map[string]*Store{
		"union of no triples": noTriples,
		"member stats of another member": rewrite(func(es []segcodec.PackEntry, _ **segcodec.SegStats) {
			es[0].Stats = es[1].Stats
		}),
		"member stats dropped": rewrite(func(es []segcodec.PackEntry, _ **segcodec.SegStats) { es[1].Stats = nil }),
		"union dropped":        rewrite(func(_ []segcodec.PackEntry, u **segcodec.SegStats) { *u = nil }),
	} {
		rep := mustVerify(t, forged)
		found := false
		for _, d := range rep.Defects {
			found = found || d.Name == name && d.Kind == DefectTampered && strings.HasPrefix(d.Detail, "header stats: ")
		}
		if !found || len(rep.Defects) != 1 {
			t.Errorf("%s: defects %v, want the one tampered pack %s", what, rep.Defects, name)
		}
		if err := forged.Compact(); err == nil {
			t.Errorf("%s: Compact folded a pack whose header lies", what)
		}
	}
	if rep := mustVerify(t, rewrite(func([]segcodec.PackEntry, **segcodec.SegStats) {})); !rep.Clean() {
		t.Fatalf("the pack re-encoded as it was: %v", rep.Defects)
	}
}

// TestVerifyChecksLegacyPackHeaderStats: an older build's pack is held to
// its members like a current one. In the packed store of every older
// version, each of these rewritten behind a valid CRC is the one tampered
// pack: a generation 1 union that holds no triples; a member's generation 1
// entry re-spelled as generation 2 with the same fields; and the fixture's
// own generation 1 union over the same contents once the last member is
// this build's rewrite of itself, which a pack with a generation 1 union
// never held. The pack rewritten as it was verifies clean.
func TestVerifyChecksLegacyPackHeaderStats(t *testing.T) {
	for _, v := range legacyVersions() {
		clean, _ := legacyStoreFiles(t, v, "packed")
		const name = "prov_pack.l01.0000.psk"
		h, err := segcodec.DecodePackHeader(clean[name])
		if err != nil {
			t.Fatal(err)
		}
		if h.Stats.Gen != 1 || len(h.Members) != 2 {
			t.Fatalf("version %d: premise: a generation 1 union over two members, got generation %d over %d", v, h.Stats.Gen, len(h.Members))
		}
		rewrite := func(edit func(entries []segcodec.PackEntry, union *segcodec.SegStats)) map[string][]byte {
			t.Helper()
			entries := make([]segcodec.PackEntry, len(h.Members))
			for i, m := range h.Members {
				st := m.Stats
				entries[i] = segcodec.PackEntry{Name: m.Name, Data: clean[name][m.Off : m.Off+m.Size], Stats: &st}
			}
			union := h.Stats
			edit(entries, &union)
			pack, err := segcodec.EncodePack(h.Level, entries, &union)
			if err != nil {
				t.Fatal(err)
			}
			files := maps.Clone(clean)
			files[name] = pack
			return files
		}
		// The last member in this build's version: the same triples and seal,
		// so the chain holds and only the union's generation is wrong for it.
		current := func(seg []byte) []byte {
			c, err := segcodec.DecodeAnyVersion(seg)
			if err != nil {
				t.Fatal(err)
			}
			g := rdf.NewGraph()
			c.Materialize(g)
			var buf bytes.Buffer
			if err := segcodec.Binary.Encode(&buf, g, nil); err != nil {
				t.Fatal(err)
			}
			return segcodec.AppendChain(buf.Bytes(), *c.Chain)
		}
		for what, c := range map[string]struct {
			files map[string][]byte
			want  string
		}{
			"generation 1 union of no triples": {rewrite(func(_ []segcodec.PackEntry, u *segcodec.SegStats) { u.Triples = 0 }),
				"pack-level stats differ from the union of the members' contents"},
			"member entry re-spelled in generation 2": {rewrite(func(es []segcodec.PackEntry, _ *segcodec.SegStats) { es[0].Stats.Gen = 2 }),
				"member " + h.Members[0].Name + ": header stats differ from the member's stats frame"},
			"generation 1 union beside a current member": {rewrite(func(es []segcodec.PackEntry, _ *segcodec.SegStats) {
				last := &es[len(es)-1]
				last.Data = current(last.Data)
				last.Stats, _ = segcodec.StatsOf(last.Data)
			}), fmt.Sprintf("pack-level stats of generation 1 beside a pbs v%d member", segcodec.PBSVersion)},
		} {
			rep := mustVerify(t, openDir(t, c.files))
			if len(rep.Defects) != 1 || rep.Defects[0].Name != name || rep.Defects[0].Kind != DefectTampered ||
				rep.Defects[0].Detail != "header stats: "+c.want {
				t.Errorf("version %d, %s: defects %v, want the one tampered pack %s: %q", v, what, rep.Defects, name, c.want)
			}
		}
		if rep := mustVerify(t, openDir(t, rewrite(func([]segcodec.PackEntry, *segcodec.SegStats) {}))); !rep.Clean() {
			t.Errorf("version %d: the pack re-encoded as it was: %v", v, rep.Defects)
		}
	}
}

// TestVerifyCurrentSegmentWithoutStatsIsTruncated: the stats frame is part of
// the current format, so a current segment cut between its triple block and
// its stats frame is a torn write on its own, without recorded heads — in a
// sealed store, and in the same store with every seal stripped, where it
// would otherwise pass for a clean unsealed file of an older shape.
func TestVerifyCurrentSegmentWithoutStatsIsTruncated(t *testing.T) {
	store := newBinaryVFSStore(t)
	smallHistory(t, store, 0)
	sealed := storeFiles(t, store)
	unsealed := map[string][]byte{}
	for name, data := range sealed {
		unsealed[name] = stripChain(data)
	}
	for what, clean := range map[string]map[string][]byte{"sealed": sealed, "unsealed": unsealed} {
		var last string
		for name := range clean {
			if strings.Contains(name, ".seg") && name > last {
				last = name
			}
		}
		start, _ := statsFrameAt(t, clean[last])
		cut := maps.Clone(clean)
		cut[last] = clean[last][:start]
		rep := mustVerify(t, openDir(t, cut))
		if len(rep.Defects) != 1 || rep.Defects[0].Name != last || rep.Defects[0].Kind != DefectTruncated ||
			!strings.Contains(rep.Defects[0].Detail, "ends before its stats frame") {
			t.Errorf("%s store, %s cut before its stats frame: defects %v, want it truncated", what, last, rep.Defects)
		}
	}
}

// TestVerifyTruncationMatrix: every strict prefix of every store file must be
// detected — locally where possible, and by heads-anchored verification in
// the one documented blind spot (a binary canonical truncated exactly at a
// frame boundary is indistinguishable from a legacy unsealed file).
func TestVerifyTruncationMatrix(t *testing.T) {
	for _, format := range []string{"ttl", "pbs"} {
		t.Run(format, func(t *testing.T) {
			store := newLayoutStore(t, format)
			smallHistory(t, store, 0)
			clean := storeFiles(t, store)
			heads := mustVerify(t, store).Heads
			total, missed := 0, 0
			for name, data := range clean {
				for n := 0; n < len(data); n++ {
					mut := make(map[string][]byte, len(clean))
					for fn, d := range clean {
						mut[fn] = d
					}
					mut[name] = append([]byte(nil), data[:n]...)
					total++
					tstore := openDir(t, mut)
					rep := mustVerify(t, tstore)
					if rep.Clean() {
						anchored, err := tstore.VerifyAgainst(heads)
						if err != nil {
							t.Fatal(err)
						}
						if anchored.Clean() {
							missed++
							if missed <= 5 {
								t.Errorf("truncating %s to %d bytes verified clean even against recorded heads", name, n)
							}
						}
					}
				}
			}
			if missed > 0 {
				t.Fatalf("%d of %d truncations undetected", missed, total)
			}
		})
	}
}

// TestVerifyDeletionMatrix: removing any single chain file (and, for tail
// files, the whole file+sidecar pair) must be detected locally or against
// recorded heads; deleting only a sidecar must at least demote its file to
// the unsealed list so strict auditing flags it.
func TestVerifyDeletionMatrix(t *testing.T) {
	for _, format := range []string{"ttl", "pbs"} {
		t.Run(format, func(t *testing.T) {
			store := newLayoutStore(t, format)
			smallHistory(t, store, 0)
			clean := storeFiles(t, store)
			heads := mustVerify(t, store).Heads
			for name := range clean {
				victims := []string{name}
				if filepath.Ext(name) != ".sum" {
					// Also try deleting the file together with its sidecar.
					if _, ok := clean[name+".sum"]; ok {
						victims = append(victims, name+".sum")
					}
				}
				for _, pair := range [][]string{victims[:1], victims} {
					mut := make(map[string][]byte, len(clean))
					for fn, d := range clean {
						mut[fn] = d
					}
					for _, v := range pair {
						delete(mut, v)
					}
					dstore := openDir(t, mut)
					rep := mustVerify(t, dstore)
					detected := !rep.Clean()
					if !detected {
						anchored, err := dstore.VerifyAgainst(heads)
						if err != nil {
							t.Fatal(err)
						}
						detected = !anchored.Clean()
					}
					if !detected && filepath.Ext(pair[len(pair)-1]) == ".sum" && len(pair) == 1 {
						// Sidecar-only deletion: must surface as unsealed.
						detected = len(rep.Unsealed) > 0
					}
					if !detected {
						t.Errorf("deleting %v verified clean", pair)
					}
				}
			}

			// Deleting an entire process's files is locally invisible but must
			// fail against recorded heads.
			empty := openDir(t, map[string][]byte{})
			rep, err := empty.VerifyAgainst(heads)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Clean() || rep.Worst() != DefectMissing {
				t.Errorf("whole-chain deletion: defects %v", rep.Defects)
			}
		})
	}
}

// spliceCases manipulate the chains of a binary store holding smallHistory
// for pids 0 and 1.
var spliceCases = func() []struct {
	name   string
	mutate func(map[string][]byte)
} {
	seg := func(pid, n int) string { return fmt.Sprintf("prov_p%06d.seg%04d.pbs", pid, n) }
	return []struct {
		name   string
		mutate func(map[string][]byte)
	}{
		{"swap adjacent segments", func(m map[string][]byte) {
			m[seg(0, 0)], m[seg(0, 1)] = m[seg(0, 1)], m[seg(0, 0)]
		}},
		{"replay old segment under tail name", func(m map[string][]byte) {
			m[seg(0, 2)] = m[seg(0, 0)]
		}},
		{"duplicate tail as new segment", func(m map[string][]byte) {
			m[seg(0, 3)] = m[seg(0, 2)]
		}},
		{"splice segment from another process", func(m map[string][]byte) {
			m[seg(0, 1)] = m[seg(1, 1)]
		}},
		{"graft foreign chain suffix", func(m map[string][]byte) {
			m[seg(0, 1)], m[seg(0, 2)] = m[seg(1, 1)], m[seg(1, 2)]
		}},
	}
}()

// TestVerifyReorderAndSplice: segments moved within a chain, replayed under a
// later name, or spliced in from another process must all be rejected.
func TestVerifyReorderAndSplice(t *testing.T) {
	view := vfs.NewStore().NewView()
	store, err := NewStore(VFSBackend{View: view}, "/prov", FormatBinary)
	if err != nil {
		t.Fatal(err)
	}
	smallHistory(t, store, 0)
	smallHistory(t, store, 1)
	clean := storeFiles(t, store)
	for _, tc := range spliceCases {
		t.Run(tc.name, func(t *testing.T) {
			mut := make(map[string][]byte, len(clean))
			for n, d := range clean {
				mut[n] = d
			}
			tc.mutate(mut)
			rep := mustVerify(t, openDir(t, mut))
			if rep.Clean() {
				t.Fatal("manipulated chain verified clean")
			}
			if rep.Worst() != DefectTampered {
				t.Errorf("worst defect %v, want tampered (defects: %v)", rep.Worst(), rep.Defects)
			}
		})
	}

	// Cross-store splice: an extra process forged wholesale is invisible
	// locally (its chain is self-consistent) but caught by recorded heads.
	heads := mustVerify(t, store).Heads
	delete(heads, 1)
	rep, err := store.VerifyAgainst(heads)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean() || rep.Worst() != DefectTampered {
		t.Errorf("spliced-in process: defects %v", rep.Defects)
	}
}

// TestCompactRecoversDroppableTail: Compact drops a torn, unacknowledged tail
// segment and returns the store to a verifiably clean state, but refuses —
// with an IntegrityError naming the damage — when the defect is not confined
// to the unacknowledged tail.
func TestCompactRecoversDroppableTail(t *testing.T) {
	for _, format := range []string{"ttl", "pbs"} {
		t.Run(format, func(t *testing.T) {
			store := newLayoutStore(t, format)
			smallHistory(t, store, 0)
			clean := storeFiles(t, store)

			// Tear the newest segment (simulating a crash mid-write).
			var tail string
			for n := range clean {
				if strings.Contains(n, ".seg") && filepath.Ext(n) != ".sum" {
					if tail == "" || n > tail {
						tail = n
					}
				}
			}
			mut := make(map[string][]byte, len(clean))
			for n, d := range clean {
				mut[n] = d
			}
			mut[tail] = mut[tail][:len(mut[tail])/2]
			delete(mut, tail+".sum") // the sidecar write never happened
			tstore := openDir(t, mut)
			if rep := mustVerify(t, tstore); rep.Clean() {
				t.Fatal("torn tail verified clean")
			}
			if err := tstore.Compact(); err != nil {
				t.Fatalf("Compact must recover a torn tail: %v", err)
			}
			rep := mustVerify(t, tstore)
			if !rep.Clean() || rep.Segments != 0 {
				t.Fatalf("post-recovery: defects %v, %d segments", rep.Defects, rep.Segments)
			}

			// Acknowledged-history damage: tearing a MIDDLE segment must make
			// Compact refuse with an IntegrityError.
			mut = make(map[string][]byte, len(clean))
			for n, d := range clean {
				mut[n] = d
			}
			first := strings.Replace(tail, ".seg0002", ".seg0000", 1)
			mut[first] = mut[first][:len(mut[first])/2]
			bstore := openDir(t, mut)
			err := bstore.Compact()
			var ierr *IntegrityError
			if err == nil || !errors.As(err, &ierr) {
				t.Fatalf("Compact on damaged history: err=%v, want IntegrityError", err)
			}
			if len(ierr.Defects) == 0 {
				t.Fatal("IntegrityError carries no defects")
			}
		})
	}
}

// auditFixture is one store snapshot of TestAuditParallelMatchesSerial.
type auditFixture struct {
	name  string
	files map[string][]byte
}

// withFile copies a snapshot with one file replaced, or deleted (nil data).
func withFile(files map[string][]byte, name string, data []byte) map[string][]byte {
	mut := maps.Clone(files)
	if data == nil {
		delete(mut, name)
	} else {
		mut[name] = data
	}
	return mut
}

// auditFixtures builds the stores the tamper matrices, the pack tests and the
// codec tests build — clean and damaged, loose and packed, every format —
// each holding several processes so that the check pass has files to spread.
func auditFixtures(t *testing.T) []auditFixture {
	t.Helper()
	var fx []auditFixture
	add := func(name string, files map[string][]byte) { fx = append(fx, auditFixture{name, files}) }
	history := func(format string, pids ...int) *Store {
		store := newLayoutStore(t, format)
		for _, pid := range pids {
			smallHistory(t, store, pid)
		}
		return store
	}

	// The flip, truncation and deletion matrices, sampled.
	for _, format := range layouts {
		clean := storeFiles(t, history(format, 0, 1))
		add(fmt.Sprintf("%v/clean", format), clean)
		names := make([]string, 0, len(clean))
		for n := range clean {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, name := range names {
			data := clean[name]
			for i := 0; i < len(data); i += 1 + len(data)/5 {
				flipped := append([]byte(nil), data...)
				flipped[i] ^= 1 << (i % 8)
				add(fmt.Sprintf("%v/flip %s byte %d", format, name, i), withFile(clean, name, flipped))
			}
			for _, n := range []int{0, len(data) / 2, len(data) - 1} {
				add(fmt.Sprintf("%v/truncate %s to %d", format, name, n), withFile(clean, name, data[:n:n]))
			}
			add(fmt.Sprintf("%v/delete %s", format, name), withFile(clean, name, nil))
		}
	}
	clean := storeFiles(t, history("pbs", 0, 1))
	for _, tc := range spliceCases {
		mut := maps.Clone(clean)
		tc.mutate(mut)
		add("splice/"+tc.name, mut)
	}

	// Packed stores: level 1, the crash state that duplicates its members as
	// loose files, level 1 beside fresh loose segments, and level 2.
	store := history("pbs", 0, 1, 2)
	loose := storeFiles(t, store)
	pack, err := store.PackSegments(1)
	if err != nil {
		t.Fatal(err)
	}
	l1 := storeFiles(t, store)
	add("packed/L1", l1)
	add("packed/L1 crash-duplicated", withFile(loose, pack, l1[pack]))
	smallHistory(t, store, 5)
	add("packed/L1 and loose", storeFiles(t, store))
	if _, err := store.PackSegments(2); err != nil {
		t.Fatal(err)
	}
	add("packed/L2", storeFiles(t, store))
	l1[pack] = append([]byte(nil), l1[pack]...)
	l1[pack][len(l1[pack])/2] ^= 0x10
	add("packed/L1 flipped member byte", l1)

	// One directory holding all three formats, sidecars included.
	mixed := make(map[string][]byte)
	for pid, format := range layouts {
		for n, d := range storeFiles(t, history(format, pid)) {
			mixed[n] = d
		}
	}
	add("mixed formats", mixed)
	return fx
}

// TestAuditParallelMatchesSerial: the audit's check pass runs on GOMAXPROCS
// workers, and nothing it feeds may depend on how many — Verify returns
// deep-equal reports (defect order, heads, counts), PackSegments and Compact
// equal errors and byte-equal stores — at 1, 2 and 8, over clean and damaged
// stores of every format and layout.
func TestAuditParallelMatchesSerial(t *testing.T) {
	type outcome struct {
		report              *VerifyReport
		packErr, compactErr string
		packed, compacted   map[string][]byte
	}
	fixtures := auditFixtures(t)
	run := func(procs int) []outcome {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		out := make([]outcome, len(fixtures))
		for i, fx := range fixtures {
			o := &out[i]
			o.report = mustVerify(t, openDir(t, fx.files))
			store := openDir(t, fx.files)
			_, err := store.PackSegments(3) // above every fixture's packs: folds them too
			o.packErr, o.packed = fmt.Sprint(err), storeFiles(t, store)
			store = openDir(t, fx.files)
			o.compactErr, o.compacted = fmt.Sprint(store.Compact()), storeFiles(t, store)
		}
		return out
	}
	serial := run(1)
	defective, refused := 0, 0
	for _, o := range serial {
		if !o.report.Clean() {
			defective++
		}
		if o.packErr != "<nil>" {
			refused++
		}
	}
	t.Logf("%d fixtures: %d defective, %d packs refused", len(serial), defective, refused)
	if defective == 0 || defective == len(serial) || refused == 0 || refused == len(serial) {
		t.Fatalf("fixtures are one-sided: %d of %d defective, %d packs refused", defective, len(serial), refused)
	}
	for _, procs := range []int{2, 8} {
		for i, got := range run(procs) {
			want, name := serial[i], fixtures[i].name
			if !reflect.DeepEqual(got.report, want.report) {
				t.Errorf("%s: Verify at GOMAXPROCS=%d:\n got %+v\nwant %+v", name, procs, got.report, want.report)
			}
			if got.packErr != want.packErr || !reflect.DeepEqual(got.packed, want.packed) {
				t.Errorf("%s: PackSegments at GOMAXPROCS=%d: err %q, serial %q (or the stores differ)", name, procs, got.packErr, want.packErr)
			}
			if got.compactErr != want.compactErr || !reflect.DeepEqual(got.compacted, want.compacted) {
				t.Errorf("%s: Compact at GOMAXPROCS=%d: err %q, serial %q (or the stores differ)", name, procs, got.compactErr, want.compactErr)
			}
		}
	}
}
