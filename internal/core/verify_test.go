package core

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
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

// storeFiles snapshots every file of a store directory.
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
// built by every flush pipeline — canonical-only, segments-only, and full
// histories, before and after Compact — must verify clean, fully sealed, and
// stable against their own recorded heads. The same histories in a text
// layout an older build wrote are refused by every path instead
// (checkRefused).
func TestVerifyCleanMatrix(t *testing.T) {
	for _, format := range layouts {
		for _, shape := range []string{"close", "drain", "history"} {
			t.Run(fmt.Sprintf("%v/%s", format, shape), func(t *testing.T) {
				store := newBinaryVFSStore(t)
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
				if format != "pbs" {
					checkRefused(t, format+" store", openDir(t, asLayout(t, storeFiles(t, store), format)))
					return
				}
				rep := mustVerify(t, store)
				if !rep.Clean() {
					t.Fatalf("clean store has defects: %v", rep.Defects)
				}
				if rep.Processes != 2 || rep.Files == 0 {
					t.Fatalf("Processes=%d Files=%d", rep.Processes, rep.Files)
				}
				if rep.Sealed != rep.Files {
					t.Fatalf("Sealed=%d of %d files", rep.Sealed, rep.Files)
				}
				if shape == "drain" && rep.Segments == 0 {
					t.Fatal("drained store has no segments")
				}
				// The recorded heads must re-verify, survive their text
				// rendering, and stay clean across Compact + re-audit.
				heads, err := ParseHeads(rep.FormatHeads())
				if err != nil {
					t.Fatal(err)
				}
				if rep2, err := store.VerifyAgainst(heads); err != nil || !rep2.Clean() {
					t.Fatalf("VerifyAgainst own heads: %v, %v", err, rep2.Defects)
				}
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

// TestVerifyUnsealedIsTruncated: every write appends its seal in the same
// write, so a file that decodes but carries no chain frame is a prefix of
// its sealed form — a truncated defect on its own, without recorded heads.
// Each store below is one an audit that tolerated unsealed files called
// clean: a lone canonical file cut exactly before its chain frame; a middle
// segment cut so, whose successor's seal links to the cut bytes; and a store
// with every seal stripped. Compact refuses such acknowledged history, and
// drops only an unsealed newest segment, the unacknowledged torn tail.
func TestVerifyUnsealedIsTruncated(t *testing.T) {
	const canonical, middle = "prov_p000000.pbs", "prov_p000000.seg0001.pbs"
	lone := newBinaryVFSStore(t)
	trackInto(t, lone, 0, DefaultConfig(), false)
	loneFiles := storeFiles(t, lone)

	// The middle segment's successor is sealed against the digest of the
	// segment as it stands without its seal.
	linked := newBinaryVFSStore(t)
	trackInto(t, linked, 0, DefaultConfig(), false)
	row := func(i int) []rdf.Triple {
		return []rdf.Triple{{S: rdf.IRI(fmt.Sprintf("urn:s%d", i)), P: rdf.IRI("urn:p"), O: rdf.Integer(int64(i))}}
	}
	for seg := 0; seg < 3; seg++ {
		if err := writeDelta(linked, 0, seg, row(seg)); err != nil {
			t.Fatal(err)
		}
		if seg == 1 {
			cut := stripChain(storeFiles(t, linked)[middle])
			if err := linked.backend.WriteFile(linked.path(middle), cut); err != nil {
				t.Fatal(err)
			}
			linked.chainHead[0] = fileDigest(cut)
		}
	}

	history := newBinaryVFSStore(t)
	smallHistory(t, history, 0)
	clean := storeFiles(t, history)
	unsealed := map[string][]byte{}
	for name, data := range clean {
		unsealed[name] = stripChain(data)
	}
	for what, c := range map[string]struct {
		files   map[string][]byte
		victims []string
	}{
		"lone canonical file": {withFile(loneFiles, canonical, stripChain(loneFiles[canonical])), []string{canonical}},
		"middle segment":      {storeFiles(t, linked), []string{middle}},
		"every seal gone":     {unsealed, fileNames(unsealed)},
	} {
		s := openDir(t, c.files)
		rep := mustVerify(t, s)
		var named []string
		for _, d := range rep.Defects {
			if d.Kind != DefectTruncated || !strings.Contains(d.Detail, "ends before its chain frame") {
				t.Errorf("%s: defect %v, want truncated files only", what, d)
			}
			named = append(named, d.Name)
		}
		if sort.Strings(named); !slices.Equal(named, c.victims) {
			t.Errorf("%s: defects name %v, want %v", what, named, c.victims)
		}
		var ierr *IntegrityError
		if err := s.Compact(); !errors.As(err, &ierr) {
			t.Errorf("%s: Compact returned %v, want an IntegrityError", what, err)
		}
	}

	const tail = "prov_p000000.seg0002.pbs"
	torn := openDir(t, withFile(clean, tail, stripChain(clean[tail])))
	if rep := mustVerify(t, torn); len(rep.Defects) != 1 || rep.Defects[0].Name != tail || rep.Worst() != DefectTruncated {
		t.Fatalf("unsealed newest segment: defects %v", rep.Defects)
	}
	if err := torn.Compact(); err != nil {
		t.Fatalf("Compact must drop an unsealed newest segment: %v", err)
	}
	if rep := mustVerify(t, torn); !rep.Clean() || rep.Sealed != rep.Files {
		t.Fatalf("after recovery: defects %v, %d of %d sealed", rep.Defects, rep.Sealed, rep.Files)
	}
}

// TestVerifyLegacyUnsealedTolerated: a store an older build wrote before
// the integrity layer — no seals anywhere — is tolerated the one way this
// build tolerates an older store: every path refuses it as needing
// migration, and none reports its missing seals as damage. The pbs case is
// the version 1 store with every chain frame stripped, the ttl case the text
// store without its .sum files. An unsealed file of this build's version is
// a truncated defect instead (TestVerifyUnsealedIsTruncated).
func TestVerifyLegacyUnsealedTolerated(t *testing.T) {
	for _, format := range []string{"ttl", "pbs"} {
		t.Run(format, func(t *testing.T) {
			files, _ := legacyTextFiles(t, "loose")
			if format == "pbs" {
				files, _ = legacyStoreFiles(t, 1, "loose")
			}
			legacy := map[string][]byte{}
			for name, data := range files {
				if filepath.Ext(name) != ".sum" {
					legacy[name] = stripChain(data)
				}
			}
			if maps.EqualFunc(files, legacy, bytes.Equal) {
				t.Fatal("premise: the committed store carries seals to strip")
			}
			checkRefused(t, format+" store without seals", openDir(t, legacy))
		})
	}
}

// TestVerifyFlipMatrix is the exhaustive single-byte tamper matrix: for every
// file of a sealed store, flipping one bit of any byte must be detected.
// Detection kinds vary (a flipped frame length reads as truncation), but no
// flip may verify clean.
// A text store an older build wrote is refused as needing migration
// whatever byte is flipped (checkTextDamageRefused).
func TestVerifyFlipMatrix(t *testing.T) {
	t.Run("ttl", func(t *testing.T) { checkTextDamageRefused(t, "vfs", flipped) })
	t.Run("pbs", verifyFlipMatrixPBS)
}

// verifyFlipMatrixPBS is TestVerifyFlipMatrix on the pbs store.
func verifyFlipMatrixPBS(t *testing.T) {
	store := newBinaryVFSStore(t)
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

	// Naming an older version takes more than one bit flip, so the matrix
	// above never tries it: a sealed file under an older version byte is a
	// defect its decode reports — damage, never a file to migrate.
	for name, data := range clean {
		for v := byte(1); v < data[3]; v++ {
			mut := maps.Clone(clean)
			mut[name] = append([]byte(nil), data...)
			mut[name][3] = v
			rep := mustVerify(t, openDir(t, mut))
			rejected := false
			for _, d := range rep.Defects {
				rejected = rejected || d.Name == name && strings.HasPrefix(d.Detail, "decode:")
			}
			if !rejected {
				t.Errorf("%s under version byte %d was not rejected by its decode: %v", name, v, rep.Defects)
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

// TestVerifyChecksLegacyPackHeaderStats: a pack whose header stats are
// generation 1 is one only an older build wrote, and this build holds no
// such header to its members: Verify and VerifyAgainst refuse the packed
// store of every older version with ErrNeedsMigration before any check,
// as written and with a member's byte flipped inside the pack alike — never
// a tampered pack, which is a verdict only the migrating build can give.
func TestVerifyChecksLegacyPackHeaderStats(t *testing.T) {
	const name = "prov_pack.l01.0000.psk"
	for v := 1; v <= 4; v++ {
		clean, heads := legacyStoreFiles(t, v, "packed")
		if _, err := segcodec.DecodePackHeader(clean[name]); !errors.Is(err, segcodec.ErrNeedsMigration) {
			t.Fatalf("version %d: premise: a generation 1 header, DecodePackHeader returned %v", v, err)
		}
		flipped := append([]byte(nil), clean[name]...)
		flipped[len(flipped)-len(flipped)/4] ^= 0x10
		for what, files := range map[string]map[string][]byte{"as written": clean, "member byte flipped": withFile(clean, name, flipped)} {
			store := openDir(t, files)
			_, verr := store.Verify()
			_, aerr := store.VerifyAgainst(heads)
			for op, err := range map[string]error{"Verify": verr, "VerifyAgainst": aerr} {
				if !errors.Is(err, segcodec.ErrNeedsMigration) || errors.Is(err, segcodec.ErrCorrupt) ||
					!strings.Contains(err.Error(), migratingBuild) {
					t.Errorf("version %d, %s: %s returned %v, want ErrNeedsMigration naming %q", v, what, op, err, migratingBuild)
				}
			}
		}
	}
}

// TestVerifyCurrentSegmentWithoutStatsIsTruncated: the stats frame is part of
// the format, so a segment cut between its triple block and its stats frame
// is a torn write on its own, without recorded heads.
func TestVerifyCurrentSegmentWithoutStatsIsTruncated(t *testing.T) {
	store := newBinaryVFSStore(t)
	smallHistory(t, store, 0)
	clean := storeFiles(t, store)
	var last string
	for name := range clean {
		if strings.Contains(name, ".seg") && name > last {
			last = name
		}
	}
	start, _ := statsFrameAt(t, clean[last])
	rep := mustVerify(t, openDir(t, withFile(clean, last, clean[last][:start])))
	if len(rep.Defects) != 1 || rep.Defects[0].Name != last || rep.Defects[0].Kind != DefectTruncated ||
		!strings.Contains(rep.Defects[0].Detail, "ends before its stats frame") {
		t.Errorf("%s cut before its stats frame: defects %v, want it truncated", last, rep.Defects)
	}
}

// TestVerifyTruncationMatrix: every strict prefix of every store file must
// be detected locally, without recorded heads — a file cut exactly before its
// seal included, since every write appends the seal in the same write.
// A text store an older build wrote is refused as needing migration
// wherever a file is cut (checkTextDamageRefused).
func TestVerifyTruncationMatrix(t *testing.T) {
	t.Run("ttl", func(t *testing.T) { checkTextDamageRefused(t, "vfs", truncated) })
	t.Run("pbs", verifyTruncationMatrixPBS)
}

// verifyTruncationMatrixPBS is TestVerifyTruncationMatrix on the pbs store.
func verifyTruncationMatrixPBS(t *testing.T) {
	store := newBinaryVFSStore(t)
	smallHistory(t, store, 0)
	clean := storeFiles(t, store)
	total, missed := 0, 0
	for name, data := range clean {
		for n := 0; n < len(data); n++ {
			total++
			if rep := mustVerify(t, openDir(t, withFile(clean, name, data[:n:n]))); rep.Clean() {
				missed++
				if missed <= 5 {
					t.Errorf("truncating %s to %d bytes verified clean", name, n)
				}
			}
		}
	}
	if missed > 0 {
		t.Fatalf("%d of %d truncations undetected", missed, total)
	}
}

// TestVerifyDeletionMatrix: removing any single chain file must be detected
// locally or against recorded heads.
// A text store an older build wrote is refused as needing migration
// whichever file is gone (checkTextDamageRefused).
func TestVerifyDeletionMatrix(t *testing.T) {
	t.Run("ttl", func(t *testing.T) { checkTextDamageRefused(t, "vfs", deleted) })
	t.Run("pbs", verifyDeletionMatrixPBS)
}

// verifyDeletionMatrixPBS is TestVerifyDeletionMatrix on the pbs store.
func verifyDeletionMatrixPBS(t *testing.T) {
	store := newBinaryVFSStore(t)
	smallHistory(t, store, 0)
	clean := storeFiles(t, store)
	heads := mustVerify(t, store).Heads
	for name := range clean {
		dstore := openDir(t, withFile(clean, name, nil))
		rep := mustVerify(t, dstore)
		detected := !rep.Clean()
		if !detected {
			anchored, err := dstore.VerifyAgainst(heads)
			if err != nil {
				t.Fatal(err)
			}
			detected = !anchored.Clean()
		}
		if !detected {
			t.Errorf("deleting %s verified clean", name)
		}
	}

	// Deleting an entire process's files is locally invisible but must fail
	// against recorded heads.
	empty := openDir(t, map[string][]byte{})
	rep, err := empty.VerifyAgainst(heads)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean() || rep.Worst() != DefectMissing {
		t.Errorf("whole-chain deletion: defects %v", rep.Defects)
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
// Recovering a text store an older build wrote is the migrating build's
// work: Compact refuses it, torn tail and all, and changes no byte
// (checkTextDamageRefused).
func TestCompactRecoversDroppableTail(t *testing.T) {
	t.Run("ttl", func(t *testing.T) { checkTextDamageRefused(t, "vfs", tornTail) })
	t.Run("pbs", compactRecoversDroppableTailPBS)
}

// compactRecoversDroppableTailPBS is TestCompactRecoversDroppableTail on the pbs store.
func compactRecoversDroppableTailPBS(t *testing.T) {
	store := newBinaryVFSStore(t)
	smallHistory(t, store, 0)
	clean := storeFiles(t, store)

	// Tear the newest segment (simulating a crash mid-write).
	var tail string
	for n := range clean {
		if strings.Contains(n, ".seg") && n > tail {
			tail = n
		}
	}
	tstore := openDir(t, withFile(clean, tail, clean[tail][:len(clean[tail])/2]))
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
	first := strings.Replace(tail, ".seg0002", ".seg0000", 1)
	bstore := openDir(t, withFile(clean, first, clean[first][:len(clean[first])/2]))
	err := bstore.Compact()
	var ierr *IntegrityError
	if err == nil || !errors.As(err, &ierr) {
		t.Fatalf("Compact on damaged history: err=%v, want IntegrityError", err)
	}
	if len(ierr.Defects) == 0 {
		t.Fatal("IntegrityError carries no defects")
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
// codec tests build — clean and damaged, loose and packed — each holding
// several processes so that the check pass has files to spread.
func auditFixtures(t *testing.T) []auditFixture {
	t.Helper()
	var fx []auditFixture
	add := func(name string, files map[string][]byte) { fx = append(fx, auditFixture{name, files}) }
	history := func(pids ...int) *Store {
		store := newBinaryVFSStore(t)
		for _, pid := range pids {
			smallHistory(t, store, pid)
		}
		return store
	}

	// The flip, truncation and deletion matrices, sampled.
	clean := storeFiles(t, history(0, 1))
	add("clean", clean)
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
			add(fmt.Sprintf("flip %s byte %d", name, i), withFile(clean, name, flipped))
		}
		for _, n := range []int{0, len(data) / 2, len(data) - 1} {
			add(fmt.Sprintf("truncate %s to %d", name, n), withFile(clean, name, data[:n:n]))
		}
		add(fmt.Sprintf("unseal %s", name), withFile(clean, name, stripChain(data)))
		add(fmt.Sprintf("delete %s", name), withFile(clean, name, nil))
	}
	for _, tc := range spliceCases {
		mut := maps.Clone(clean)
		tc.mutate(mut)
		add("splice/"+tc.name, mut)
	}

	// Packed stores: level 1, the crash state that duplicates its members as
	// loose files, level 1 beside fresh loose segments, and level 2.
	store := history(0, 1, 2)
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
	return fx
}

// TestAuditParallelMatchesSerial: the audit's check pass runs on GOMAXPROCS
// workers, and nothing it feeds may depend on how many — Verify returns
// deep-equal reports (defect order, heads, counts), PackSegments and Compact
// equal errors and byte-equal stores — at 1, 2 and 8, over clean and damaged
// stores, loose and packed.
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
