package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"

	"github.com/hpc-io/prov-io/internal/par"
	"github.com/hpc-io/prov-io/internal/rdf/segcodec"
)

// This file is the store auditor behind provio-verify and the recovery
// decisions of Compact (DESIGN.md "Integrity & fault injection"). Verify
// audits a store end-to-end: every file decodes as pbs v5 (frames, CRCs),
// every file carries a seal consistent with its bytes, and every process's
// files form one continuous hash chain. Defects are classified:
//
//   - tampered:  content contradicts its seal or chain — bit flips, CRC
//     mismatches, reordered or spliced segments, chain-head mismatches.
//   - truncated: a file is a strict prefix of what its seal or framing
//     promises — the torn-write signature. A file that decodes but carries
//     no seal is one: every write appends its seal in the same write.
//   - missing:   the chain or the name sequence references a file that is
//     gone — deleted segments, a deleted canonical file.
//   - orphaned:  a file is present but no read decodes it — a name that
//     claims to be a store file outside the name grammar, or such a pack
//     member.
//
// A store holding a file only an older build wrote is not audited at all:
// Verify refuses it with ErrNeedsMigration, as every path does.

// DefectKind classifies one integrity defect.
type DefectKind uint8

// Defect kinds, ordered by severity (Worst reports the highest).
const (
	// DefectOrphaned: a present file nothing authenticates.
	DefectOrphaned DefectKind = iota + 1
	// DefectMissing: a referenced file is gone.
	DefectMissing
	// DefectTruncated: a file is a strict prefix of its sealed form.
	DefectTruncated
	// DefectTampered: content contradicts its seal or chain.
	DefectTampered
)

func (k DefectKind) String() string {
	switch k {
	case DefectTampered:
		return "tampered"
	case DefectTruncated:
		return "truncated"
	case DefectMissing:
		return "missing"
	case DefectOrphaned:
		return "orphaned"
	}
	return fmt.Sprintf("defect(%d)", uint8(k))
}

// Defect is one verification finding.
type Defect struct {
	PID    int
	Name   string // file name inside the store directory; "" for process-level findings
	Kind   DefectKind
	Detail string
}

func (d Defect) String() string {
	name := d.Name
	if name == "" {
		name = fmt.Sprintf("p%06d", d.PID)
	}
	return fmt.Sprintf("[%s] %s: %s", d.Kind, name, d.Detail)
}

// VerifyReport is the result of auditing a store.
type VerifyReport struct {
	Dir       string
	Processes int
	Files     int // provenance files examined (pack members counted individually)
	Sealed    int // files carrying a valid chain seal
	Segments  int // delta segment files among Files
	Packs     int // pack containers examined (their members audited like loose files)
	Defects   []Defect
	// Heads maps each process to its chain head: the SHA-256 of the newest
	// authenticated file of its history. Recording heads after a run and
	// re-verifying with VerifyAgainst closes the one gap local verification
	// cannot: deletion of an entire chain suffix (or chain).
	Heads map[int][32]byte
}

// Clean reports whether the audit found no defects.
func (r *VerifyReport) Clean() bool { return len(r.Defects) == 0 }

// Worst returns the most severe defect kind found (0 when clean).
func (r *VerifyReport) Worst() DefectKind {
	var w DefectKind
	for _, d := range r.Defects {
		if d.Kind > w {
			w = d.Kind
		}
	}
	return w
}

// FormatHeads renders the chain heads as a stable text document
// ("p%06d <hex>\n" per process), the anchor file provio-verify -write-heads
// emits and -heads consumes.
func (r *VerifyReport) FormatHeads() []byte {
	pids := make([]int, 0, len(r.Heads))
	for pid := range r.Heads {
		pids = append(pids, pid)
	}
	sort.Ints(pids)
	var b strings.Builder
	for _, pid := range pids {
		h := r.Heads[pid]
		fmt.Fprintf(&b, "p%06d %s\n", pid, hex.EncodeToString(h[:]))
	}
	return []byte(b.String())
}

// ParseHeads parses a FormatHeads document. A pid reads as the store name
// grammar reads one (cutPadded), so every pid FormatHeads writes parses.
func ParseHeads(data []byte) (map[int][32]byte, error) {
	heads := make(map[int][32]byte)
	for ln, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		p, hx, _ := strings.Cut(line, " ")
		pid, rest, ok := cutPadded(strings.TrimPrefix(p, "p"), 6)
		if !ok || rest != "" || !strings.HasPrefix(p, "p") {
			return nil, fmt.Errorf("heads line %d: %q", ln+1, line)
		}
		var h [32]byte
		if err := parseDigest(strings.TrimSpace(hx), &h); err != nil {
			return nil, fmt.Errorf("heads line %d: %v", ln+1, err)
		}
		heads[pid] = h
	}
	return heads, nil
}

// parseDigest decodes a hex-encoded SHA-256 digest.
func parseDigest(s string, out *[32]byte) error {
	raw, err := hex.DecodeString(s)
	if err != nil {
		return err
	}
	if len(raw) != len(out) {
		return fmt.Errorf("digest is %d bytes, want %d", len(raw), len(out))
	}
	copy(out[:], raw)
	return nil
}

// fileDigest is the chain digest of a store file's complete bytes.
func fileDigest(data []byte) [32]byte { return sha256.Sum256(data) }

// IntegrityError is returned by Compact when a store's damage is not
// attributable to an interrupted write of unacknowledged data — recovery
// refuses to guess, and the defects say what a human (or provio-verify) is
// looking at.
type IntegrityError struct{ Defects []Defect }

func (e *IntegrityError) Error() string {
	if len(e.Defects) == 1 {
		return fmt.Sprintf("core: store integrity: %s", e.Defects[0])
	}
	return fmt.Sprintf("core: store integrity: %s (and %d more defects)",
		e.Defects[0], len(e.Defects)-1)
}

// Verify audits the store and returns the report. The returned error covers
// operational failures (unlistable directory, unreadable files) and a store
// holding a file only an older build wrote (ErrNeedsMigration); integrity
// findings land in the report's Defects.
func (s *Store) Verify() (*VerifyReport, error) {
	a, err := s.audit(false)
	if err != nil {
		return nil, err
	}
	return a.report(s.dir), nil
}

// VerifyAgainst is Verify anchored to externally recorded chain heads: on
// top of the local audit, every recorded process must still be present with
// exactly the recorded head, and no unrecorded process may have appeared —
// which is what catches deletion of a chain's newest files (locally
// indistinguishable from "the process never wrote them") and whole-chain
// forgery.
func (s *Store) VerifyAgainst(heads map[int][32]byte) (*VerifyReport, error) {
	rep, err := s.Verify()
	if err != nil {
		return nil, err
	}
	for pid, want := range heads {
		got, ok := rep.Heads[pid]
		if !ok {
			rep.Defects = append(rep.Defects, Defect{PID: pid, Kind: DefectMissing,
				Detail: "process chain recorded in heads is gone from the store"})
			continue
		}
		if got != want {
			rep.Defects = append(rep.Defects, Defect{PID: pid, Kind: DefectTampered,
				Detail: fmt.Sprintf("chain head %x does not match recorded head %x (suffix deleted or rewritten)", got[:4], want[:4])})
		}
	}
	for pid := range rep.Heads {
		if _, ok := heads[pid]; !ok {
			rep.Defects = append(rep.Defects, Defect{PID: pid, Kind: DefectTampered,
				Detail: "process is not in the recorded heads (spliced-in chain)"})
		}
	}
	sortDefects(rep.Defects)
	return rep, nil
}

// ---- audit engine ----

// auditFile is one examined store file.
type auditFile struct {
	layoutFile
	data   []byte
	digest [32]byte
	meta   *segcodec.Chain // the embedded seal, nil unless the file is intact
	// cols is the decoded content, retained under audit(keep) when the file
	// decodes.
	cols   *segcodec.Columns
	packed string // pack file the bytes live in; "" for a loose file
	// defects are the per-file findings, charged by the check pass to the file
	// alone (its worker shares nothing) and folded into the pid's in entry
	// order; non-empty means the file's seal is no chain evidence.
	defects []Defect
}

func (f *auditFile) bad() bool { return len(f.defects) > 0 }

func (f *auditFile) flag(kind DefectKind, name, format string, args ...any) {
	f.defects = append(f.defects, Defect{
		PID: f.pid, Name: name, Kind: kind, Detail: fmt.Sprintf(format, args...),
	})
}

// pidAudit is the audit state of one process.
type pidAudit struct {
	pid       int
	canonical *auditFile   // the canonical file, nil if none
	segs      []*auditFile // sorted by segment number
	defects   []Defect
	head      [32]byte
	// drop names the file removable as an unacknowledged torn tail: set only
	// when every defect of the pid is confined to the newest segment.
	drop string
}

func (pa *pidAudit) addDefect(kind DefectKind, name, format string, args ...any) {
	pa.defects = append(pa.defects, Defect{
		PID: pa.pid, Name: name, Kind: kind, Detail: fmt.Sprintf(format, args...),
	})
}

type storeAudit struct {
	pids                    map[int]*pidAudit
	files, sealed, segments int
	// What the one read pass saw, for the maintenance steps that run on an
	// audit instead of listing and reading the store again: the listing and
	// the pack containers.
	layout *storeLayout
	packs  []auditPack
	// audited is every file the check pass audited, by name; inPack the
	// names some pack holds.
	audited map[string]*auditFile
	inPack  map[string]bool
	// packDefects are structural findings against pack containers themselves
	// (unreadable header, foreign member names, conflicting duplicates) —
	// kept apart from per-pid defects so they never perturb chain heads —
	// and names that claim to be store files but are not.
	packDefects []Defect
}

// auditPack is one pack container the audit read.
type auditPack struct {
	layoutFile
	// header is the decoded header (nil when unreadable); members[i] is
	// header.Members[i] as the read pass found it, nil for a foreign name.
	header  *segcodec.PackHeader
	members []*auditFile
}

func (a *storeAudit) addPackDefect(kind DefectKind, name, format string, args ...any) {
	a.packDefects = append(a.packDefects, Defect{
		Name: name, Kind: kind, Detail: fmt.Sprintf(format, args...),
	})
}

// audit reads every provenance file in the store exactly once and checks it,
// in three passes: a read pass on the calling goroutine, in listing order (so
// backend traces and injected read faults do not depend on scheduling); a
// check pass that fans the per-file work — digest, validated decode, seal —
// over the store's worker pool, each file collecting its own defects; and a
// fold that hands files and defects to their process in entry order, then
// analyses each chain. The result is the same at any worker count. keep
// retains each decoded file's content (and the audit keeps every file's
// bytes regardless) for the fold steps of Compact and PackSegments. The read
// pass holds each loose file to readable, every reader's gate, and each pack
// to its header, and returns the first ErrNeedsMigration before the check
// pass opens a file: no path audits a file only an older build wrote.
func (s *Store) audit(keep bool) (*storeAudit, error) {
	l, err := s.listLayout()
	if err != nil {
		return nil, err
	}
	a := &storeAudit{layout: l, pids: make(map[int]*pidAudit), inPack: make(map[string]bool)}
	for _, n := range l.orphans {
		a.addPackDefect(DefectOrphaned, n, "not a store file name: no read decodes it")
	}
	var entries []*auditFile // what the read pass found, unchecked
	for _, f := range l.files {
		data, err := s.backend.ReadFile(s.path(f.name))
		if err != nil {
			return nil, fmt.Errorf("core: reading %s: %w", f.name, err)
		}
		if f.kind == kindPack {
			members, err := a.addPack(f, data)
			if err != nil {
				return nil, err
			}
			entries = append(entries, members...)
			continue
		}
		entries = append(entries, &auditFile{layoutFile: f, data: data})
		if _, err := readable(f, data); errors.Is(err, segcodec.ErrNeedsMigration) {
			return nil, err // damage is the check pass's to classify
		}
	}
	// Same-name copies (a crash between a pack write and source removal
	// duplicates members as loose files) audit as one file when byte-identical
	// — the first copy, which is the loose one when there is one, since
	// prov_p<digit> lists before prov_pack — and as damage when they conflict.
	a.audited = make(map[string]*auditFile, len(entries))
	deduped := entries[:0:0]
	for _, e := range entries {
		switch first := a.audited[e.name]; {
		case first == nil:
			a.audited[e.name] = e
			deduped = append(deduped, e)
		case !bytes.Equal(first.data, e.data):
			a.addPackDefect(DefectTampered, e.name, "copies differ between %s and %s",
				packSrc(first.packed), packSrc(e.packed))
		}
	}
	entries = deduped
	// Check pass: the files are mutually independent, and a finding is a
	// defect on the file, never an error. A packed member's content is kept
	// for its pack's stats check below.
	par.Do(len(entries), runtime.GOMAXPROCS(0), func(i int) { entries[i].check(keep || a.inPack[entries[i].name]) })
	for i := range a.packs {
		a.checkPackStats(&a.packs[i])
	}
	// Fold, in entry order.
	pidOf := func(pid int) *pidAudit {
		pa := a.pids[pid]
		if pa == nil {
			pa = &pidAudit{pid: pid}
			a.pids[pid] = pa
		}
		return pa
	}
	for _, f := range entries {
		pa := pidOf(f.pid)
		pa.defects = append(pa.defects, f.defects...)
		a.files++
		if f.meta != nil {
			a.sealed++
		}
		if f.seg >= 0 {
			a.segments++
			pa.segs = append(pa.segs, f)
		} else {
			pa.canonical = f
		}
	}
	for _, pa := range a.pids {
		sort.Slice(pa.segs, func(i, j int) bool { return pa.segs[i].seg < pa.segs[j].seg })
	}
	for _, pa := range a.pids {
		s.auditChain(pa)
		sortDefects(pa.defects)
	}
	return a, nil
}

// addPack records a pack container the read pass read: structural checks
// here, then its members join the audit exactly as if they were loose files —
// packing must be invisible to chain analysis. It returns the members to
// audit, or ErrNeedsMigration for a header only an older build wrote.
func (a *storeAudit) addPack(f layoutFile, data []byte) (audit []*auditFile, err error) {
	a.packs = append(a.packs, auditPack{layoutFile: f})
	h, err := segcodec.DecodePackHeader(data)
	if errors.Is(err, segcodec.ErrNeedsMigration) {
		return nil, fmt.Errorf("core: %s: %w", f.name, err)
	}
	if err == nil {
		err = h.CheckSize(int64(len(data)))
	}
	if err != nil {
		kind := DefectTampered
		if errors.Is(err, segcodec.ErrTruncated) {
			kind = DefectTruncated
		}
		a.addPackDefect(kind, f.name, "%v", err)
		return nil, nil
	}
	p := &a.packs[len(a.packs)-1]
	p.header, p.members = h, make([]*auditFile, len(h.Members))
	for i, m := range h.Members {
		n, ok := parseStoreName(m.Name)
		if !ok || n.kind == kindPack {
			a.addPackDefect(DefectOrphaned, f.name, "pack member %s is not a store file name", m.Name)
			continue
		}
		p.members[i] = &auditFile{layoutFile: layoutFile{name: m.Name, storeName: n}, data: data[m.Off : m.Off+m.Size], packed: f.name}
		a.inPack[m.Name] = true
		audit = append(audit, p.members[i])
	}
	return audit, nil
}

// checkPackStats holds a readable pack's header stats to its members'
// contents (segcodec.CheckPackStats): pruned and lazy reads trust the header
// instead of fetching the members, so a header that says less than they hold
// drops answers. A pack with a member that has no content to compare — a
// foreign name, an undecodable file, a conflicting copy — is left to that
// member's own defect.
func (a *storeAudit) checkPackStats(p *auditPack) {
	if p.header == nil {
		return
	}
	members := make([]*segcodec.Columns, len(p.members))
	for i, pf := range p.members {
		if pf == nil {
			return
		}
		f := a.audited[pf.name]
		if !bytes.Equal(f.data, pf.data) || f.cols == nil {
			return
		}
		members[i] = f.cols
	}
	if err := segcodec.CheckPackStats(p.header, members, runtime.GOMAXPROCS(0)); err != nil {
		a.addPackDefect(DefectTampered, p.name, "header stats: %v", err)
	}
}

// packSrc names where a duplicated file copy lives, for defect messages.
func packSrc(pack string) string {
	if pack == "" {
		return "the store directory"
	}
	return pack
}

// check integrity-checks a single store file (loose or a pack member — the
// read pass supplied the bytes either way). It runs on a pool worker: it
// writes only f, and charges what it finds to f's own defect list.
// Validation needs no graph: the columnar decode makes every check.
func (f *auditFile) check(keep bool) {
	name, seg := f.name, f.seg
	f.digest = fileDigest(f.data)
	cols, err := segcodec.DecodeColumns(f.data)
	switch {
	case err != nil:
		kind := DefectTampered
		if errors.Is(err, segcodec.ErrTruncated) {
			kind = DefectTruncated
		}
		f.flag(kind, name, "decode: %v", err)
		return
	case cols.Chain == nil:
		// Every write appends the seal in the same write, so a file without
		// one is a prefix of its sealed form.
		f.flag(DefectTruncated, name, "file ends before its chain frame")
	default:
		f.meta = cols.Chain
	}
	if keep {
		f.cols = cols
	}

	// Seal sanity: a segment's seal must name its own position, a canonical
	// file's seal must be a root.
	if f.meta != nil {
		switch {
		case seg >= 0 && f.meta.Root:
			f.flag(DefectTampered, name, "segment is sealed as a chain root")
		case seg >= 0 && f.meta.Seq != uint64(seg):
			f.flag(DefectTampered, name, "seal names segment %d, file name says %d (reordered or spliced)", f.meta.Seq, seg)
		case seg < 0 && !f.meta.Root:
			f.flag(DefectTampered, name, "canonical file is sealed as a delta segment")
		}
	}
}

// auditChain checks the per-process chain: segment-name contiguity, link
// continuity, run authentication, and computes the process head. It runs
// only when every per-file check passed — per-file defects already flag the
// pid, and a damaged file's seal cannot be trusted as chain evidence.
func (s *Store) auditChain(pa *pidAudit) {
	// Segment numbers must be contiguous among the present files (removal
	// only ever deletes a prefix of the live history).
	for i := 1; i < len(pa.segs); i++ {
		if pa.segs[i].seg != pa.segs[i-1].seg+1 {
			pa.addDefect(DefectMissing, "",
				"segments %d..%d are gone (present: ...%04d, %04d...)",
				pa.segs[i-1].seg+1, pa.segs[i].seg-1, pa.segs[i-1].seg, pa.segs[i].seg)
		}
	}

	// Default head: newest file by write order (segments after canonical).
	if n := len(pa.segs); n > 0 {
		pa.head = pa.segs[n-1].digest
	} else if pa.canonical != nil {
		pa.head = pa.canonical.digest
	}
	if len(pa.defects) > 0 {
		pa.markDroppableTail()
		return // chain evidence untrustworthy
	}

	// Every file is sealed from here on: a file without a seal is a per-file
	// defect. The canonical file anchors the live run by its digest, and its
	// root seal names the head it superseded, which authenticates a stale
	// segment run.
	c := pa.canonical

	// Link classification per segment position.
	const (
		lLinked = iota // prev == digest of the previous present segment
		lAnchor        // prev == the canonical file's digest (run start)
		lZero          // prev == zero at segment 0 (history start)
		lFloat         // prev matches nothing present
	)
	link := make([]int, len(pa.segs))
	for i, f := range pa.segs {
		switch {
		case i > 0 && f.meta.Prev == pa.segs[i-1].digest:
			link[i] = lLinked
		case c != nil && f.meta.Prev == c.digest:
			link[i] = lAnchor
		case f.meta.PrevIsZero() && f.seg == 0:
			link[i] = lZero
		default:
			link[i] = lFloat
		}
	}

	// Split into runs at positions that are not simple continuations.
	var runs [][2]int // [start, end) index ranges
	start := 0
	for i := 1; i < len(pa.segs); i++ {
		if link[i] != lLinked {
			runs = append(runs, [2]int{start, i})
			start = i
		}
	}
	if len(pa.segs) > 0 {
		runs = append(runs, [2]int{start, len(pa.segs)})
	}

	// Validate runs: at most one run may be live (anchored at a canonical
	// digest, or starting from zero when it IS the history); every earlier
	// run must be a stale remnant a canonical's root seal authenticates.
	liveRun := -1
	for ri, r := range runs {
		head := link[r[0]]
		if head == lAnchor || (head == lZero && c == nil) {
			// The live run: the history currently being written.
			if ri != len(runs)-1 {
				pa.addDefect(DefectTampered, pa.segs[runs[ri+1][0]].name,
					"chain restarts after the live segment run (spliced or replayed history)")
			}
			if liveRun >= 0 {
				pa.addDefect(DefectTampered, pa.segs[r[0]].name,
					"second live segment run (duplicated chain)")
			}
			liveRun = ri
			continue
		}
		if head == lFloat && r[0] > 0 {
			pa.addDefect(DefectTampered, pa.segs[r[0]].name,
				"chain broken: seal's predecessor digest matches neither the previous segment nor a canonical file")
			continue
		}
		// Everything else is a stale remnant claim: a run a crash stranded
		// between a canonical rewrite and segment removal. Its newest member
		// must be the head the canonical root seal superseded.
		if c == nil {
			pa.addDefect(DefectMissing, "",
				"segments reference history that is gone (no canonical file; run head %s)", pa.segs[r[0]].name)
		} else if pa.segs[r[1]-1].digest != c.meta.Prev {
			pa.addDefect(DefectTampered, pa.segs[r[0]].name,
				"segment run is not authenticated by any canonical root seal")
		}
	}

	// The process head: the tail of the live run; with no live segments, the
	// canonical file.
	if liveRun >= 0 {
		pa.head = pa.segs[runs[liveRun][1]-1].digest
	} else if c != nil {
		pa.head = c.digest
	}
	pa.markDroppableTail()
}

// markDroppableTail decides whether every defect of the pid is confined to
// the newest segment file — the only damage an interrupted write of
// unacknowledged data can leave — and if so records the file recovery may
// drop.
func (pa *pidAudit) markDroppableTail() {
	if len(pa.defects) == 0 || len(pa.segs) == 0 {
		return
	}
	tail := pa.segs[len(pa.segs)-1]
	if tail.packed != "" {
		return // a packed member is not individually removable
	}
	for _, d := range pa.defects {
		if d.Kind == DefectMissing || d.Name != tail.name {
			return
		}
	}
	pa.drop = tail.name
}

// refuseDefects is the maintenance gate: Compact and PackSegments refuse a
// store whose audit found any defect.
func (a *storeAudit) refuseDefects() error {
	defects := append([]Defect(nil), a.packDefects...)
	for _, pa := range a.pids {
		defects = append(defects, pa.defects...)
	}
	if len(defects) == 0 {
		return nil
	}
	sortDefects(defects)
	return &IntegrityError{Defects: defects}
}

func sortDefects(ds []Defect) {
	sort.Slice(ds, func(i, j int) bool {
		if ds[i].PID != ds[j].PID {
			return ds[i].PID < ds[j].PID
		}
		if ds[i].Name != ds[j].Name {
			return ds[i].Name < ds[j].Name
		}
		return ds[i].Detail < ds[j].Detail
	})
}

// report packages an audit into the public VerifyReport.
func (a *storeAudit) report(dir string) *VerifyReport {
	rep := &VerifyReport{
		Dir: dir, Processes: len(a.pids),
		Files: a.files, Sealed: a.sealed, Segments: a.segments, Packs: len(a.packs),
		Heads: make(map[int][32]byte, len(a.pids)),
	}
	rep.Defects = append(rep.Defects, a.packDefects...)
	for pid, pa := range a.pids {
		rep.Defects = append(rep.Defects, pa.defects...)
		rep.Heads[pid] = pa.head
	}
	sortDefects(rep.Defects)
	return rep
}
