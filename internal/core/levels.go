package core

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"

	"github.com/hpc-io/prov-io/internal/rdf/segcodec"
)

// Leveled compaction (DESIGN.md "Leveled segments & pushdown"): level 0 is
// the loose-file tier every flush writes into; PackSegments folds L0 delta
// segments — and any lower-level packs — into one L-N pack container whose
// header carries per-member and pack-level statistics. Member bytes move
// VERBATIM (the same relocation property cross-backend Compact relies on):
// digests, seals, and chain heads survive packing byte-for-byte, so
// provio-verify against heads recorded before a compaction still passes.
// Canonical sub-graph files never enter packs — they are the chain anchors
// recovery rewrites in place.

// ErrNothingToPack is returned by PackSegments when the store holds no
// segments or lower-level packs to fold.
var ErrNothingToPack = errors.New("core: no segments to pack at this level")

// PackSegments folds every loose delta segment and every pack below the
// target level into one new level-`level` pack, then removes the sources.
// Like every path, it refuses a store holding a file only an older build
// wrote (readable, on the audit's read pass, before the check pass opens a
// file), so a pack it writes holds pbs v5 only; and it refuses on an unclean
// audit — packing damaged history would seal the damage in. It writes
// nothing when it refuses. It is an offline operation: run it on a quiescent
// store (no live trackers), like Compact. Returns the new pack's file name,
// or ErrNothingToPack when there is nothing to fold.
//
// A crash between the pack write and source removal leaves members
// duplicated as loose files; the audit treats byte-identical duplicates as
// one file, so verification stays clean and re-running PackSegments (or
// Compact) converges.
func (s *Store) PackSegments(level int) (string, error) {
	if level < 1 {
		return "", fmt.Errorf("core: pack level %d out of range (levels start at 1)", level)
	}
	// The audit is also the read: it holds every file's bytes and decoded
	// content, so nothing below touches the backend until the pack is written.
	a, err := s.audit(true)
	if err != nil {
		return "", err
	}
	if err := a.refuseDefects(); err != nil {
		return "", err
	}

	maxSeq := -1
	var loose, oldPacks []string // sources to remove
	var members []layoutFile     // of the new pack
	for _, p := range a.packs {
		if p.level == level && p.seq > maxSeq {
			maxSeq = p.seq
		}
		if p.level >= level {
			continue
		}
		for _, m := range p.members {
			if m != nil { // a foreign name is a defect, refused above
				members = append(members, m.layoutFile)
			}
		}
		oldPacks = append(oldPacks, p.name)
	}
	for _, f := range a.layout.files {
		if f.kind == kindSegment { // canonical files stay loose
			members = append(members, f)
			loose = append(loose, f.name)
		}
	}
	if len(members) == 0 {
		return "", ErrNothingToPack
	}

	// Deterministic member order: the names' sorted order, which is (pid,
	// seg) order below pid 10^6 and seg 10^4. A name the audit holds several
	// copies of (loose and packed) holds byte-identical ones, or it would
	// have reported a defect above, so one copy stands for all.
	sort.Slice(members, func(i, j int) bool { return members[i].name < members[j].name })
	members = slices.CompactFunc(members, func(x, y layoutFile) bool { return x.name == y.name })
	ordered := make([]segcodec.PackEntry, 0, len(members))
	var contents []*segcodec.Columns // what the pack-level union stats cover
	for _, m := range members {
		f := a.audited[m.name]
		ordered = append(ordered, segcodec.PackEntry{Name: m.name, Data: f.data, Stats: f.cols.Stats})
		contents = append(contents, f.cols)
	}
	packStats := segcodec.UnionStats(contents, runtime.GOMAXPROCS(0))
	pack, err := segcodec.EncodePack(level, ordered, &packStats)
	if err != nil {
		return "", err
	}
	name := packName(level, maxSeq+1)
	if err := s.backend.WriteFile(s.path(name), pack); err != nil {
		return "", err
	}
	// Sources go only after the pack is durable, old packs last.
	for _, n := range append(loose, oldPacks...) {
		if err := s.backend.Remove(s.path(n)); err != nil {
			return "", err
		}
	}
	return name, nil
}

// LevelInfo is one level's occupancy in the store's layout.
type LevelInfo struct {
	Level int   `json:"level"`
	Files int   `json:"files"` // loose files at L0; pack containers at L>0
	Units int   `json:"units"` // decodable units (files / RDF members)
	Bytes int64 `json:"bytes"`
}

// Levels reports the store's leveled layout for tooling (provio-stats): one
// listing, a Stat per file, and a header read per pack.
func (s *Store) Levels() ([]LevelInfo, error) {
	files, sizes, err := s.stored()
	if err != nil {
		return nil, err
	}
	out := []LevelInfo{} // sorted by level
	at := func(l int) *LevelInfo {
		i := sort.Search(len(out), func(i int) bool { return out[i].Level >= l })
		if i == len(out) || out[i].Level != l {
			out = slices.Insert(out, i, LevelInfo{Level: l})
		}
		return &out[i]
	}
	for i, f := range files {
		if f.kind != kindPack {
			li := at(0)
			li.Files++
			li.Units++
			li.Bytes += sizes[i]
			continue
		}
		h, _, err := s.readPackHeader(s.path(f.name))
		if err != nil {
			return nil, err
		}
		li := at(h.Level)
		li.Files++
		li.Bytes += sizes[i]
		for _, m := range h.Members {
			if _, ok := parseStoreName(m.Name); ok {
				li.Units++
			}
		}
	}
	return out, nil
}
