package core

import (
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
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

// packName formats a pack file name. The "prov_p" prefix keeps packs inside
// the store's provenance-file listing (exhaustive merges pick them up through
// the codec registry); the name deliberately matches neither the canonical
// nor the segment pattern, so per-process chain logic never mistakes a pack
// for chain history.
func packName(level, seq int) string {
	return fmt.Sprintf("prov_pack.l%02d.%04d%s", level, seq, segcodec.Pack.Ext())
}

// parsePackName is packName's inverse; ok is false for non-pack names.
func parsePackName(name string) (level, seq int, ok bool) {
	if _, err := fmt.Sscanf(name, "prov_pack.l%02d.%04d.psk", &level, &seq); err != nil {
		return 0, 0, false
	}
	if name != packName(level, seq) {
		return 0, 0, false
	}
	return level, seq, true
}

// PackSegments folds every loose delta segment and every pack below the
// target level into one new level-`level` pack, then removes the sources. It
// refuses on an unclean audit — packing damaged history would seal the
// damage in — and on a member that is a text file, a sidecar, or a pbs file
// in an older version, all of which Compact rewrites first, so a pack it
// writes holds one format; it writes nothing when it refuses. It is an
// offline operation: run it on a quiescent store (no live trackers), like
// Compact. Returns the new pack's file name, or ErrNothingToPack when there
// is nothing to fold.
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
	var defects []Defect
	for _, pa := range a.pids {
		defects = append(defects, pa.defects...)
	}
	defects = append(defects, a.packDefects...)
	if len(defects) > 0 {
		sortDefects(defects)
		return "", &IntegrityError{Defects: defects}
	}

	maxSeq := -1
	var loose, oldPacks []string  // sources to remove
	fold := make(map[string]bool) // member names of the new pack
	for _, p := range a.packs {
		lvl, seq, _ := parsePackName(p.name)
		if lvl == level && seq > maxSeq {
			maxSeq = seq
		}
		if lvl >= level {
			continue
		}
		for _, m := range p.members {
			fold[m] = true
		}
		oldPacks = append(oldPacks, p.name)
	}
	for _, n := range a.loose {
		if _, seg, _, _ := parseStoreName(n); seg < 0 {
			continue // canonical files stay loose
		}
		fold[n] = true
		loose = append(loose, n)
	}
	sort.Strings(loose)
	if len(fold) == 0 {
		return "", ErrNothingToPack
	}

	// Deterministic member order; zero-padded names sort by (pid, seg). A
	// name the audit holds several copies of (loose and packed) holds
	// byte-identical ones, or it would have reported a defect above.
	memberNames := make([]string, 0, len(fold))
	for n := range fold {
		memberNames = append(memberNames, n)
	}
	sort.Strings(memberNames)
	if err := refuseLegacyText(memberNames); err != nil {
		return "", err
	}
	files := make(map[string]*auditFile)
	for _, pa := range a.pids {
		for _, f := range pa.canonicals {
			files[f.name] = f
		}
		for _, f := range pa.segs {
			files[f.name] = f
		}
	}
	ordered := make([]segcodec.PackEntry, 0, len(fold))
	var contents []*segcodec.Columns // what the pack-level union stats cover
	for _, n := range memberNames {
		f := files[n]
		if f.cols.Version != segcodec.PBSVersion {
			return "", fmt.Errorf("core: %s is pbs v%d and a pack takes v%d files only: run provio-merge -compact first",
				n, f.cols.Version, segcodec.PBSVersion)
		}
		ordered = append(ordered, segcodec.PackEntry{Name: n, Data: f.data, Stats: f.cols.Stats})
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

// Levels reports the store's leveled layout for tooling (provio-stats). It
// runs off the same single List+Stat pass TotalBytes uses.
func (s *Store) Levels() ([]LevelInfo, error) {
	files, err := s.sizedSubgraphFiles()
	if err != nil {
		return nil, err
	}
	byLevel := map[int]*LevelInfo{}
	at := func(l int) *LevelInfo {
		li := byLevel[l]
		if li == nil {
			li = &LevelInfo{Level: l}
			byLevel[l] = li
		}
		return li
	}
	for _, f := range files {
		if filepath.Ext(f.path) == segcodec.Pack.Ext() {
			h, _, err := s.readPackHeader(f.path)
			if err != nil {
				return nil, err
			}
			li := at(h.Level)
			li.Files++
			li.Bytes += f.size
			for _, m := range h.Members {
				if isCodecFile(m.Name) {
					li.Units++
				}
			}
			continue
		}
		li := at(0)
		li.Files++
		li.Units++
		li.Bytes += f.size
	}
	out := make([]LevelInfo, 0, len(byLevel))
	for _, li := range byLevel {
		out = append(out, *li)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Level < out[j].Level })
	return out, nil
}
