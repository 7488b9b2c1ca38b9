package core

import (
	"errors"
	"fmt"
	"io/fs"
	"sort"
	"strings"

	"github.com/hpc-io/prov-io/internal/backend"
	"github.com/hpc-io/prov-io/internal/par"
	"github.com/hpc-io/prov-io/internal/rdf"
	"github.com/hpc-io/prov-io/internal/rdf/segcodec"
)

// This file is the store's one reader (DESIGN.md "Leveled segments &
// pushdown", paragraph "The store reader"): every read — exhaustive or
// pruned merge, lazy view — lists the store's units once (listUnits) and
// admits them through one statistics predicate (admit). A read that wants
// a graph fans the admitted units over one worker pool (mergeUnits) and
// merges their columns (sortedUnion): the eager merge decodes each unit,
// LazyView.MaterializeGraph loads it through the budgeted cache in
// lazysource.go. Compact folds the audit's columns through sortedUnion
// too.
//
// Every reader takes pbs v5 only: before it decodes a byte, the listing
// refuses a store holding a file only an older build wrote (olderName,
// readable, DecodePackHeader), so every unit it admits carries generation 2
// stats. Pushdown consults each segment's embedded stats frame — and each
// pack's header — to skip whole segments whose zone maps, predicate lists,
// and Bloom filters prove the answer cannot be there. Pruning is strictly
// conservative: a Bloom filter has false positives only, and the codec layer
// rejects any stats frame that does not byte-match its segment's contents —
// so a pruned read returns exactly what the exhaustive read would.

// readable is every reader's gate, run on each loose store file before any
// is decoded: the stats frame a read prunes on, segcodec.ErrNeedsMigration
// naming f when it is a pbs v1–v4 file, or the damage that keeps it from
// being read. (A pack is gated by its header: DecodePackHeader refuses
// generation 1 stats, and a read refuses an entry without stats.)
func readable(f layoutFile, data []byte) (*segcodec.SegStats, error) {
	st, err := segcodec.StatsOf(data)
	if err != nil {
		return nil, fmt.Errorf("core: %s: %w", f.name, err)
	}
	return st, nil
}

// PrunePattern is one triple pattern of a pruning hint; nil positions are
// unbound. The zero pattern matches everything.
type PrunePattern struct {
	S, P, O *rdf.Term
}

// SegmentPruner is the pushdown hint a read derives from its query: the
// union of every triple pattern the query could touch. A segment is skipped
// only when NO pattern can match it — triples matching no pattern cannot
// influence the result, so skipping such segments is sound for any query the
// patterns over-approximate. A nil pruner (or one with no patterns) prunes
// nothing.
type SegmentPruner struct {
	Patterns []PrunePattern
}

// wantStats reports whether any pattern could match a unit with these
// stats. admit, its only caller, has already let everything through for a
// nil or empty pruner.
func (pr *SegmentPruner) wantStats(st *segcodec.SegStats) bool {
	for _, p := range pr.Patterns {
		if st.CanMatch(p.S, p.P, p.O) {
			return true
		}
	}
	return false
}

// LevelScan is one level's slice of a ScanStats.
type LevelScan struct {
	Units   int `json:"units"`
	Decoded int `json:"decoded"`
}

// ScanStats reports what a pruned read touched: how many decodable units
// (loose files and pack members) the store holds, how many were actually
// decoded, and how the work split across levels (level 0 = loose files,
// level N = members of an L-N pack). provio-query -plan and provio-stats
// render it.
type ScanStats struct {
	Files        int                `json:"files"`         // store files listed (a pack counts once)
	Packs        int                `json:"packs"`         // pack containers among Files
	PacksSkipped int                `json:"packs_skipped"` // packs skipped whole at their header
	Units        int                `json:"units"`         // decodable units (loose files + pack members)
	Decoded      int                `json:"decoded"`
	Skipped      int                `json:"skipped"`
	PerLevel     map[int]*LevelScan `json:"per_level,omitempty"`

	// Decoded-unit cache counters, populated only by the out-of-core read
	// path (LazySource.Stats, LazyView reads); zero on eager reads.
	CacheHits          uint64 `json:"cache_hits,omitempty"`
	CacheMisses        uint64 `json:"cache_misses,omitempty"`
	CacheEvictions     uint64 `json:"cache_evictions,omitempty"`
	CacheResidentBytes int64  `json:"cache_resident_bytes,omitempty"`
	CachePeakBytes     int64  `json:"cache_peak_bytes,omitempty"`
	CacheBudgetBytes   int64  `json:"cache_budget_bytes,omitempty"`
}

// cacheHitRatio returns the cache hit fraction, or -1 when no lazy read ran.
func (st *ScanStats) cacheHitRatio() float64 {
	total := st.CacheHits + st.CacheMisses
	if total == 0 {
		return -1
	}
	return float64(st.CacheHits) / float64(total)
}

func (st *ScanStats) level(l int) *LevelScan {
	if st.PerLevel == nil {
		st.PerLevel = make(map[int]*LevelScan)
	}
	ls := st.PerLevel[l]
	if ls == nil {
		ls = &LevelScan{}
		st.PerLevel[l] = ls
	}
	return ls
}

// String renders the skip report one line, e.g. "decoded 3/41 units (38
// skipped; 2/5 packs pruned whole) [L0 1/1 L1 2/40]".
func (st *ScanStats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "decoded %d/%d units (%d skipped", st.Decoded, st.Units, st.Skipped)
	if st.Packs > 0 {
		fmt.Fprintf(&b, "; %d/%d packs pruned whole", st.PacksSkipped, st.Packs)
	}
	b.WriteString(")")
	if len(st.PerLevel) > 0 {
		levels := make([]int, 0, len(st.PerLevel))
		for l := range st.PerLevel {
			levels = append(levels, l)
		}
		sort.Ints(levels)
		b.WriteString(" [")
		for i, l := range levels {
			if i > 0 {
				b.WriteString(" ")
			}
			ls := st.PerLevel[l]
			fmt.Fprintf(&b, "L%d %d/%d", l, ls.Decoded, ls.Units)
		}
		b.WriteString("]")
	}
	if st.CacheHits+st.CacheMisses > 0 {
		fmt.Fprintf(&b, "; cache %d hit / %d miss (%.0f%%), %d evicted, %d bytes resident",
			st.CacheHits, st.CacheMisses, 100*st.cacheHitRatio(), st.CacheEvictions, st.CacheResidentBytes)
		if st.CacheBudgetBytes > 0 {
			fmt.Fprintf(&b, " of %d budget", st.CacheBudgetBytes)
		}
	}
	return b.String()
}

// scanUnit is one decodable unit of the store: a loose provenance file, or
// one member of a pack — the one unit representation every read works off.
// Units carry whatever was already read to stat them (loose files: the
// whole file; pack members: nothing until fetched, except on backends
// without range reads, where the header fetch read the whole container).
type scanUnit struct {
	path   string // backend path of the file holding the unit
	member string // member name inside a pack; "" for a loose file
	off    int64  // member extent (pack members only)
	size   int64
	level  int
	stats  *segcodec.SegStats
	data   []byte // unit bytes when already in hand

	// Pack members only: the container's size (the header's WantSize,
	// checked against the file at listing time) and its union statistics
	// for whole-pack pruning.
	packSize  int64
	packStats *segcodec.SegStats

	// lazy is the unit's state inside an open LazyView (content key,
	// decoded-footprint estimate); nil on eager reads, which never touch the
	// cache.
	lazy *lazyState
}

// unitList is the store's layout as one listing pass saw it.
type unitList struct {
	units        []*scanUnit
	files, packs int // store files listed (a pack counts once); packs among them
}

// newScanStats seeds a ScanStats with the listing's layout counts; reads
// then record what they decoded with markDecoded.
func (l *unitList) newScanStats() *ScanStats {
	st := &ScanStats{Files: l.files, Packs: l.packs, Units: len(l.units), Skipped: len(l.units)}
	for _, u := range l.units {
		st.level(u.level).Units++
	}
	return st
}

// markDecoded records units a read decoded.
func (st *ScanStats) markDecoded(units []*scanUnit) {
	st.Decoded += len(units)
	st.Skipped = st.Units - st.Decoded
	for _, u := range units {
		st.level(u.level).Decoded++
	}
}

// rangeReadable returns the backend's partial-read capability, or nil. Only
// the outermost backend is consulted — never unwrapped decorators — so a
// fault-injection or accounting wrapper that lacks the method keeps seeing
// every read as a whole-file ReadFile.
func rangeReadable(b StoreBackend) backend.RangeReader {
	rr, _ := any(b).(backend.RangeReader)
	return rr
}

// readPackHeader fetches and parses a pack's header. With a range-capable
// backend only a prefix of the file is read (retried larger while the
// header is truncated); otherwise the whole file is read and returned so
// member fetches can slice it instead of re-reading. Either way the file's
// size is checked against the size the header implies.
func (s *Store) readPackHeader(path string) (h *segcodec.PackHeader, data []byte, err error) {
	var size int64
	if rr := rangeReadable(s.backend); rr != nil {
		for n := int64(64 << 10); ; n *= 2 {
			buf, rerr := rr.ReadFileRange(path, 0, n)
			if rerr != nil {
				return nil, nil, rerr
			}
			h, err = segcodec.DecodePackHeader(buf)
			if errors.Is(err, segcodec.ErrTruncated) && int64(len(buf)) == n {
				continue // header larger than the prefix: read more
			}
			break
		}
		if err == nil {
			// The header parsed from a prefix; check the file is whole.
			if size, err = s.backend.Stat(path); err != nil {
				return nil, nil, err
			}
		}
	} else {
		if data, err = s.backend.ReadFile(path); err != nil {
			return nil, nil, err
		}
		h, err = segcodec.DecodePackHeader(data)
		size = int64(len(data))
	}
	if err == nil {
		err = h.CheckSize(size)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("core: %s: %w", path, err)
	}
	return h, data, nil
}

// staleIfGone classifies a read error on a file the listing saw: if the
// file is gone by read time, a concurrent Compact/PackSegments moved the
// layout under this reader — ErrStaleView, so racing readers can
// distinguish maintenance from damage. Other errors pass through.
func staleIfGone(path string, err error) error {
	if errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("core: %s vanished after it was listed: %w (%v)", path, ErrStaleView, err)
	}
	return err
}

// fetch returns the unit's bytes, range-reading pack members on capable
// backends so untouched members never enter memory.
func (u *scanUnit) fetch(s *Store) ([]byte, error) {
	if u.data != nil {
		return u.data, nil
	}
	if rr := rangeReadable(s.backend); rr != nil && u.member != "" {
		data, err := rr.ReadFileRange(u.path, u.off, u.size)
		if err != nil {
			return nil, staleIfGone(u.path, err)
		}
		if int64(len(data)) != u.size {
			return nil, fmt.Errorf("core: %s!%s: member extent short: %w", u.path, u.member, segcodec.ErrTruncated)
		}
		return data, nil
	}
	data, err := s.backend.ReadFile(u.path)
	if err != nil {
		return nil, staleIfGone(u.path, err)
	}
	if u.member == "" {
		return data, nil
	}
	if int64(len(data)) < u.off+u.size {
		return nil, fmt.Errorf("core: %s!%s: member extent past EOF: %w", u.path, u.member, segcodec.ErrTruncated)
	}
	return data[u.off : u.off+u.size], nil
}

// columns decodes the unit's pbs v5 bytes.
func (u *scanUnit) columns(data []byte) (*segcodec.Columns, error) {
	c, err := segcodec.DecodeColumns(data)
	if err != nil {
		name := u.path
		if u.member != "" {
			name += "!" + u.member
		}
		return nil, fmt.Errorf("core: parsing %s: %w", name, err)
	}
	return c, nil
}

// listUnits lists the store's decodable units, expanding packs into member
// units through their headers (lazily: member bytes are not read, and each
// header is fetched exactly once — its size and union stats ride on the
// member units). Loose files are read whole — their stats frame sits in the
// footer — and the bytes are kept on the unit so a later decode does not
// re-read them. Every file passes readable first, so the first file only an
// older build wrote refuses the read before any unit is decoded.
func (s *Store) listUnits() (*unitList, error) {
	lay, err := s.listLayout()
	if err != nil {
		return nil, err
	}
	l := &unitList{}
	for _, f := range lay.files {
		l.files++
		path := s.path(f.name)
		if f.kind == kindPack {
			l.packs++
			h, data, err := s.readPackHeader(path)
			if err != nil {
				return nil, err
			}
			if err := h.MissingStats(); err != nil {
				return nil, fmt.Errorf("core: %s: %w", f.name, err)
			}
			for i := range h.Members {
				m := &h.Members[i]
				if _, ok := parseStoreName(m.Name); !ok {
					continue // a name the audit flags
				}
				u := &scanUnit{path: path, member: m.Name, off: m.Off, size: m.Size, level: h.Level,
					stats: &m.Stats, packSize: h.WantSize, packStats: &h.Stats}
				if data != nil {
					u.data = data[m.Off : m.Off+m.Size]
				}
				l.units = append(l.units, u)
			}
			continue
		}
		data, err := s.backend.ReadFile(path)
		if err != nil {
			return nil, err
		}
		st, err := readable(f, data)
		if err != nil {
			return nil, err
		}
		l.units = append(l.units, &scanUnit{path: path, size: int64(len(data)), data: data, stats: st})
	}
	return l, nil
}

// admit is the store's one pushdown predicate, applied in two stages: a
// pack whose union stats rule every pattern out drops all its members and
// counts as skipped whole; surviving units are then filtered on their own
// stats. A nil or empty pruner admits
// everything. Eager pruned merges and lazy sources both admit through
// here, so a lazy query touches exactly the units the eager merge decodes.
func admit(units []*scanUnit, pr *SegmentPruner) (keep []*scanUnit, packsSkipped int) {
	if pr == nil || len(pr.Patterns) == 0 {
		return units, 0
	}
	skipPack := make(map[string]bool) // pack path -> verdict, decided once per pack
	for _, u := range units {
		if u.member != "" {
			skip, decided := skipPack[u.path]
			if !decided {
				skip = !pr.wantStats(u.packStats)
				skipPack[u.path] = skip
				if skip {
					packsSkipped++
				}
			}
			if skip {
				continue
			}
		}
		if !pr.wantStats(u.stats) {
			continue
		}
		keep = append(keep, u)
	}
	return keep, packsSkipped
}

// mergeUnits turns units into one graph: columns gives each unit's
// columns, on up to `workers` goroutines, and sortedUnion merges them. The
// eager merge decodes each unit's bytes; a lazy view hands over what its
// cache holds.
func mergeUnits(units []*scanUnit, workers int, columns func(u *scanUnit) (*segcodec.Columns, error)) (*rdf.Graph, error) {
	cols := make([]*segcodec.Columns, len(units))
	err := par.ForEach(len(units), workers, func(_, i int) (err error) {
		cols[i], err = columns(units[i])
		return err
	})
	if err != nil {
		return nil, err
	}
	return sortedUnion(cols)
}

// sortedUnion is the one way store units become a graph: segcodec.MergeColumns
// unions their columns and rdf.NewSortedGraph adopts the union. GUID-based
// node identity makes the union deduplicate shared nodes. The graph is the
// same whatever the units' order: its IDs are term order and its log (S, P,
// O) order. The merge rewrites every unit's rows in place, so a caller hands
// over columns nothing reads afterwards, each one once.
func sortedUnion(cols []*segcodec.Columns) (*rdf.Graph, error) {
	terms, refs, err := segcodec.MergeColumns(cols)
	if err != nil {
		return nil, fmt.Errorf("core: merging %d units: %w", len(cols), err)
	}
	return rdf.NewSortedGraph(terms, refs), nil
}

// decode is the eager merge's columns: the unit's bytes, decoded.
func (s *Store) decode(u *scanUnit) (*segcodec.Columns, error) {
	data, err := u.fetch(s)
	if err != nil {
		return nil, err
	}
	return u.columns(data)
}

// MergePruned merges the store with statistics pushdown: units whose stats
// prove no pattern of the pruner can match are never decoded (pack members
// on a range-capable backend are never even read). The merged graph is
// exactly the exhaustive merge restricted to triples the pruner's patterns
// could use — for a nil pruner it IS the exhaustive merge, which is how
// Merge routes here. Up to `workers` goroutines decode in parallel; the
// result is the same graph at any worker count. The graph is sorted
// (sortedUnion), so it holds no membership table or dictionary slots,
// which readers never use; a caller that writes to it pays one build of
// each. A union past the graph's uint32 limits fails with rdf.ErrGraphFull.
func (s *Store) MergePruned(pr *SegmentPruner, workers int) (*rdf.Graph, *ScanStats, error) {
	l, err := s.listUnits()
	if err != nil {
		return nil, nil, err
	}
	st := l.newScanStats()
	var keep []*scanUnit
	keep, st.PacksSkipped = admit(l.units, pr)
	g, err := mergeUnits(keep, workers, s.decode)
	if err != nil {
		return nil, nil, err
	}
	st.markDecoded(keep)
	return g, st, nil
}
