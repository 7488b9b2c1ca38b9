package core

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"github.com/hpc-io/prov-io/internal/par"
	"github.com/hpc-io/prov-io/internal/rdf"
)

// Out-of-core read path (DESIGN.md "Out-of-core execution"): a LazyView is a
// long-lived handle on the store's layout at open time that materializes
// decoded units on demand through the byte-budgeted cache in segcache.go,
// and LazySource federates the per-unit snapshots behind the sparql.Source
// surface — so the unchanged query engine runs over a store whose resident
// decoded set is bounded by the cache budget, with statistics pushdown
// deciding which units are touched at all and the cache deciding which of
// the touched ones stay decoded.
//
// ID bridging: every unit decodes into its own graph with a private, dense
// local term-ID space. At decode time the unit's terms are interned into the
// view's shared dictionary (rdf.SharedDict, append-only), producing a
// local->global slice and a global->local map. Scans emit global IDs, query
// constants resolve to global IDs, and joins across units just work — the
// executor never learns the store is not one graph. Because interning
// identical bytes against an append-only dictionary is deterministic, an
// evicted unit that reloads resumes serving exactly the same global IDs.

// ErrStaleView is the classification for a lazy read that found the store
// layout changed under an open view — a Compact rewrote a canonical file, a
// PackSegments replaced the packs, or a file vanished. A view that observes
// it is permanently stale: reopen the store with OpenLazy for the new
// layout. Reads that race such maintenance either see the old consistent
// layout (served from cache and digest-verified re-reads) or fail with an
// error matching this sentinel — never a partial mixture of generations.
var ErrStaleView = errors.New("core: store layout changed under lazy view")

// lazyState is what an open view adds to each scanUnit: the content key the
// unit was pinned under at open time, and its decoded-footprint estimate
// (recorded on first decode, for LevelResidency). Nothing a query asks is
// kept here: a probe's state lives on its LazySource.
type lazyState struct {
	key unitKey

	mu       sync.Mutex
	decBytes int64 // decoded-footprint estimate, recorded on first decode
}

// LazyView is the out-of-core read handle returned by Store.OpenLazy: the
// store's unit layout pinned at open time, a shared interning dictionary,
// and the bounded decoded-unit cache. Views are safe for concurrent use; a
// staleness or corruption error observed by any read sticks (Err) and fails
// the queries that raced it.
type LazyView struct {
	store  *Store
	dict   *rdf.SharedDict
	cache  *segCache
	layout *unitList // the listing pinned at open; units carry lazyState

	errMu sync.Mutex
	err   error
}

// OpenLazy pins the store's current layout into a LazyView without decoding
// anything: the same listing an eager merge starts from, with each unit's
// content key recorded and its bytes dropped. Loose files are therefore
// read once (to digest them); packs contribute only their headers, fetched
// once each via range reads on capable backends. The returned view serves
// queries and lineage (ReduceLineagePruned) through Source, with at most
// cfg.MaxBytes of decoded units resident.
func (s *Store) OpenLazy(cfg CacheConfig) (*LazyView, error) {
	l, err := s.listUnits()
	if err != nil {
		return nil, err
	}
	for _, u := range l.units {
		u.lazy = &lazyState{}
		if u.member == "" {
			u.lazy.key = unitKey{path: u.path, size: u.size, digest: fileDigest(u.data)}
		} else {
			u.lazy.key = memberKey(u.path, u.member, u.off, u.size, u.packSize)
		}
		u.data = nil // the cache re-fetches on demand; the view pins no bytes
	}
	return &LazyView{store: s, dict: rdf.NewSharedDict(), cache: newSegCache(cfg.MaxBytes), layout: l}, nil
}

// memberKey derives a pack member's cache key. Packs are written once and
// never rewritten in place, so (path, container size, member extent) pins
// the member; a pack replaced by a different-size file fails the open-time
// size check on fetch, and a same-size replacement is caught by the
// member's own CRC framing at decode (see DESIGN.md for the residual
// name-reuse hazard).
func memberKey(path, member string, off, size, packSize int64) unitKey {
	h := sha256.New()
	h.Write([]byte("pack\x00"))
	h.Write([]byte(path))
	h.Write([]byte{0})
	h.Write([]byte(member))
	var buf [24]byte
	binary.LittleEndian.PutUint64(buf[0:], uint64(off))
	binary.LittleEndian.PutUint64(buf[8:], uint64(size))
	binary.LittleEndian.PutUint64(buf[16:], uint64(packSize))
	h.Write(buf[:])
	k := unitKey{path: path, member: member, off: off, size: size}
	h.Sum(k.digest[:0])
	return k
}

// Err returns the first staleness/corruption error any read of the view
// observed, or nil. Source scans cannot return errors through the
// sparql.Source surface, so wrappers must check Err after evaluating and
// discard results when it is set.
func (v *LazyView) Err() error {
	v.errMu.Lock()
	defer v.errMu.Unlock()
	return v.err
}

func (v *LazyView) fail(err error) {
	v.errMu.Lock()
	if v.err == nil {
		v.err = err
	}
	v.errMu.Unlock()
}

// Stats returns the view's cache counters.
func (v *LazyView) Stats() CacheStats { return v.cache.stats() }

// loadUnit returns u decoded, serving from the cache when resident.
func (v *LazyView) loadUnit(u *scanUnit) (*decodedUnit, error) {
	return v.cache.get(u.lazy.key, func() (*decodedUnit, error) {
		data, err := v.fetchVerified(u)
		if err != nil {
			return nil, err
		}
		g := rdf.NewGraph()
		if err := u.decodeBytes(data, g); err != nil {
			return nil, err
		}
		snap := g.Snapshot()
		toGlobal, toLocal := v.dict.RemapSnapshot(snap)
		du := &decodedUnit{snap: snap, toGlobal: toGlobal, toLocal: toLocal}
		du.bytes = decodedBytesEstimate(snap, len(toLocal))
		u.lazy.mu.Lock()
		if u.lazy.decBytes == 0 {
			u.lazy.decBytes = du.bytes
		}
		u.lazy.mu.Unlock()
		return du, nil
	})
}

// fetchVerified re-reads the unit's bytes and proves they are the bytes the
// view was opened over: loose files must digest-match (Compact rewrites
// canonicals in place), pack containers must still have their open-time
// size (packs are write-once; a different size means replacement). A
// mismatch or a vanished file classifies as ErrStaleView.
func (v *LazyView) fetchVerified(u *scanUnit) ([]byte, error) {
	if u.member != "" {
		size, err := v.store.backend.Stat(u.path)
		if err != nil {
			return nil, staleIfGone(u.path, err)
		}
		if size != u.packSize {
			return nil, fmt.Errorf("core: pack %s is %d bytes, was %d at open: %w", u.path, size, u.packSize, ErrStaleView)
		}
	}
	data, err := u.fetch(v.store)
	if err != nil {
		return nil, err
	}
	if u.member == "" && fileDigest(data) != u.lazy.key.digest {
		return nil, fmt.Errorf("core: %s rewritten under lazy view: %w", u.path, ErrStaleView)
	}
	return data, nil
}

// LazySource federates the view's per-unit snapshots behind the
// sparql.Source / sparql.ScanSource surface for one query: the admitted
// unit list is fixed at construction by the same statistics predicate
// MergePruned uses, so a lazy query touches exactly the units the eager
// pruned merge would decode.
//
// The morsel domain of a pattern is the concatenation of the admitted
// units' local domains, in unit order. Each domain item is owned by the
// first admitted unit containing its triple: later units suppress
// duplicates (an item whose triple an earlier unit also holds emits
// nothing), which makes the federation's emitted triple set exactly the
// eager merged graph's — graph union deduplicates — while every ScanRange
// partition of the domain remains exact and deterministic.
//
// A probe (ForEachMatchIDs) streams the admitted units and keeps nothing
// after it returns. Only a root scan's domain outlives its call: the first
// ScanLen of a pattern records it (domains), and the ScanRange morsels that
// follow walk that record, so the domain cannot move for the source's
// lifetime even if a unit is evicted and decoded again in between.
type LazySource struct {
	view         *LazyView
	units        []*scanUnit
	packsSkipped int // packs dropped whole at their header stats

	decMu   sync.Mutex
	decoded map[*scanUnit]bool // units this source decoded (ScanStats)

	domMu   sync.Mutex
	domains map[[3]rdf.ID][]domainRun // root patterns asked through ScanLen
}

// domainRun is one admitted unit's slice of a root pattern's morsel domain:
// items [start, start+n) of the federated domain are the unit's local run
// for the pattern. A domain lists only units whose run is non-empty, in
// unit order.
type domainRun struct {
	k        int       // index into the source's admitted units
	local    [3]rdf.ID // the pattern in the unit's local ID space
	start, n int
}

// Source returns a query source over the view admitting exactly the units
// whose statistics the pruner cannot rule out (nil admits everything) —
// through admit, the same predicate MergePruned applies.
func (v *LazyView) Source(pr *SegmentPruner) *LazySource {
	ls := &LazySource{view: v, decoded: make(map[*scanUnit]bool), domains: make(map[[3]rdf.ID][]domainRun)}
	ls.units, ls.packsSkipped = admit(v.layout.units, pr)
	return ls
}

// Err returns the view's sticky error (see LazyView.Err).
func (ls *LazySource) Err() error { return ls.view.Err() }

// Admitted reports how many of the view's units the pruner admitted into
// this source — the units a query can touch at all (tooling/plan output).
func (ls *LazySource) Admitted() int { return len(ls.units) }

// load decodes lu through the view's cache, tracking it for scan stats.
func (ls *LazySource) load(lu *scanUnit) (*decodedUnit, error) {
	du, err := ls.view.loadUnit(lu)
	if err != nil {
		return nil, err
	}
	ls.decMu.Lock()
	ls.decoded[lu] = true
	ls.decMu.Unlock()
	return du, nil
}

// termPtr rehydrates a bound pattern ID for the stats matchers; NoID is nil
// (wildcard).
func (ls *LazySource) termPtr(id rdf.ID) *rdf.Term {
	if id == rdf.NoID {
		return nil
	}
	t := ls.view.dict.TermAt(id)
	return &t
}

// localPattern translates a pattern of global IDs into the unit's local ID
// space (NoID stays the wildcard); ok is false when a bound global is a term
// the unit never interned, so the pattern matches nothing in it.
func (du *decodedUnit) localPattern(s, p, o rdf.ID) (ls, lp, lo rdf.ID, ok bool) {
	local := [3]rdf.ID{s, p, o}
	for i, g := range local {
		if g == rdf.NoID {
			continue
		}
		if local[i], ok = du.toLocal[g]; !ok {
			return 0, 0, 0, false
		}
	}
	return local[0], local[1], local[2], true
}

// unitRuns calls fn, in unit order, for each admitted unit whose statistics
// admit the pattern and whose decode interns every bound term, with the
// decode and the pattern in its local ID space; fn returning false stops
// the walk. Units the statistics rule out are never decoded — the per-unit
// half of statistics pushdown. A failed load fails the view and ends the
// walk (results are discarded once the view is failed).
func (ls *LazySource) unitRuns(s, p, o rdf.ID, fn func(k int, du *decodedUnit, local [3]rdf.ID) bool) {
	sp, pp, op := ls.termPtr(s), ls.termPtr(p), ls.termPtr(o)
	for k, lu := range ls.units {
		if !lu.stats.CanMatch(sp, pp, op) {
			continue
		}
		du, err := ls.load(lu)
		if err != nil {
			ls.view.fail(err)
			return
		}
		lsid, lpid, loid, ok := du.localPattern(s, p, o)
		if ok && !fn(k, du, [3]rdf.ID{lsid, lpid, loid}) {
			return
		}
	}
}

// emitOwned adapts fn to unit k's local scan: local IDs are translated to
// global, and an item whose triple an earlier admitted unit also holds
// emits nothing.
func (ls *LazySource) emitOwned(k int, du *decodedUnit, fn func(s, p, o rdf.ID) bool) func(s, p, o rdf.ID) bool {
	return func(a, b, c rdf.ID) bool {
		gs, gp, gob := du.toGlobal[a], du.toGlobal[b], du.toGlobal[c]
		if ls.ownedByEarlier(k, gs, gp, gob) {
			return true
		}
		return fn(gs, gp, gob)
	}
}

// domain returns the root pattern's morsel domain, recording it on first
// use so that every later ScanLen and ScanRange of the pattern on this
// source sees the same one.
func (ls *LazySource) domain(s, p, o rdf.ID) []domainRun {
	key := [3]rdf.ID{s, p, o}
	ls.domMu.Lock()
	defer ls.domMu.Unlock()
	if d, ok := ls.domains[key]; ok {
		return d
	}
	var d []domainRun
	pos := 0
	ls.unitRuns(s, p, o, func(k int, du *decodedUnit, l [3]rdf.ID) bool {
		if n := du.snap.ScanLen(l[0], l[1], l[2]); n > 0 {
			d = append(d, domainRun{k: k, local: l, start: pos, n: n})
			pos += n
		}
		return true
	})
	ls.domains[key] = d
	return d
}

// ownedByEarlier reports whether an admitted unit before index k also holds
// the triple — in which case unit k's domain item is a duplicate and emits
// nothing. The check is deterministic (it depends only on the fixed unit
// list and their immutable contents), which keeps the ScanRange
// concatenation contract intact under any morsel partitioning.
func (ls *LazySource) ownedByEarlier(k int, gs, gp, go_ rdf.ID) bool {
	if k == 0 {
		return false
	}
	ts, tp, to := ls.view.dict.TermAt(gs), ls.view.dict.TermAt(gp), ls.view.dict.TermAt(go_)
	for _, uj := range ls.units[:k] {
		if !uj.stats.CanMatch(&ts, &tp, &to) {
			continue
		}
		du, err := ls.load(uj)
		if err != nil {
			ls.view.fail(err)
			return true // results are discarded once the view is failed
		}
		lsid, lpid, loid, ok := du.localPattern(gs, gp, go_)
		if ok && du.snap.CountMatchIDs(lsid, lpid, loid) > 0 {
			return true
		}
	}
	return false
}

// ---- sparql.Source / sparql.ScanSource (structural) ----

// TermID resolves t to its global ID. A term already in the view's shared
// dictionary keeps its ID; any other term is interned only when some
// admitted unit's statistics admit it in some position. A term no admitted
// unit can hold answers (0, false), as rdf.Snapshot.TermID does for an
// absent term, so the planner compiles it into a dead constant and the
// dictionary, which lives as long as the view, never holds it.
func (ls *LazySource) TermID(t rdf.Term) (rdf.ID, bool) {
	if id, ok := ls.view.dict.Lookup(t); ok {
		return id, true
	}
	for _, lu := range ls.units {
		if lu.stats.CanMatch(&t, nil, nil) || lu.stats.CanMatch(nil, &t, nil) || lu.stats.CanMatch(nil, nil, &t) {
			return ls.view.dict.Intern(t), true
		}
	}
	return 0, false
}

// TermOf rehydrates a global dictionary ID.
func (ls *LazySource) TermOf(id rdf.ID) rdf.Term { return ls.view.dict.TermAt(id) }

// ScanLen returns the federated morsel-domain size of a root pattern: the
// sum of the admitted units' local runs. The first call for a pattern
// decodes the units its statistics admit and records the domain on the
// source; ScanRange walks that record.
func (ls *LazySource) ScanLen(s, p, o rdf.ID) int {
	d := ls.domain(s, p, o)
	if len(d) == 0 {
		return 0
	}
	last := d[len(d)-1]
	return last.start + last.n
}

// ScanRange enumerates [lo, hi) of the federated domain: the recorded unit
// runs overlapping the window in unit order, local IDs translated to global
// on emit, duplicate items suppressed by ownership. Concatenating adjacent
// ranges reproduces the full scan exactly.
func (ls *LazySource) ScanRange(s, p, o rdf.ID, lo, hi int, fn func(s, p, o rdf.ID) bool) bool {
	if ls.view.Err() != nil {
		return true
	}
	d := ls.domain(s, p, o)
	for i := sort.Search(len(d), func(i int) bool { return d[i].start+d[i].n > lo }); i < len(d) && d[i].start < hi; i++ {
		r := d[i]
		du, err := ls.load(ls.units[r.k])
		if err != nil {
			ls.view.fail(err)
			return true
		}
		ulo, uhi := max(lo-r.start, 0), min(hi-r.start, r.n)
		if !du.snap.ScanRange(r.local[0], r.local[1], r.local[2], ulo, uhi, ls.emitOwned(r.k, du, fn)) {
			return false
		}
	}
	return true
}

// ForEachMatchIDs streams every distinct matching triple of the federation
// in global ID space, unit by unit: the order of ScanRange over the whole
// domain, but with one cache touch per admitted unit and nothing recorded.
func (ls *LazySource) ForEachMatchIDs(s, p, o rdf.ID, fn func(s, p, o rdf.ID) bool) {
	if ls.view.Err() != nil {
		return
	}
	ls.unitRuns(s, p, o, func(k int, du *decodedUnit, l [3]rdf.ID) bool {
		return du.snap.ScanRange(l[0], l[1], l[2], 0, math.MaxInt, ls.emitOwned(k, du, fn))
	})
}

// CountMatchIDs is the planner's cardinality oracle. For a lazy source it
// is a decode-free estimate from unit statistics (duplicates across units
// over-count): planning must not page units in, and the plan's correctness
// never depends on estimate precision — only join order does. Execution
// (ScanLen/ScanRange/ForEachMatchIDs) stays exact.
func (ls *LazySource) CountMatchIDs(s, p, o rdf.ID) int {
	sp, pp, op := ls.termPtr(s), ls.termPtr(p), ls.termPtr(o)
	n := 0
	for _, lu := range ls.units {
		if lu.stats.CanMatch(sp, pp, op) {
			n += int(lu.stats.Triples)
		}
	}
	return n
}

// PredStats estimates a predicate's cardinalities from unit statistics.
func (ls *LazySource) PredStats(p rdf.ID) (triples, subjects, objects int) {
	t := ls.CountMatchIDs(rdf.NoID, p, rdf.NoID)
	return t, t, t
}

// IndexStats estimates the federation's distinct term counts from unit
// statistics (planner divisors only).
func (ls *LazySource) IndexStats() (subjects, predicates, objects int) {
	n := 0
	for _, lu := range ls.units {
		n += int(lu.stats.Terms)
	}
	if n == 0 {
		n = 1
	}
	return n, n, n
}

// Len estimates the federation's triple count (planner input only).
func (ls *LazySource) Len() int {
	return ls.CountMatchIDs(rdf.NoID, rdf.NoID, rdf.NoID)
}

// Stats reports what this source's scans touched, in MergePruned's terms —
// Units counts every unit of the view, Decoded the ones this source paged
// in — with the view-wide cache counters folded in.
func (ls *LazySource) Stats() *ScanStats {
	st := ls.view.layout.newScanStats()
	ls.decMu.Lock()
	decoded := make([]*scanUnit, 0, len(ls.decoded))
	for lu := range ls.decoded {
		decoded = append(decoded, lu)
	}
	ls.decMu.Unlock()
	st.markDecoded(decoded)
	st.PacksSkipped = ls.packsSkipped
	ls.view.foldCacheStats(st)
	return st
}

// foldCacheStats copies the view's cache counters into st.
func (v *LazyView) foldCacheStats(st *ScanStats) {
	cs := v.cache.stats()
	st.CacheHits = cs.Hits
	st.CacheMisses = cs.Misses
	st.CacheEvictions = cs.Evictions
	st.CacheResidentBytes = cs.ResidentBytes
	st.CachePeakBytes = cs.PeakBytes
	st.CacheBudgetBytes = cs.BudgetBytes
}

// ---- whole-graph consumers over the cache ----

// hydrateInto is the lazy read path's leaf: decode u through the cache and
// union its triples into dst. Graph union deduplicates, so no ownership
// filtering is needed here.
func (v *LazyView) hydrateInto(u *scanUnit, dst *rdf.Graph) error {
	du, err := v.loadUnit(u)
	if err != nil {
		v.fail(err)
		return err
	}
	ts := make([]rdf.Triple, 0, du.snap.Len())
	du.snap.ScanRange(rdf.NoID, rdf.NoID, rdf.NoID, 0, du.snap.Len(), func(a, b, c rdf.ID) bool {
		ts = append(ts, rdf.Triple{S: du.snap.TermOf(a), P: du.snap.TermOf(b), O: du.snap.TermOf(c)})
		return true
	})
	dst.AddBatch(ts)
	return nil
}

// hydrateAll is the lazy counterpart of Store.decodeUnits over the same
// pool: every worker hydrates straight into dst — one AddBatch per unit, so
// private accumulators would only add a second insertion.
func (v *LazyView) hydrateAll(units []*scanUnit, workers int, dst *rdf.Graph) error {
	return par.ForEach(len(units), workers, func(_, i int) error { return v.hydrateInto(units[i], dst) })
}

// MaterializeGraph unions every unit of the view into one graph through the
// cache — the lazy counterpart of Merge for consumers that need the whole
// graph (provio-stats). Peak decoded-cache residency stays within the
// budget; the returned graph itself is of course O(store).
func (v *LazyView) MaterializeGraph(workers int) (*rdf.Graph, *ScanStats, error) {
	st := v.layout.newScanStats()
	g := rdf.NewGraph()
	if err := v.hydrateAll(v.layout.units, workers, g); err != nil {
		return nil, nil, err
	}
	st.markDecoded(v.layout.units)
	v.foldCacheStats(st)
	return g, st, nil
}

// ReduceLineagePruned is ReduceLineage over the view: the same reducer,
// run on Source(nil), so every probe of the walk and of the triple copy is
// a pattern with one node bound, and a unit whose statistics cannot hold
// that node in that position is never decoded. The result equals
// ReduceLineage(Merge(), roots, maxHops) exactly; a stale or corrupt read
// fails it with the view's sticky error. workers is unused: the walk is
// serial.
func (v *LazyView) ReduceLineagePruned(roots []rdf.Term, maxHops, workers int) (*rdf.Graph, *ScanStats, error) {
	src := v.Source(nil)
	g := reduceLineage(src, roots, maxHops)
	if err := v.Err(); err != nil {
		return nil, nil, err
	}
	return g, src.Stats(), nil
}

// LevelResidency is one level's slice of the view's sizing report: what the
// level holds on disk, how much of it has a known decoded footprint, and
// how much is resident in the cache right now. provio-stats renders it so
// users can pick a -cache-bytes budget from real decoded sizes.
type LevelResidency struct {
	Level         int   `json:"level"`
	Units         int   `json:"units"`
	ResidentUnits int   `json:"resident_units"`
	DiskBytes     int64 `json:"disk_bytes"`
	DecodedBytes  int64 `json:"decoded_bytes"` // sum over units decoded at least once
	ResidentBytes int64 `json:"resident_bytes"`
}

// LevelResidency reports the per-level disk/decoded/resident byte
// breakdown of the view.
func (v *LazyView) LevelResidency() []LevelResidency {
	byLevel := map[int]*LevelResidency{}
	at := func(l int) *LevelResidency {
		lr := byLevel[l]
		if lr == nil {
			lr = &LevelResidency{Level: l}
			byLevel[l] = lr
		}
		return lr
	}
	byKey := make(map[unitKey]*scanUnit, len(v.layout.units))
	for _, lu := range v.layout.units {
		lr := at(lu.level)
		lr.Units++
		lr.DiskBytes += lu.size
		lu.lazy.mu.Lock()
		lr.DecodedBytes += lu.lazy.decBytes
		lu.lazy.mu.Unlock()
		byKey[lu.lazy.key] = lu
	}
	v.cache.forEachResident(func(k unitKey, bytes int64) {
		if lu := byKey[k]; lu != nil {
			lr := at(lu.level)
			lr.ResidentUnits++
			lr.ResidentBytes += bytes
		}
	})
	out := make([]LevelResidency, 0, len(byLevel))
	for _, lr := range byLevel {
		out = append(out, *lr)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Level < out[j].Level })
	return out
}
