package core

import (
	"sync"

	"github.com/hpc-io/prov-io/internal/rdf"
)

// The decoded-unit cache is the memory governor of the out-of-core read path
// (DESIGN.md "Out-of-core execution"): a LazyView materializes store units —
// loose segments and pack members — into decoded, query-ready snapshots on
// demand, and this cache bounds how many of them stay resident at once.
//
// Keying: a unit is identified by (path, member, extent, content digest).
// The digest binds a cache entry to the exact bytes the view saw when it was
// opened, so a Compact that rewrites a canonical file in place — the one
// store operation that reuses a file name for new content — can never be
// served from a stale entry: the re-fetch digest check fails first and the
// view reports ErrStaleView instead.
//
// Eviction is CLOCK (second-chance): every hit sets the slot's reference
// bit, and the hand sweeps the ring clearing bits until it finds an unset
// one to evict. This approximates LRU with O(1) hits and no per-access list
// surgery, which matters because every morsel of a parallel scan touches the
// cache concurrently.

// CacheConfig bounds a LazyView's decoded-unit cache.
type CacheConfig struct {
	// MaxBytes is the decoded-footprint budget; <= 0 means unbounded.
	MaxBytes int64
}

// CacheStats is a point-in-time report of a LazyView's cache counters.
type CacheStats struct {
	Hits          uint64 `json:"hits"`
	Misses        uint64 `json:"misses"`
	Evictions     uint64 `json:"evictions"`
	ResidentUnits int    `json:"resident_units"`
	ResidentBytes int64  `json:"resident_bytes"`
	PeakBytes     int64  `json:"peak_bytes"`
	BudgetBytes   int64  `json:"budget_bytes"`
}

// unitKey identifies one decodable unit pinned to its open-time content.
type unitKey struct {
	path      string
	member    string // "" for a loose file
	off, size int64
	digest    [32]byte
}

// decodedUnit is one store unit materialized for querying: its private
// snapshot, in the unit's own dense local term-ID space, and the footprint
// the budget charges for it. It holds no global IDs: each LazySource bridges
// the local IDs into its own dictionary (LazySource.toGlobal), so nothing a
// query interns outlives the query or escapes the budget.
type decodedUnit struct {
	snap  *rdf.Snapshot
	bytes int64 // decoded-footprint estimate the budget charges
}

// cacheSlot is one resident cache entry plus its CLOCK reference bit.
type cacheSlot struct {
	key unitKey
	val *decodedUnit
	ref bool
}

// cacheFlight coalesces concurrent loads of one unit: the first caller
// decodes, everyone else blocks on done and shares the result.
type cacheFlight struct {
	done chan struct{}
	val  *decodedUnit
	err  error
}

// segCache is the byte-budgeted decoded-unit cache of one LazyView.
type segCache struct {
	budget int64 // <= 0: unbounded

	mu       sync.Mutex
	slots    map[unitKey]*cacheSlot
	ring     []*cacheSlot // CLOCK ring, hand sweeps it
	hand     int
	flights  map[unitKey]*cacheFlight
	resident int64

	hits, misses, evictions uint64
	peak                    int64
}

func newSegCache(budget int64) *segCache {
	return &segCache{
		budget:  budget,
		slots:   make(map[unitKey]*cacheSlot),
		flights: make(map[unitKey]*cacheFlight),
	}
}

// get returns the decoded unit under k, loading it via load on a miss.
// Concurrent misses of the same key share one load (joiners count as hits:
// they paid no decode). A unit larger than the whole budget is returned but
// never inserted, so the resident-bytes invariant holds unconditionally.
func (c *segCache) get(k unitKey, load func() (*decodedUnit, error)) (*decodedUnit, error) {
	c.mu.Lock()
	if s, ok := c.slots[k]; ok {
		s.ref = true
		c.hits++
		v := s.val
		c.mu.Unlock()
		return v, nil
	}
	if f, ok := c.flights[k]; ok {
		c.hits++
		c.mu.Unlock()
		<-f.done
		return f.val, f.err
	}
	f := &cacheFlight{done: make(chan struct{})}
	c.flights[k] = f
	c.misses++
	c.mu.Unlock()

	f.val, f.err = load()

	c.mu.Lock()
	delete(c.flights, k)
	if f.err == nil {
		c.insertLocked(k, f.val)
	}
	c.mu.Unlock()
	close(f.done)
	return f.val, f.err
}

// insertLocked admits v under k, evicting with the CLOCK hand until it fits.
// Caller holds c.mu.
func (c *segCache) insertLocked(k unitKey, v *decodedUnit) {
	if _, ok := c.slots[k]; ok {
		return // raced in while we loaded outside a flight (defensive)
	}
	if c.budget > 0 && v.bytes > c.budget {
		return // oversized: serve transiently, never resident
	}
	for c.budget > 0 && c.resident+v.bytes > c.budget && len(c.ring) > 0 {
		s := c.ring[c.hand]
		if s.ref {
			s.ref = false
			c.hand = (c.hand + 1) % len(c.ring)
			continue
		}
		delete(c.slots, s.key)
		c.resident -= s.val.bytes
		c.evictions++
		c.ring = append(c.ring[:c.hand], c.ring[c.hand+1:]...)
		if len(c.ring) > 0 {
			c.hand %= len(c.ring)
		} else {
			c.hand = 0
		}
	}
	slot := &cacheSlot{key: k, val: v, ref: true}
	c.slots[k] = slot
	c.ring = append(c.ring, slot)
	c.resident += v.bytes
	if c.resident > c.peak {
		c.peak = c.resident
	}
}

// stats returns a point-in-time counter snapshot.
func (c *segCache) stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:          c.hits,
		Misses:        c.misses,
		Evictions:     c.evictions,
		ResidentUnits: len(c.slots),
		ResidentBytes: c.resident,
		PeakBytes:     c.peak,
		BudgetBytes:   c.budget,
	}
}

// forEachResident visits every resident entry with its charged bytes.
func (c *segCache) forEachResident(fn func(k unitKey, bytes int64)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for k, s := range c.slots {
		fn(k, s.val.bytes)
	}
}

// decodedBytesEstimate charges a decoded unit for what it pins: the
// snapshot's term table (string headers + bytes) and triple refs, plus 8 +
// 32 B a term that stand in for remap tables. The per-triple charge is
// deliberately on the heavy side: 64 B where the refs (12 B) and the index a
// scan builds lazily (two 4 B log positions, flat and osp: a unit is built
// sorted, so its refs ascend in S and it keeps no spo; its offset tables
// are 8 B per term, not per triple) come to 20 B, and a unit has no
// membership table. It stays at 64 because budgets are sized in these
// units: a store that fitted a budget of B still does, and true resident
// memory stays near B rather than a multiple. The per-term charge
// over-approximates the same way and for the same reason: 48 B + the string
// bytes was a Term-sized table entry, where a unit's dictionary now keeps a
// 12 B entry, its value bytes on pages cut from one exactly sized block, no
// hashed ID slots, and one copy of each distinct (Lang, Datatype) pair. The
// remap charge stays although the remap tables live on each LazySource,
// outside the cache, for the same reason: a budget keeps admitting the units
// it admitted. Making the estimate match what a unit pins is ROADMAP.md
// item 12(d), budget honesty.
func decodedBytesEstimate(snap *rdf.Snapshot) int64 {
	var b int64
	n := snap.TermCount()
	for i := 0; i < n; i++ {
		t := snap.TermOf(rdf.ID(i))
		b += 48 + int64(len(t.Value)+len(t.Lang)+len(t.Datatype))
	}
	b += int64(snap.Len()) * 64 // refs + lazily built index, rounded up
	b += int64(n) * (8 + 32)    // remap tables, charged though a source keeps them
	return b
}
