package backend

import (
	"errors"
	"fmt"
	"io/fs"
	"sort"
	"strings"
)

// Mount overlays several tiers into one logical store namespace, routing by
// path so hot deltas and compacted history can live on different substrates
// (HyProv's hot-online/queryable-history split). Writes route
// deterministically — delta segments to the first hot tier, everything else
// (canonical sub-graphs, merged output) to the first cold tier — while
// reads, stats, and removes fall back across every tier, so a mount opened
// over pre-existing data finds files wherever they physically are. List is
// the union of all tiers.
//
// A successful routed write removes stale same-name copies from the other
// tiers, and Misplaced reports files living outside their routed tier; the
// two together make Store.Compact double as cross-backend migration: mount
// the old substrate as one tier and the new as the other, Compact, and the
// rewritten history lands — and stays — on the new tier.
type Mount struct {
	root  string // logical store root each tier's Root substitutes for
	tiers []Tier
}

// Tier is one mounted substrate.
type Tier struct {
	Name string
	Hot  bool // receives delta-segment writes; cold tiers get the rest
	B    Storage
	// Root is the tier-local path prefix replacing the mount's logical
	// root: logical root + "/x" maps to Root + "/x" inside B.
	Root string
}

// NewMount builds a mount over the logical root. At least one hot and one
// cold tier are required, so every write has a routed home.
func NewMount(root string, tiers ...Tier) (*Mount, error) {
	root = strings.TrimSuffix(root, "/")
	hot, cold := false, false
	for _, t := range tiers {
		if t.Hot {
			hot = true
		} else {
			cold = true
		}
	}
	if !hot || !cold {
		return nil, errors.New("backend: a mount needs at least one hot and one cold tier")
	}
	m := &Mount{root: root, tiers: make([]Tier, len(tiers))}
	copy(m.tiers, tiers)
	for i := range m.tiers {
		m.tiers[i].Root = strings.TrimSuffix(m.tiers[i].Root, "/")
	}
	return m, nil
}

// rewrite maps a logical path into tier t's namespace.
func (m *Mount) rewrite(t Tier, path string) string {
	if rest, ok := strings.CutPrefix(path, m.root); ok && (rest == "" || strings.HasPrefix(rest, "/")) {
		return t.Root + rest
	}
	return path
}

// isSegmentName reports whether a store file name is a delta segment — the
// hot-routed file class. The ".seg" infix is the store's segment naming
// convention (prov_pNNNNNN.segNNNN.pbs).
func isSegmentName(name string) bool { return strings.Contains(name, ".seg") }

// route picks the tier a path's writes belong to.
func (m *Mount) route(path string) Tier {
	base := path
	if i := strings.LastIndex(path, "/"); i >= 0 {
		base = path[i+1:]
	}
	hot := isSegmentName(base)
	for _, t := range m.tiers {
		if t.Hot == hot {
			return t
		}
	}
	return m.tiers[0] // unreachable: NewMount guarantees both classes
}

// ordered returns every tier, the routed one first.
func (m *Mount) ordered(path string) []Tier {
	routed := m.route(path)
	out := make([]Tier, 0, len(m.tiers))
	out = append(out, routed)
	for _, t := range m.tiers {
		if t != routed {
			out = append(out, t)
		}
	}
	return out
}

// MkdirAll implements Storage: the directory exists on every tier.
func (m *Mount) MkdirAll(dir string) error {
	for _, t := range m.tiers {
		if err := t.B.MkdirAll(m.rewrite(t, dir)); err != nil {
			return err
		}
	}
	return nil
}

// WriteFile implements Storage: the routed tier takes the write, then stale
// same-name copies on the other tiers are removed, so a file that migrates
// between tiers (a canonical rewrite during cross-backend Compact) never
// shadows its successor.
func (m *Mount) WriteFile(path string, data []byte) error {
	tiers := m.ordered(path)
	if err := tiers[0].B.WriteFile(m.rewrite(tiers[0], path), data); err != nil {
		return err
	}
	for _, t := range tiers[1:] {
		p := m.rewrite(t, path)
		if _, err := t.B.Stat(p); err == nil {
			if err := t.B.Remove(p); err != nil {
				return err
			}
		}
	}
	return nil
}

// ReadFile implements Storage, falling back across tiers.
func (m *Mount) ReadFile(path string) ([]byte, error) {
	var firstErr error
	for _, t := range m.ordered(path) {
		data, err := t.B.ReadFile(m.rewrite(t, path))
		if err == nil {
			return data, nil
		}
		if firstErr == nil || errors.Is(firstErr, fs.ErrNotExist) {
			firstErr = err
		}
	}
	return nil, firstErr
}

// ReadFileRange implements RangeReader, falling back across tiers like
// ReadFile. A tier whose backend lacks the capability serves the range via a
// whole-file read, so the mount's answer never depends on tier composition.
func (m *Mount) ReadFileRange(path string, off, n int64) ([]byte, error) {
	var firstErr error
	for _, t := range m.ordered(path) {
		p := m.rewrite(t, path)
		var data []byte
		var err error
		if rr, ok := t.B.(RangeReader); ok {
			data, err = rr.ReadFileRange(p, off, n)
		} else {
			data, err = t.B.ReadFile(p)
			if err == nil {
				o, c := clampRange(int64(len(data)), off, n)
				data = data[o : o+c]
			}
		}
		if err == nil {
			return data, nil
		}
		if firstErr == nil || errors.Is(firstErr, fs.ErrNotExist) {
			firstErr = err
		}
	}
	return nil, firstErr
}

// Stat implements Storage, falling back across tiers.
func (m *Mount) Stat(path string) (int64, error) {
	var firstErr error
	for _, t := range m.ordered(path) {
		n, err := t.B.Stat(m.rewrite(t, path))
		if err == nil {
			return n, nil
		}
		if firstErr == nil || errors.Is(firstErr, fs.ErrNotExist) {
			firstErr = err
		}
	}
	return 0, firstErr
}

// List implements Storage: the union of every tier's listing. A tier that
// never saw the directory contributes nothing; the directory is missing only
// if no tier has it.
func (m *Mount) List(dir string) ([]string, error) {
	seen := make(map[string]bool)
	found := false
	var firstErr error
	for _, t := range m.tiers {
		names, err := t.B.List(m.rewrite(t, dir))
		if err != nil {
			if !errors.Is(err, fs.ErrNotExist) && firstErr == nil {
				firstErr = err
			}
			continue
		}
		found = true
		for _, n := range names {
			seen[n] = true
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	if !found {
		return nil, notExist("list", dir)
	}
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out, nil
}

// Remove implements Storage: the file is removed from every tier holding a
// copy (stale duplicates included).
func (m *Mount) Remove(path string) error {
	removed := false
	var firstErr error
	for _, t := range m.ordered(path) {
		p := m.rewrite(t, path)
		err := t.B.Remove(p)
		switch {
		case err == nil:
			removed = true
		case !errors.Is(err, fs.ErrNotExist) && firstErr == nil:
			firstErr = err
		}
	}
	if firstErr != nil {
		return firstErr
	}
	if !removed {
		return notExist("remove", path)
	}
	return nil
}

// Caps implements Storage: the conjunction of the tiers' guarantees —
// the mount is only as atomic or as durable as its weakest tier.
func (m *Mount) Caps() uint32 {
	caps := CapAtomicWrite | CapPersistent
	for _, t := range m.tiers {
		caps &= t.B.Caps()
	}
	return caps
}

// Vacuum forwards to every tier whose backend can reclaim superseded
// container space (the single-file archive's journal); tiers without the
// method are left alone.
func (m *Mount) Vacuum() error {
	for _, t := range m.tiers {
		if v, ok := any(t.B).(interface{ Vacuum() error }); ok {
			if err := v.Vacuum(); err != nil {
				return fmt.Errorf("backend: vacuum tier %s: %w", t.Name, err)
			}
		}
	}
	return nil
}

// Misplaced reports whether a present file lives outside its routed tier —
// the signal Store.Compact uses to treat an otherwise-clean process as
// migration work (rewrite it so the routed tier becomes its home).
func (m *Mount) Misplaced(path string) bool {
	tiers := m.ordered(path)
	if _, err := tiers[0].B.Stat(m.rewrite(tiers[0], path)); err == nil {
		return false
	}
	for _, t := range tiers[1:] {
		if _, err := t.B.Stat(m.rewrite(t, path)); err == nil {
			return true
		}
	}
	return false
}
