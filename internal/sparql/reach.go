package sparql

import (
	"slices"

	"github.com/hpc-io/prov-io/internal/rdf"
)

// Dir selects the edges a Reach walk follows out of a node.
type Dir uint8

const (
	Out  Dir = 1 << iota // the node as subject: step to the object
	In                   // the node as object: step to the subject
	Both = Out | In
)

// Reached is a node a Reach walk entered, with its hop distance from the
// nearest root (roots are depth 0).
type Reached struct {
	ID    rdf.ID
	Depth int
}

// Reach is the one lineage walk: a breadth-first search in ID space over
// any Source — a pinned *rdf.Snapshot or core's out-of-core LazySource —
// that follows every edge whose predicate is in preds (a handful of IDs,
// checked by a linear scan), in the directions dir names, at most maxHops
// edges from the roots (maxHops <= 0 is unbounded). It returns each node it
// entered exactly once, in discovery order, with its depth.
//
// Roots are entered as given (rdf.NoID is skipped, a repeat counts once);
// every other node is entered only if it is an IRI or a blank node. A
// literal is never stepped into, so a literal on a relation predicate
// neither joins the result nor links the nodes that share it.
//
// Each entered node costs one ForEachMatchIDs probe per direction with only
// that node bound; the predicate filter runs on the emitted IDs. Over a
// LazySource a probe decodes only the units whose statistics can hold the
// node in that position.
func Reach(src Source, roots []rdf.ID, preds []rdf.ID, dir Dir, maxHops int) []Reached {
	seen := make(map[rdf.ID]bool, len(roots))
	var out []Reached // also the FIFO queue: out[i:] is the frontier
	for _, r := range roots {
		if r != rdf.NoID && !seen[r] {
			seen[r] = true
			out = append(out, Reached{ID: r})
		}
	}
	for i := 0; i < len(out); i++ {
		cur := out[i]
		if maxHops > 0 && cur.Depth >= maxHops {
			break // discovery order is depth order: the rest are as deep
		}
		step := func(next rdf.ID) {
			if seen[next] {
				return
			}
			seen[next] = true // a literal is remembered too, never re-examined
			if t := src.TermOf(next); t.IsIRI() || t.IsBlank() {
				out = append(out, Reached{ID: next, Depth: cur.Depth + 1})
			}
		}
		if dir&Out != 0 {
			src.ForEachMatchIDs(cur.ID, rdf.NoID, rdf.NoID, func(_, p, o rdf.ID) bool {
				if slices.Contains(preds, p) {
					step(o)
				}
				return true
			})
		}
		if dir&In != 0 {
			src.ForEachMatchIDs(rdf.NoID, rdf.NoID, cur.ID, func(s, p, _ rdf.ID) bool {
				if slices.Contains(preds, p) {
					step(s)
				}
				return true
			})
		}
	}
	return out
}
