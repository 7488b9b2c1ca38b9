// Package stats computes I/O statistics from PROV-IO provenance graphs —
// the reusable form of the paper's H5bench use case (§3.3): operation
// counts per API, accumulated time per API for bottleneck analysis, and
// per-data-object access profiles, all derived by querying the provenance
// rather than instrumenting the application again.
package stats

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/hpc-io/prov-io/internal/model"
	"github.com/hpc-io/prov-io/internal/rdf"
)

// Summary holds the derived I/O statistics.
type Summary struct {
	// OpCounts maps API name (e.g. "H5Dwrite") to invocation count.
	OpCounts map[string]int
	// OpTotal maps API name to accumulated elapsed time (zero when the
	// provenance was collected without the duration switch).
	OpTotal map[string]time.Duration
	// ObjectAccess maps a data object's display name to its access profile.
	ObjectAccess map[string]*objectProfile
	// Activities is the total number of I/O API invocations.
	Activities int
	// HasDurations reports whether elapsed times were present.
	HasDurations bool
}

// objectProfile is one data object's access counts.
type objectProfile struct {
	Name    string
	Class   string // File, Dataset, Attribute, ...
	Created int
	Opened  int
	Reads   int
	Writes  int
	Flushes int
	Renames int
}

// total returns the profile's total op count.
func (p *objectProfile) total() int {
	return p.Created + p.Opened + p.Reads + p.Writes + p.Flushes + p.Renames
}

// Compute derives a Summary from a provenance graph.
//
// All scans run in dictionary-ID space (rdf.ForEachMatchIDs): predicate and
// class terms are resolved to IDs once up front, per-triple work is integer
// map probes, and subject terms are hydrated only when a count is recorded.
// The whole computation reads one pinned rdf.Snapshot — a single graph-lock
// acquisition, and a consistent view even under concurrent ingest.
func Compute(g *rdf.Graph) *Summary {
	v := g.Snapshot()
	s := &Summary{
		OpCounts:     map[string]int{},
		OpTotal:      map[string]time.Duration{},
		ObjectAccess: map[string]*objectProfile{},
	}

	idOf := func(t rdf.Term) rdf.ID {
		if id, ok := v.TermID(t); ok {
			return id
		}
		return rdf.NoID
	}
	// apiName memoizes the IRI→API-name extraction per subject ID.
	names := map[rdf.ID]string{}
	apiName := func(id rdf.ID) string {
		n, ok := names[id]
		if !ok {
			n = apiNameOf(v.TermOf(id).Value)
			names[id] = n
		}
		return n
	}

	// Activities: nodes typed with an I/O API sub-class.
	apiClasses := map[rdf.ID]bool{}
	for _, c := range []model.Class{model.Create, model.Open, model.Read, model.Write, model.Fsync, model.Rename} {
		if id := idOf(c.IRI()); id != rdf.NoID {
			apiClasses[id] = true
		}
	}
	if typeID := idOf(rdf.IRI(rdf.RDFType)); typeID != rdf.NoID {
		v.ForEachMatchIDs(rdf.NoID, typeID, rdf.NoID, func(sub, _, o rdf.ID) bool {
			if !apiClasses[o] {
				return true
			}
			s.Activities++
			s.OpCounts[apiName(sub)]++
			return true
		})
	}

	// Durations.
	if elapsedID := idOf(model.PropElapsed.IRI()); elapsedID != rdf.NoID {
		v.ForEachMatchIDs(rdf.NoID, elapsedID, rdf.NoID, func(sub, _, o rdf.ID) bool {
			ns, err := strconv.ParseInt(v.TermOf(o).Value, 10, 64)
			if err != nil {
				return true
			}
			s.HasDurations = true
			s.OpTotal[apiName(sub)] += time.Duration(ns)
			return true
		})
	}

	// Per-object access profiles from the six provio relations.
	rels := []struct {
		rel   model.Relation
		field func(*objectProfile) *int
	}{
		{model.WasCreatedBy, func(p *objectProfile) *int { return &p.Created }},
		{model.WasOpenedBy, func(p *objectProfile) *int { return &p.Opened }},
		{model.WasReadBy, func(p *objectProfile) *int { return &p.Reads }},
		{model.WasWrittenBy, func(p *objectProfile) *int { return &p.Writes }},
		{model.WasFlushedBy, func(p *objectProfile) *int { return &p.Flushes }},
		{model.WasModifiedBy, func(p *objectProfile) *int { return &p.Renames }},
	}
	nameID := idOf(model.PropName.IRI())
	typeID := idOf(rdf.IRI(rdf.RDFType))
	profiles := map[rdf.ID]*objectProfile{}
	for _, r := range rels {
		pred := idOf(r.rel.IRI())
		if pred == rdf.NoID {
			continue
		}
		v.ForEachMatchIDs(rdf.NoID, pred, rdf.NoID, func(sub, _, _ rdf.ID) bool {
			prof, ok := profiles[sub]
			if !ok {
				key := v.TermOf(sub).Value
				prof = &objectProfile{Name: key, Class: classNameOfID(v, sub, typeID)}
				// Prefer the display name when recorded.
				if nameID != rdf.NoID {
					v.ForEachMatchIDs(sub, nameID, rdf.NoID, func(_, _, o rdf.ID) bool {
						prof.Name = v.TermOf(o).Value
						return false
					})
				}
				profiles[sub] = prof
				s.ObjectAccess[key] = prof
			}
			*r.field(prof)++
			return true
		})
	}
	return s
}

// apiNameOf extracts the API name from an activity IRI like
// ".../api/H5Dwrite-p3-b7".
func apiNameOf(iri string) string {
	name := iri
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		name = name[i+1:]
	}
	// Strip the "-p<pid>-b<seq>" suffix.
	if i := strings.LastIndex(name, "-b"); i > 0 {
		if j := strings.LastIndex(name[:i], "-p"); j > 0 {
			name = name[:j]
		}
	}
	return name
}

// classNameOfID returns the model class name of a node (empty if untyped or
// when typeID is rdf.NoID, i.e. no rdf:type triple exists in the snapshot).
func classNameOfID(v *rdf.Snapshot, node, typeID rdf.ID) string {
	out := ""
	if typeID == rdf.NoID {
		return out
	}
	v.ForEachMatchIDs(node, typeID, rdf.NoID, func(_, _, o rdf.ID) bool {
		if val := v.TermOf(o).Value; strings.HasPrefix(val, model.ProvIONS) {
			out = strings.TrimPrefix(val, model.ProvIONS)
			return false
		}
		return true
	})
	return out
}

// perAgent returns per-agent operation counts (keyed by the agent's display
// name) derived from prov:wasAssociatedWith edges — the Recorder-style
// per-rank breakdown for workloads tracked with Thread agents enabled.
func perAgent(g *rdf.Graph) map[string]int {
	v := g.Snapshot()
	out := map[string]int{}
	assoc, ok := v.TermID(model.AssociatedWith.IRI())
	if !ok {
		return out
	}
	nameID := rdf.NoID
	if id, ok := v.TermID(model.PropName.IRI()); ok {
		nameID = id
	}
	nameOf := map[rdf.ID]string{}
	v.ForEachMatchIDs(rdf.NoID, assoc, rdf.NoID, func(_, _, o rdf.ID) bool {
		key, ok := nameOf[o]
		if !ok {
			agent := v.TermOf(o)
			if !agent.IsIRI() {
				return true
			}
			key = agent.Value
			if nameID != rdf.NoID {
				v.ForEachMatchIDs(o, nameID, rdf.NoID, func(_, _, n rdf.ID) bool {
					key = v.TermOf(n).Value
					return false
				})
			}
			nameOf[o] = key
		}
		out[key]++
		return true
	})
	return out
}

// bottleneck returns the API with the largest accumulated time (empty when
// durations were not tracked).
func (s *Summary) bottleneck() (string, time.Duration) {
	var name string
	var best time.Duration
	for api, d := range s.OpTotal {
		if d > best || (d == best && api < name) || name == "" {
			name, best = api, d
		}
	}
	if !s.HasDurations {
		return "", 0
	}
	return name, best
}

// hottestObjects returns the n most-accessed objects, sorted by total ops
// descending (ties by name).
func (s *Summary) hottestObjects(n int) []*objectProfile {
	out := make([]*objectProfile, 0, len(s.ObjectAccess))
	for _, p := range s.ObjectAccess {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].total() != out[j].total() {
			return out[i].total() > out[j].total()
		}
		return out[i].Name < out[j].Name
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// Write renders the summary as a text report.
func (s *Summary) Write(w io.Writer) error {
	var b strings.Builder
	b.WriteString("I/O statistics (from PROV-IO provenance)\n")
	fmt.Fprintf(&b, "total I/O API invocations: %d\n\n", s.Activities)

	b.WriteString("operation counts:\n")
	apis := make([]string, 0, len(s.OpCounts))
	for api := range s.OpCounts {
		apis = append(apis, api)
	}
	sort.Slice(apis, func(i, j int) bool {
		if s.OpCounts[apis[i]] != s.OpCounts[apis[j]] {
			return s.OpCounts[apis[i]] > s.OpCounts[apis[j]]
		}
		return apis[i] < apis[j]
	})
	for _, api := range apis {
		fmt.Fprintf(&b, "  %-16s %8d", api, s.OpCounts[api])
		if s.HasDurations {
			fmt.Fprintf(&b, "  %12s total", s.OpTotal[api])
		}
		b.WriteByte('\n')
	}
	if api, d := s.bottleneck(); api != "" {
		fmt.Fprintf(&b, "\nbottleneck: %s (%s accumulated)\n", api, d)
	}
	hot := s.hottestObjects(10)
	if len(hot) > 0 {
		b.WriteString("\nhottest data objects:\n")
		for _, p := range hot {
			fmt.Fprintf(&b, "  %-40s %-10s create=%d open=%d read=%d write=%d fsync=%d rename=%d\n",
				truncate(p.Name, 40), p.Class, p.Created, p.Opened, p.Reads, p.Writes, p.Flushes, p.Renames)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteWithAgents renders the summary plus a per-agent op breakdown derived
// from the same graph.
func (s *Summary) WriteWithAgents(w io.Writer, g *rdf.Graph) error {
	if err := s.Write(w); err != nil {
		return err
	}
	per := perAgent(g)
	if len(per) == 0 {
		return nil
	}
	var names []string
	for n := range per {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		if per[names[i]] != per[names[j]] {
			return per[names[i]] > per[names[j]]
		}
		return names[i] < names[j]
	})
	var b strings.Builder
	b.WriteString("\noperations per agent:\n")
	for _, n := range names {
		fmt.Fprintf(&b, "  %-32s %8d\n", truncate(n, 32), per[n])
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return "…" + s[len(s)-n+1:]
}
