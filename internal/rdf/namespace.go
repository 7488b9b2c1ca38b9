package rdf

import (
	"fmt"
	"sort"
	"strings"
)

// Namespaces maps prefixes to IRI bases, used for CURIE expansion and
// compact Turtle serialization.
type Namespaces struct {
	prefixToBase map[string]string
}

// NewNamespaces returns an empty prefix table.
func NewNamespaces() *Namespaces {
	return &Namespaces{prefixToBase: make(map[string]string)}
}

// Bind associates prefix with base. Rebinding a prefix replaces it.
func (ns *Namespaces) Bind(prefix, base string) {
	ns.prefixToBase[prefix] = base
}

// Base returns the IRI base bound to prefix.
func (ns *Namespaces) Base(prefix string) (string, bool) {
	b, ok := ns.prefixToBase[prefix]
	return b, ok
}

// Expand resolves a CURIE like "prov:Entity" to a full IRI. If the input has
// no bound prefix it is returned unchanged with ok=false.
func (ns *Namespaces) Expand(curie string) (string, bool) {
	i := strings.Index(curie, ":")
	if i < 0 {
		return curie, false
	}
	base, ok := ns.prefixToBase[curie[:i]]
	if !ok {
		return curie, false
	}
	return base + curie[i+1:], true
}

// Shrink compacts a full IRI into a CURIE using the longest matching base.
// Returns the original IRI with ok=false when no prefix matches or the
// CURIE is not a prefixed name ScanPrefixedName reads back whole.
func (ns *Namespaces) Shrink(iri string) (string, bool) {
	bestPrefix, bestBase := "", ""
	for p, b := range ns.prefixToBase {
		if strings.HasPrefix(iri, b) && len(b) > len(bestBase) {
			bestPrefix, bestBase = p, b
		}
	}
	if bestBase == "" {
		return iri, false
	}
	curie := bestPrefix + ":" + iri[len(bestBase):]
	if _, _, n, err := ScanPrefixedName(curie); err != nil || n < len(curie) {
		return iri, false
	}
	return curie, true
}

// Prefixes returns the bound prefixes in sorted order.
func (ns *Namespaces) Prefixes() []string {
	out := make([]string, 0, len(ns.prefixToBase))
	for p := range ns.prefixToBase {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// Clone returns a copy of the prefix table.
func (ns *Namespaces) Clone() *Namespaces {
	c := NewNamespaces()
	for p, b := range ns.prefixToBase {
		c.prefixToBase[p] = b
	}
	return c
}

// MustExpand is Expand but panics when the prefix is unbound. It is intended
// for package-internal constant tables where an unbound prefix is a bug.
func (ns *Namespaces) MustExpand(curie string) string {
	iri, ok := ns.Expand(curie)
	if !ok {
		panic(fmt.Sprintf("rdf: unbound prefix in %q", curie))
	}
	return iri
}
