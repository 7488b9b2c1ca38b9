// Package provjson exports PROV-IO provenance graphs as W3C PROV-JSON
// documents. The paper chooses RDF/PROV-O "to make PROV-IO compatible with
// other W3C-compliant solutions" (§4.2); this package makes that claim
// concrete by emitting the interchange serialization those tools consume
// (https://www.w3.org/Submission/prov-json/).
//
// Mapping: nodes typed with PROV-IO Entity sub-classes populate "entity",
// Activity sub-classes "activity", Agent sub-classes "agent"; the inherited
// W3C relations populate their standard sections (wasDerivedFrom,
// wasAttributedTo, wasAssociatedWith, actedOnBehalfOf); PROV-IO's I/O
// relations are inverted into "used"/"wasGeneratedBy" where the standard
// has an equivalent (a Create/Write activity generates the object; a
// Read/Open activity uses it), preserving interoperability with viewers
// that only know core PROV.
package provjson

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"github.com/hpc-io/prov-io/internal/model"
	"github.com/hpc-io/prov-io/internal/rdf"
)

// document is a W3C PROV-JSON document.
type document struct {
	Prefix            map[string]string          `json:"prefix,omitempty"`
	Entity            map[string]attrs           `json:"entity,omitempty"`
	Activity          map[string]attrs           `json:"activity,omitempty"`
	Agent             map[string]attrs           `json:"agent,omitempty"`
	WasDerivedFrom    map[string]derivationEdge  `json:"wasDerivedFrom,omitempty"`
	WasAttributedTo   map[string]attributionEdge `json:"wasAttributedTo,omitempty"`
	WasAssociatedWith map[string]associationEdge `json:"wasAssociatedWith,omitempty"`
	ActedOnBehalfOf   map[string]delegationEdge  `json:"actedOnBehalfOf,omitempty"`
	Used              map[string]usageEdge       `json:"used,omitempty"`
	WasGeneratedBy    map[string]generationEdge  `json:"wasGeneratedBy,omitempty"`
}

// attrs is a node's attribute map.
type attrs map[string]any

// derivationEdge is one prov:wasDerivedFrom record.
type derivationEdge struct {
	GeneratedEntity string `json:"prov:generatedEntity"`
	UsedEntity      string `json:"prov:usedEntity"`
}

// attributionEdge is one prov:wasAttributedTo record.
type attributionEdge struct {
	Entity string `json:"prov:entity"`
	Agent  string `json:"prov:agent"`
}

// associationEdge is one prov:wasAssociatedWith record.
type associationEdge struct {
	Activity string `json:"prov:activity"`
	Agent    string `json:"prov:agent"`
}

// delegationEdge is one prov:actedOnBehalfOf record.
type delegationEdge struct {
	Delegate    string `json:"prov:delegate"`
	Responsible string `json:"prov:responsible"`
}

// usageEdge is one prov:used record.
type usageEdge struct {
	Activity string `json:"prov:activity"`
	Entity   string `json:"prov:entity"`
}

// generationEdge is one prov:wasGeneratedBy record.
type generationEdge struct {
	Entity   string `json:"prov:entity"`
	Activity string `json:"prov:activity"`
}

// export builds the PROV-JSON document for a provenance graph.
func export(g *rdf.Graph) *document {
	doc := &document{
		Prefix: map[string]string{
			"prov":   model.ProvNS,
			"provio": model.ProvIONS,
		},
		Entity:            map[string]attrs{},
		Activity:          map[string]attrs{},
		Agent:             map[string]attrs{},
		WasDerivedFrom:    map[string]derivationEdge{},
		WasAttributedTo:   map[string]attributionEdge{},
		WasAssociatedWith: map[string]associationEdge{},
		ActedOnBehalfOf:   map[string]delegationEdge{},
		Used:              map[string]usageEdge{},
		WasGeneratedBy:    map[string]generationEdge{},
	}

	// Classify nodes.
	superOf := map[string]model.Super{}
	classOf := map[string]string{}
	typeP := rdf.IRI(rdf.RDFType)
	g.ForEachMatch(nil, &typeP, nil, func(t rdf.Triple) bool {
		if !t.S.IsIRI() || !strings.HasPrefix(t.O.Value, model.ProvIONS) {
			return true
		}
		name := strings.TrimPrefix(t.O.Value, model.ProvIONS)
		cls, ok := model.ClassByName(name)
		if !ok {
			return true
		}
		superOf[t.S.Value] = cls.Super
		classOf[t.S.Value] = name
		return true
	})

	qid := func(iri string) string {
		if strings.HasPrefix(iri, model.ProvIONS) {
			return "provio:" + strings.TrimPrefix(iri, model.ProvIONS)
		}
		if strings.HasPrefix(iri, model.ProvNS) {
			return "prov:" + strings.TrimPrefix(iri, model.ProvNS)
		}
		return iri
	}

	section := func(iri string) map[string]attrs {
		switch superOf[iri] {
		case model.SuperEntity, model.SuperExtensible:
			return doc.Entity
		case model.SuperActivity:
			return doc.Activity
		case model.SuperAgent:
			return doc.Agent
		}
		return nil
	}

	// Node attribute maps: prov:type plus literal properties.
	for iri, cls := range classOf {
		sec := section(iri)
		if sec == nil {
			continue
		}
		a := attrs{"prov:type": "provio:" + cls}
		node := rdf.IRI(iri)
		g.ForEachMatch(&node, nil, nil, func(t rdf.Triple) bool {
			if !t.O.IsLiteral() || !strings.HasPrefix(t.P.Value, model.ProvIONS) {
				return true
			}
			a[qid(t.P.Value)] = t.O.Value
			return true
		})
		sec[qid(iri)] = a
	}

	// Relation sections. Edge IDs are deterministic counters per section.
	counters := map[string]int{}
	edgeID := func(kind string) string {
		counters[kind]++
		return fmt.Sprintf("_:%s%d", kind, counters[kind])
	}

	collect := func(pred rdf.Term, fn func(s, o string)) {
		p := pred
		var pairs [][2]string
		g.ForEachMatch(nil, &p, nil, func(t rdf.Triple) bool {
			if t.S.IsIRI() && t.O.IsIRI() {
				pairs = append(pairs, [2]string{t.S.Value, t.O.Value})
			}
			return true
		})
		sort.Slice(pairs, func(i, j int) bool {
			if pairs[i][0] != pairs[j][0] {
				return pairs[i][0] < pairs[j][0]
			}
			return pairs[i][1] < pairs[j][1]
		})
		for _, pr := range pairs {
			fn(pr[0], pr[1])
		}
	}

	collect(model.WasDerivedFrom.IRI(), func(s, o string) {
		doc.WasDerivedFrom[edgeID("wdf")] = derivationEdge{
			GeneratedEntity: qid(s), UsedEntity: qid(o),
		}
	})
	collect(model.WasAttributedTo.IRI(), func(s, o string) {
		doc.WasAttributedTo[edgeID("wat")] = attributionEdge{Entity: qid(s), Agent: qid(o)}
	})
	collect(model.AssociatedWith.IRI(), func(s, o string) {
		doc.WasAssociatedWith[edgeID("waw")] = associationEdge{Activity: qid(s), Agent: qid(o)}
	})
	collect(model.ActedOnBehalfOf.IRI(), func(s, o string) {
		doc.ActedOnBehalfOf[edgeID("aob")] = delegationEdge{Delegate: qid(s), Responsible: qid(o)}
	})

	// PROV-IO I/O relations → core PROV usage/generation. The subject is
	// the data object, the object is the activity.
	generate := []model.Relation{model.WasCreatedBy, model.WasWrittenBy, model.WasFlushedBy, model.WasModifiedBy}
	use := []model.Relation{model.WasOpenedBy, model.WasReadBy}
	for _, rel := range generate {
		collect(rel.IRI(), func(obj, act string) {
			doc.WasGeneratedBy[edgeID("wgb")] = generationEdge{Entity: qid(obj), Activity: qid(act)}
		})
	}
	for _, rel := range use {
		collect(rel.IRI(), func(obj, act string) {
			doc.Used[edgeID("use")] = usageEdge{Activity: qid(act), Entity: qid(obj)}
		})
	}
	return doc
}

// ExportTo writes the PROV-JSON document for g to w as indented JSON.
func ExportTo(w io.Writer, g *rdf.Graph) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(export(g))
}
