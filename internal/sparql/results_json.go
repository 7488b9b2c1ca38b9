package sparql

import (
	"encoding/json"
	"io"

	"github.com/hpc-io/prov-io/internal/rdf"
)

// JSON serialization of query solutions in the W3C "SPARQL 1.1 Query
// Results JSON Format" (application/sparql-results+json), so the user
// engine's answers can feed standard SPARQL tooling.

// jsonResults mirrors the W3C document structure.
type jsonResults struct {
	Head    jsonHead     `json:"head"`
	Results jsonBindings `json:"results"`
}

type jsonHead struct {
	Vars []string `json:"vars"`
}

type jsonBindings struct {
	Bindings []map[string]jsonTerm `json:"bindings"`
}

type jsonTerm struct {
	Type     string `json:"type"` // "uri", "literal", "bnode"
	Value    string `json:"value"`
	Datatype string `json:"datatype,omitempty"`
	Lang     string `json:"xml:lang,omitempty"`
}

func termToJSON(t rdf.Term) jsonTerm {
	switch t.Kind {
	case rdf.IRITerm:
		return jsonTerm{Type: "uri", Value: t.Value}
	case rdf.BlankTerm:
		return jsonTerm{Type: "bnode", Value: t.Value}
	default:
		return jsonTerm{Type: "literal", Value: t.Value, Datatype: t.Datatype, Lang: t.Lang}
	}
}

// WriteJSON serializes the result in the W3C SPARQL results JSON format.
func (r *Result) WriteJSON(w io.Writer) error {
	doc := jsonResults{Head: jsonHead{Vars: append([]string{}, r.Vars...)}}
	doc.Results.Bindings = make([]map[string]jsonTerm, 0, len(r.Rows))
	for _, row := range r.Rows {
		b := make(map[string]jsonTerm, len(row))
		for _, v := range r.Vars {
			if t, ok := row[v]; ok {
				b[v] = termToJSON(t)
			}
		}
		doc.Results.Bindings = append(doc.Results.Bindings, b)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
