package segcodec

import (
	"io"

	"github.com/hpc-io/prov-io/internal/rdf"
)

// ntCodec is the N-Triples text codec: one triple per line, deterministic
// (S, P, O) order. Its decoder parses the N-Triples/Turtle superset.
type ntCodec struct{}

func (ntCodec) Ext() string { return ".nt" }

func (ntCodec) Encode(w io.Writer, g *rdf.Graph, _ *rdf.Namespaces) error {
	return rdf.WriteNTriples(w, g)
}

func (ntCodec) Decode(r io.Reader, into *rdf.Graph) error {
	g, _, err := rdf.ParseTurtle(r)
	if err != nil {
		return err
	}
	into.Merge(g)
	return nil
}

// ttlCodec is the Turtle text codec: subject-grouped, prefix-compacted —
// the interchange format the paper's snippets use. It decodes as ntCodec
// does: one parser reads the N-Triples/Turtle superset.
type ttlCodec struct{ ntCodec }

func (ttlCodec) Ext() string { return ".ttl" }

func (ttlCodec) Encode(w io.Writer, g *rdf.Graph, ns *rdf.Namespaces) error {
	return rdf.WriteTurtle(w, g, ns)
}
