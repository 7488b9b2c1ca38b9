package model

import (
	"strconv"
	"strings"
	"time"

	"github.com/hpc-io/prov-io/internal/rdf"
)

// callerTerm is the term a record names by a string field meaning "IRI" and
// a Term field that, when set, stands in for it with a term of any kind.
func callerTerm(iri string, t rdf.Term) rdf.Term {
	if t.IsZero() && iri != "" {
		return rdf.IRI(iri)
	}
	return t
}

// mintInteger mints rdf.Integer(v).
func mintInteger(in Interner, buf []byte, v int64) ([]byte, rdf.ID) {
	buf = strconv.AppendInt(buf[:0], v, 10)
	return buf, in.Mint(rdf.LiteralTerm, buf, rdf.XSDInteger)
}

// DataObjectRecord describes one Entity node (a Data Object sub-class
// instance) plus its membership and attribution triples.
type DataObjectRecord struct {
	Class Class  // one of Directory/File/Group/Dataset/Attribute/Datatype/Link
	ID    string // identity, e.g. the path "/Timestep_0/x"
	Name  string // display name (optional; defaults to ID)
	// Container, when set, is the IRI of the enclosing object (e.g. the
	// file containing a dataset), linked with prov:wasDerivedFrom per the
	// hierarchy shown in the paper's Figure 4.
	Container string
	// AttributedTo, when set, is the IRI of the Program agent this object
	// is attributed to (prov:wasAttributedTo).
	AttributedTo string
	// ContainerTerm and AttributedToTerm, when set, stand in for Container
	// and AttributedTo with a term of any kind: the tracker passes its
	// caller's terms through them as they are.
	ContainerTerm, AttributedToTerm rdf.Term
}

// IRI returns the node IRI of the record.
func (r DataObjectRecord) IRI() rdf.Term { return rdf.IRI(NodeIRI(r.Class, r.ID)) }

// Triples renders the record as RDF.
func (r DataObjectRecord) Triples() []rdf.Triple {
	ts, _ := r.AppendTriples(nil)
	return ts
}

// AppendTriples appends the record's triples to dst and returns the extended
// slice plus the record node (same term IRI() mints, built once).
func (r DataObjectRecord) AppendTriples(dst []rdf.Triple) ([]rdf.Triple, rdf.Term) {
	return appendTriples(r, dst)
}

// AppendRefs appends the record's triples to dst, in in's IDs, and returns
// the record node.
func (r DataObjectRecord) AppendRefs(in Interner, dst []rdf.TripleID, buf []byte) ([]rdf.TripleID, []byte, rdf.ID) {
	buf = appendNodeIRI(buf[:0], r.Class, r.ID)
	node := in.Mint(rdf.IRITerm, buf, "")
	name := r.Name
	if name == "" {
		name = r.ID
	}
	dst = triple(in, dst, node, vocabRDFType, in.Static(r.Class.vocab))
	dst = triple(in, dst, node, WasMemberOf.vocab, in.Static(vocabEntity))
	dst = triple(in, dst, node, PropName.vocab, in.Object(rdf.Literal(name)))
	if c := callerTerm(r.Container, r.ContainerTerm); !c.IsZero() {
		dst = triple(in, dst, node, WasDerivedFrom.vocab, in.Object(c))
	}
	if a := callerTerm(r.AttributedTo, r.AttributedToTerm); !a.IsZero() {
		dst = triple(in, dst, node, WasAttributedTo.vocab, in.Object(a))
	}
	return dst, buf, node
}

// IOActivityRecord describes one I/O API invocation (an Activity node) and
// its relations to the accessed Data Object and the owning agent.
type IOActivityRecord struct {
	Class   Class  // one of Create/Open/Read/Write/Fsync/Rename
	API     string // concrete API name, e.g. "H5Dcreate2" or "write"
	PID     int    // process ID minting the invocation
	Seq     int    // per-process sequence number
	Object  rdf.Term
	Agent   rdf.Term // Program or Thread agent (prov:wasAssociatedWith)
	Elapsed time.Duration
	// Started is the (simulated) start time; zero means untracked.
	Started time.Duration
	// TrackDuration controls whether the elapsed/startedAt properties are
	// emitted (usage scenario 2 in the paper's H5bench case).
	TrackDuration bool
}

// IRI returns the invocation node IRI (e.g. ".../api/H5Dcreate2-p0-b1").
func (r IOActivityRecord) IRI() rdf.Term { return rdf.IRI(ActivityIRI(r.API, r.PID, r.Seq)) }

// Triples renders the record as RDF. The Data Object is linked to the
// activity with the class-specific provio relation (Table 2).
func (r IOActivityRecord) Triples() []rdf.Triple {
	ts, _ := r.AppendTriples(nil)
	return ts
}

// AppendTriples appends the record's triples to dst and returns the extended
// slice plus the activity node.
func (r IOActivityRecord) AppendTriples(dst []rdf.Triple) ([]rdf.Triple, rdf.Term) {
	return appendTriples(r, dst)
}

// AppendRefs appends the record's triples to dst, in in's IDs, and returns
// the activity node. This record is the ingest hot path, one per tracked API
// call.
func (r IOActivityRecord) AppendRefs(in Interner, dst []rdf.TripleID, buf []byte) ([]rdf.TripleID, []byte, rdf.ID) {
	buf = appendActivityIRI(buf[:0], r.API, r.PID, r.Seq)
	node := in.Mint(rdf.IRITerm, buf, "")
	dst = triple(in, dst, node, vocabRDFType, in.Static(r.Class.vocab))
	dst = triple(in, dst, node, WasMemberOf.vocab, in.Static(vocabActivity))
	if !r.Object.IsZero() {
		if rel, ok := IORelationFor(r.Class); ok {
			dst = triple(in, dst, in.Subject(r.Object), rel.vocab, node)
		}
	}
	if !r.Agent.IsZero() {
		dst = triple(in, dst, node, AssociatedWith.vocab, in.Object(r.Agent))
	}
	if r.TrackDuration {
		var elapsed, started rdf.ID
		buf, elapsed = mintInteger(in, buf, r.Elapsed.Nanoseconds())
		buf, started = mintInteger(in, buf, r.Started.Nanoseconds())
		dst = triple(in, dst, node, PropElapsed.vocab, elapsed)
		dst = triple(in, dst, node, PropTimestamp.vocab, started)
	}
	return dst, buf, node
}

// AgentRecord describes a User, Thread, or Program agent.
type AgentRecord struct {
	Class Class
	ID    string
	Name  string
	// OnBehalfOf links this agent to its principal (e.g. thread → program,
	// program → user) with prov:actedOnBehalfOf: the principal's IRI, or, in
	// OnBehalfOfTerm, the principal as a term of any kind.
	OnBehalfOf     string
	OnBehalfOfTerm rdf.Term
	// Rank is emitted for Thread agents (MPI rank); -1 suppresses it.
	Rank int
}

// IRI returns the agent node IRI.
func (r AgentRecord) IRI() rdf.Term { return rdf.IRI(NodeIRI(r.Class, r.ID)) }

// Triples renders the record as RDF.
func (r AgentRecord) Triples() []rdf.Triple {
	ts, _ := r.AppendTriples(nil)
	return ts
}

// AppendTriples appends the record's triples to dst and returns the extended
// slice plus the agent node.
func (r AgentRecord) AppendTriples(dst []rdf.Triple) ([]rdf.Triple, rdf.Term) {
	return appendTriples(r, dst)
}

// AppendRefs appends the record's triples to dst, in in's IDs, and returns
// the agent node.
func (r AgentRecord) AppendRefs(in Interner, dst []rdf.TripleID, buf []byte) ([]rdf.TripleID, []byte, rdf.ID) {
	buf = appendNodeIRI(buf[:0], r.Class, r.ID)
	node := in.Mint(rdf.IRITerm, buf, "")
	name := r.Name
	if name == "" {
		name = r.ID
	}
	dst = triple(in, dst, node, vocabRDFType, in.Static(r.Class.vocab))
	dst = triple(in, dst, node, WasMemberOf.vocab, in.Static(vocabAgent))
	dst = triple(in, dst, node, PropName.vocab, in.Object(rdf.Literal(name)))
	if p := callerTerm(r.OnBehalfOf, r.OnBehalfOfTerm); !p.IsZero() {
		dst = triple(in, dst, node, ActedOnBehalfOf.vocab, in.Object(p))
	}
	if r.Class.Name == Thread.Name && r.Rank >= 0 {
		var rank rdf.ID
		buf, rank = mintInteger(in, buf, int64(r.Rank))
		dst = triple(in, dst, node, PropRank.vocab, rank)
	}
	return dst, buf, node
}

// ExtensibleRecord describes a Type, Configuration, or Metrics node — the
// user-defined provenance conveyed through the PROV-IO APIs (paper §4.1.4).
type ExtensibleRecord struct {
	Class Class // Type, Configuration, or Metrics
	// Owner is the IRI of the workflow/program node this record belongs to;
	// OwnerTerm, when set, stands in for it with a term of any kind.
	Owner     string
	OwnerTerm rdf.Term
	Key       string
	Value     rdf.Term
	// Version distinguishes repeated records of the same key across runs
	// or epochs (the Top Reco versioning need); -1 suppresses it.
	Version int
	// Accuracy attaches a training accuracy to a Configuration version;
	// NaN-free sentinel: only emitted when HasAccuracy is true.
	Accuracy    float64
	HasAccuracy bool
}

// IRI returns the record node IRI (owner-scoped so different workflows'
// records never collide). Owners minted by this vocabulary are compacted to
// their local part so record IRIs stay short in the store.
func (r ExtensibleRecord) IRI() rdf.Term {
	var buf [iriStackLen]byte
	return rdf.IRI(string(r.appendIRI(buf[:0])))
}

// appendIRI appends the node IRI of the identity "owner/key/vN" — no owner
// part without an Owner, no version part for a negative Version.
func (r ExtensibleRecord) appendIRI(dst []byte) []byte {
	dst = appendNodePrefix(dst, r.Class)
	from := len(dst)
	if owner := callerTerm(r.Owner, r.OwnerTerm); !owner.IsZero() {
		dst = append(dst, strings.TrimPrefix(owner.Value, ProvIONS)...)
		dst = append(dst, '/')
	}
	dst = append(dst, r.Key...)
	if r.Version >= 0 {
		dst = append(dst, "/v"...)
		dst = strconv.AppendInt(dst, int64(r.Version), 10)
	}
	return escapeIdentity(dst, from, true)
}

// Triples renders the record as RDF.
func (r ExtensibleRecord) Triples() []rdf.Triple {
	ts, _ := r.AppendTriples(nil)
	return ts
}

// AppendTriples appends the record's triples to dst and returns the extended
// slice plus the record node.
func (r ExtensibleRecord) AppendTriples(dst []rdf.Triple) ([]rdf.Triple, rdf.Term) {
	return appendTriples(r, dst)
}

// AppendRefs appends the record's triples to dst, in in's IDs, and returns
// the record node.
func (r ExtensibleRecord) AppendRefs(in Interner, dst []rdf.TripleID, buf []byte) ([]rdf.TripleID, []byte, rdf.ID) {
	buf = r.appendIRI(buf[:0])
	node := in.Mint(rdf.IRITerm, buf, "")
	dst = triple(in, dst, node, vocabRDFType, in.Static(r.Class.vocab))
	dst = triple(in, dst, node, PropName.vocab, in.Object(rdf.Literal(r.Key)))
	if !r.Value.IsZero() {
		dst = triple(in, dst, node, PropValue.vocab, in.Object(r.Value))
	}
	if r.Version >= 0 {
		var version rdf.ID
		buf, version = mintInteger(in, buf, int64(r.Version))
		dst = triple(in, dst, node, PropVersion.vocab, version)
	}
	if r.HasAccuracy {
		buf = strconv.AppendFloat(buf[:0], r.Accuracy, 'g', -1, 64) // rdf.Double's form
		dst = triple(in, dst, node, PropAccuracy.vocab, in.Mint(rdf.LiteralTerm, buf, rdf.XSDDouble))
	}
	if owner := callerTerm(r.Owner, r.OwnerTerm); !owner.IsZero() {
		link := PropMetric
		switch r.Class.Name {
		case Type.Name:
			link = PropType
		case Configuration.Name:
			link = PropConfig
		}
		dst = triple(in, dst, in.Subject(owner), link.vocab, node)
	}
	return dst, buf, node
}

// DerivationRecord is one prov:wasDerivedFrom edge between two entities the
// caller names — the backward-lineage edge of the DASSA use case. It has no
// node of its own.
type DerivationRecord struct {
	Product, Source rdf.Term
}

// AppendTriples appends the edge to dst; the node it returns is the zero Term.
func (r DerivationRecord) AppendTriples(dst []rdf.Triple) ([]rdf.Triple, rdf.Term) {
	return appendTriples(r, dst)
}

// AppendRefs appends the edge to dst, in in's IDs; the node is rdf.NoID. The
// source is resolved only under a product that can be a subject, so an edge
// skipped for its product leaves nothing behind in a graph's dictionary.
func (r DerivationRecord) AppendRefs(in Interner, dst []rdf.TripleID, buf []byte) ([]rdf.TripleID, []byte, rdf.ID) {
	s, o := in.Subject(r.Product), rdf.NoID
	if s != rdf.NoID {
		o = in.Object(r.Source)
	}
	return triple(in, dst, s, WasDerivedFrom.vocab, o), buf, rdf.NoID
}
