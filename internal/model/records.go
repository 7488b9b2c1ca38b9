package model

import (
	"strconv"
	"strings"
	"time"

	"github.com/hpc-io/prov-io/internal/rdf"
)

// Every record kind has one triple-building method,
//
//	Build(g, dst, buf) (dst, buf, node)
//
// which appends the record's triples to dst and returns the record node. The
// values a record mints — node and activity IRIs, numeric literals — are
// formatted into buf[:0], a buffer the caller reuses from one record to the
// next (Build returns it, possibly grown), and turned into terms by mint.
// AppendTriples is Build without a graph.

// mint turns the value formatted in buf into a term. With a graph it is the
// graph's own interned copy (rdf.Graph.InternBytes): nothing is allocated for
// a value g already holds, and a new one is copied once, into g's dictionary.
// Without one it is a fresh string.
func mint(g *rdf.Graph, kind rdf.TermKind, buf []byte, datatype string) rdf.Term {
	if g != nil {
		return g.InternBytes(kind, buf, "", datatype)
	}
	return rdf.Term{Kind: kind, Value: string(buf), Datatype: datatype}
}

// mintInteger mints rdf.Integer(v).
func mintInteger(g *rdf.Graph, buf []byte, v int64) ([]byte, rdf.Term) {
	buf = strconv.AppendInt(buf[:0], v, 10)
	return buf, mint(g, rdf.LiteralTerm, buf, rdf.XSDInteger)
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
}

// IRI returns the node IRI of the record.
func (r DataObjectRecord) IRI() rdf.Term { return rdf.IRI(NodeIRI(r.Class, r.ID)) }

// Triples renders the record as RDF.
func (r DataObjectRecord) Triples() []rdf.Triple {
	ts, _ := r.AppendTriples(nil)
	return ts
}

// AppendTriples appends the record's triples to dst and returns the extended
// slice plus the record node (same term IRI() mints, built once). It is
// Build without a graph.
func (r DataObjectRecord) AppendTriples(dst []rdf.Triple) ([]rdf.Triple, rdf.Term) {
	var buf [iriStackLen]byte
	dst, _, node := r.Build(nil, dst, buf[:0])
	return dst, node
}

// Build appends the record's triples to dst and returns the record node,
// minted through g when g is not nil (see mint).
func (r DataObjectRecord) Build(g *rdf.Graph, dst []rdf.Triple, buf []byte) ([]rdf.Triple, []byte, rdf.Term) {
	buf = appendNodeIRI(buf[:0], r.Class, r.ID)
	node := mint(g, rdf.IRITerm, buf, "")
	name := r.Name
	if name == "" {
		name = r.ID
	}
	dst = append(dst,
		rdf.Triple{S: node, P: rdfTypeTerm, O: r.Class.IRI()},
		rdf.Triple{S: node, P: WasMemberOf.IRI(), O: superEntityTerm},
		rdf.Triple{S: node, P: PropName.IRI(), O: rdf.Literal(name)},
	)
	if r.Container != "" {
		dst = append(dst, rdf.Triple{S: node, P: WasDerivedFrom.IRI(), O: rdf.IRI(r.Container)})
	}
	if r.AttributedTo != "" {
		dst = append(dst, rdf.Triple{S: node, P: WasAttributedTo.IRI(), O: rdf.IRI(r.AttributedTo)})
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
// slice plus the activity node. It is Build without a graph.
func (r IOActivityRecord) AppendTriples(dst []rdf.Triple) ([]rdf.Triple, rdf.Term) {
	var buf [iriStackLen]byte
	dst, _, node := r.Build(nil, dst, buf[:0])
	return dst, node
}

// Build appends the record's triples to dst and returns the activity node;
// the node and the two duration literals are minted through g when g is not
// nil (see mint). This record is the ingest hot path, one per tracked API
// call.
func (r IOActivityRecord) Build(g *rdf.Graph, dst []rdf.Triple, buf []byte) ([]rdf.Triple, []byte, rdf.Term) {
	buf = appendActivityIRI(buf[:0], r.API, r.PID, r.Seq)
	node := mint(g, rdf.IRITerm, buf, "")
	dst = append(dst,
		rdf.Triple{S: node, P: rdfTypeTerm, O: r.Class.IRI()},
		rdf.Triple{S: node, P: WasMemberOf.IRI(), O: superActivityTerm},
	)
	if !r.Object.IsZero() {
		if rel, ok := IORelationFor(r.Class); ok {
			dst = append(dst, rdf.Triple{S: r.Object, P: rel.IRI(), O: node})
		}
	}
	if !r.Agent.IsZero() {
		dst = append(dst, rdf.Triple{S: node, P: AssociatedWith.IRI(), O: r.Agent})
	}
	if r.TrackDuration {
		var elapsed, started rdf.Term
		buf, elapsed = mintInteger(g, buf, r.Elapsed.Nanoseconds())
		buf, started = mintInteger(g, buf, r.Started.Nanoseconds())
		dst = append(dst,
			rdf.Triple{S: node, P: PropElapsed.IRI(), O: elapsed},
			rdf.Triple{S: node, P: PropTimestamp.IRI(), O: started},
		)
	}
	return dst, buf, node
}

// AgentRecord describes a User, Thread, or Program agent.
type AgentRecord struct {
	Class Class
	ID    string
	Name  string
	// OnBehalfOf links this agent to its principal (e.g. thread → program,
	// program → user) with prov:actedOnBehalfOf.
	OnBehalfOf string
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
// slice plus the agent node. It is Build without a graph.
func (r AgentRecord) AppendTriples(dst []rdf.Triple) ([]rdf.Triple, rdf.Term) {
	var buf [iriStackLen]byte
	dst, _, node := r.Build(nil, dst, buf[:0])
	return dst, node
}

// Build appends the record's triples to dst and returns the agent node; the
// node and the rank literal are minted through g when g is not nil (see
// mint).
func (r AgentRecord) Build(g *rdf.Graph, dst []rdf.Triple, buf []byte) ([]rdf.Triple, []byte, rdf.Term) {
	buf = appendNodeIRI(buf[:0], r.Class, r.ID)
	node := mint(g, rdf.IRITerm, buf, "")
	name := r.Name
	if name == "" {
		name = r.ID
	}
	dst = append(dst,
		rdf.Triple{S: node, P: rdfTypeTerm, O: r.Class.IRI()},
		rdf.Triple{S: node, P: WasMemberOf.IRI(), O: superAgentTerm},
		rdf.Triple{S: node, P: PropName.IRI(), O: rdf.Literal(name)},
	)
	if r.OnBehalfOf != "" {
		dst = append(dst, rdf.Triple{S: node, P: ActedOnBehalfOf.IRI(), O: rdf.IRI(r.OnBehalfOf)})
	}
	if r.Class.Name == Thread.Name && r.Rank >= 0 {
		var rank rdf.Term
		buf, rank = mintInteger(g, buf, int64(r.Rank))
		dst = append(dst, rdf.Triple{S: node, P: PropRank.IRI(), O: rank})
	}
	return dst, buf, node
}

// ExtensibleRecord describes a Type, Configuration, or Metrics node — the
// user-defined provenance conveyed through the PROV-IO APIs (paper §4.1.4).
type ExtensibleRecord struct {
	Class Class // Type, Configuration, or Metrics
	// Owner is the IRI of the workflow/program node this record belongs to.
	Owner string
	Key   string
	Value rdf.Term
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
	if r.Owner != "" {
		dst = append(dst, strings.TrimPrefix(r.Owner, ProvIONS)...)
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
// slice plus the record node. It is Build without a graph.
func (r ExtensibleRecord) AppendTriples(dst []rdf.Triple) ([]rdf.Triple, rdf.Term) {
	var buf [iriStackLen]byte
	dst, _, node := r.Build(nil, dst, buf[:0])
	return dst, node
}

// Build appends the record's triples to dst and returns the record node; the
// node and the version and accuracy literals are minted through g when g is
// not nil (see mint).
func (r ExtensibleRecord) Build(g *rdf.Graph, dst []rdf.Triple, buf []byte) ([]rdf.Triple, []byte, rdf.Term) {
	buf = r.appendIRI(buf[:0])
	node := mint(g, rdf.IRITerm, buf, "")
	dst = append(dst,
		rdf.Triple{S: node, P: rdfTypeTerm, O: r.Class.IRI()},
		rdf.Triple{S: node, P: PropName.IRI(), O: rdf.Literal(r.Key)},
	)
	if !r.Value.IsZero() {
		dst = append(dst, rdf.Triple{S: node, P: PropValue.IRI(), O: r.Value})
	}
	if r.Version >= 0 {
		var version rdf.Term
		buf, version = mintInteger(g, buf, int64(r.Version))
		dst = append(dst, rdf.Triple{S: node, P: PropVersion.IRI(), O: version})
	}
	if r.HasAccuracy {
		buf = strconv.AppendFloat(buf[:0], r.Accuracy, 'g', -1, 64) // rdf.Double's form
		dst = append(dst, rdf.Triple{S: node, P: PropAccuracy.IRI(), O: mint(g, rdf.LiteralTerm, buf, rdf.XSDDouble)})
	}
	if r.Owner != "" {
		var link Relation
		switch r.Class.Name {
		case Type.Name:
			link = PropType
		case Configuration.Name:
			link = PropConfig
		default:
			link = PropMetric
		}
		dst = append(dst, rdf.Triple{S: rdf.IRI(r.Owner), P: link.IRI(), O: node})
	}
	return dst, buf, node
}
