package model

import (
	"sync"
	"sync/atomic"

	"github.com/hpc-io/prov-io/internal/rdf"
)

// Every record kind describes its shape once, in AppendRefs, against an
// Interner: the record's triples come out as rdf.TripleIDs whose IDs the
// interner hands out. A GraphInterner hands out a graph's dictionary IDs, so
// the triples go straight into Graph.AddRefs — the tracker's path. A termList
// hands out positions in a list of terms and maps them back, which is
// AppendTriples. IDs mean something only to the interner that made them; they
// never cross from one to another.

// Vocab is the dense index of a static vocabulary term: rdf:type, a Class or
// Relation IRI, a super-class IRI. Vocab 0 is no term at all, the index of a
// Class or Relation built by hand.
type Vocab uint8

// vocabCap bounds the static vocabulary so a GraphInterner's table is an
// array inside its owner; staticTerm panics at package initialization when
// the vocabulary outgrows it.
const vocabCap = 64

// vocabTerms lists the static vocabulary by index. It is filled while the
// package initializes and only read afterwards.
var vocabTerms = []rdf.Term{{}}

// staticTerm registers iri as a static vocabulary term.
func staticTerm(iri string) (rdf.Term, Vocab) {
	if len(vocabTerms) == vocabCap {
		panic("model: static vocabulary exceeds vocabCap")
	}
	t := rdf.IRI(iri)
	vocabTerms = append(vocabTerms, t)
	return t, Vocab(len(vocabTerms) - 1)
}

// Interner resolves the terms of a record to IDs while the record's shape is
// written down. An interner that cannot hold a term where the record puts it
// answers rdf.NoID; the triple is appended all the same, so it is counted,
// and Graph.AddRefs skips it.
type Interner interface {
	// Static is the ID of a static vocabulary term.
	Static(v Vocab) rdf.ID
	// Mint is the ID of the term {kind, string(value), datatype} the record
	// formatted into its reused buffer; value may be overwritten as soon as
	// the call returns.
	Mint(kind rdf.TermKind, value []byte, datatype string) rdf.ID
	// Subject and Object are the ID of a term the caller supplied, standing
	// as a triple's subject or object.
	Subject(t rdf.Term) rdf.ID
	Object(t rdf.Term) rdf.ID
}

// triple appends (s p o) to dst. p is resolved only when both ends are, so
// that a graph never holds a vocabulary term no triple references.
func triple(in Interner, dst []rdf.TripleID, s rdf.ID, p Vocab, o rdf.ID) []rdf.TripleID {
	pid := rdf.NoID
	if s != rdf.NoID && o != rdf.NoID {
		pid = in.Static(p)
	}
	return append(dst, rdf.TripleID{S: s, P: pid, O: o})
}

// GraphInterner resolves records against Graph's dictionary. The table of
// static vocabulary IDs is filled on first use and read with atomic loads:
// one interner serves every goroutine tracking into its graph. It belongs to
// the graph's owner (the tracker holds it by value) and must not be copied
// or pooled — its IDs are Graph's alone.
type GraphInterner struct {
	Graph  *rdf.Graph
	static [vocabCap]atomic.Uint32 // 1 + ID; 0 = not resolved yet
}

func (in *GraphInterner) Static(v Vocab) rdf.ID {
	if id := in.static[v].Load(); id != 0 {
		return rdf.ID(id - 1)
	}
	if v == 0 {
		return rdf.NoID
	}
	id := in.Graph.Intern(vocabTerms[v])
	in.static[v].Store(uint32(id) + 1)
	return id
}

func (in *GraphInterner) Mint(kind rdf.TermKind, value []byte, datatype string) rdf.ID {
	return in.Graph.InternBytes(kind, value, "", datatype)
}

func (in *GraphInterner) Subject(t rdf.Term) rdf.ID {
	if t.Kind != rdf.IRITerm && t.Kind != rdf.BlankTerm {
		return rdf.NoID
	}
	return in.Graph.Intern(t)
}

func (in *GraphInterner) Object(t rdf.Term) rdf.ID {
	if t.Kind != rdf.IRITerm && t.Kind != rdf.BlankTerm && t.Kind != rdf.LiteralTerm {
		return rdf.NoID
	}
	return in.Graph.Intern(t)
}

// termList is the interner behind AppendTriples: an ID below len(vocabTerms)
// is that static term, any other a position in terms. It holds any term in
// any position — what RDF forbids is Graph.AddBatch's to skip.
type termList struct {
	terms []rdf.Term
	refs  []rdf.TripleID
	buf   []byte
}

// listPool recycles termLists, which as interface values cannot live on the
// caller's stack. appendTriples empties a list before it goes back, so the
// pool pins no term.
var listPool = sync.Pool{New: func() any {
	return &termList{terms: make([]rdf.Term, 0, 8), refs: make([]rdf.TripleID, 0, 8), buf: make([]byte, 0, iriStackLen)}
}}

func (l *termList) Static(v Vocab) rdf.ID { return rdf.ID(v) }

func (l *termList) Mint(kind rdf.TermKind, value []byte, datatype string) rdf.ID {
	l.terms = append(l.terms, rdf.Term{Kind: kind, Value: string(value), Datatype: datatype})
	return l.last()
}

func (l *termList) Subject(t rdf.Term) rdf.ID { return l.Object(t) }

func (l *termList) Object(t rdf.Term) rdf.ID {
	l.terms = append(l.terms, t)
	return l.last()
}

func (l *termList) last() rdf.ID { return rdf.ID(len(vocabTerms) + len(l.terms) - 1) }

func (l *termList) term(id rdf.ID) rdf.Term {
	if int(id) < len(vocabTerms) {
		return vocabTerms[id]
	}
	return l.terms[int(id)-len(vocabTerms)]
}

// Record is what every record kind implements: its shape, written once.
// AppendRefs appends the record's triples to dst in in's IDs, formatting the
// values it mints into buf[:0] — a buffer the caller reuses from one record to
// the next, returned possibly grown — and returns the record node (rdf.NoID
// for a record without one).
type Record interface {
	AppendRefs(in Interner, dst []rdf.TripleID, buf []byte) ([]rdf.TripleID, []byte, rdf.ID)
}

// appendTriples runs r's shape against a termList and appends the triples it
// lists, as terms, to dst; the second result is the record node, the zero
// Term for a record that has none. Generic, so that the record value is not
// boxed.
func appendTriples[R Record](r R, dst []rdf.Triple) ([]rdf.Triple, rdf.Term) {
	l := listPool.Get().(*termList)
	var nodeID rdf.ID
	l.refs, l.buf, nodeID = r.AppendRefs(l, l.refs[:0], l.buf)
	for _, ref := range l.refs {
		dst = append(dst, rdf.Triple{S: l.term(ref.S), P: l.term(ref.P), O: l.term(ref.O)})
	}
	var node rdf.Term
	if nodeID != rdf.NoID {
		node = l.term(nodeID)
	}
	clear(l.terms)
	l.terms = l.terms[:0]
	listPool.Put(l)
	return dst, node
}
