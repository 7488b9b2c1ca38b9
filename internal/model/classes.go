// Package model defines the PROV-IO provenance model (paper §4.1): the five
// super-classes (Entity, Activity, Agent, Extensible Class, Relation) and all
// of their concrete sub-classes from Table 2, plus the RDF vocabulary that
// maps the model onto triples following W3C PROV-O.
package model

import (
	"strings"

	"github.com/hpc-io/prov-io/internal/rdf"
)

// Namespace IRIs used by the PROV-IO vocabulary.
const (
	ProvNS   = "http://www.w3.org/ns/prov#"
	ProvIONS = "https://github.com/hpc-io/prov-io/ns#"
)

// Namespaces returns the prefix table bound to the PROV-IO vocabulary.
func Namespaces() *rdf.Namespaces {
	ns := rdf.NewNamespaces()
	ns.Bind("prov", ProvNS)
	ns.Bind("provio", ProvIONS)
	ns.Bind("rdf", "http://www.w3.org/1999/02/22-rdf-syntax-ns#")
	ns.Bind("xsd", "http://www.w3.org/2001/XMLSchema#")
	return ns
}

// Super identifies a PROV-IO super-class.
type Super uint8

// The five PROV-IO super-classes.
const (
	SuperEntity Super = iota + 1
	SuperActivity
	SuperAgent
	SuperExtensible
	superRelation
)

// String returns the super-class name as used in the paper.
func (s Super) String() string {
	switch s {
	case SuperEntity:
		return "Entity"
	case SuperActivity:
		return "Activity"
	case SuperAgent:
		return "Agent"
	case SuperExtensible:
		return "Extensible Class"
	case superRelation:
		return "Relation"
	default:
		return "Unknown"
	}
}

// Class is one concrete PROV-IO sub-class (a row of the paper's Table 2).
type Class struct {
	Super Super
	// Stereotype is the UML-ish stereotype the paper prints, e.g.
	// "Data Object" or "I/O API". Empty for Agent/Extensible sub-classes.
	Stereotype string
	Name       string
	// Description is the Table 2 description column.
	Description string
	iri         string
	// iriTerm, vocab and nodePrefix are precomputed at class construction so
	// the ingest hot path builds no strings for them: iriTerm is the class IRI
	// as a ready Term and vocab its static vocabulary index, nodePrefix is the
	// minted-node IRI prefix (namespace + lowercased class name + "/") NodeIRI
	// concatenates identities onto.
	iriTerm    rdf.Term
	vocab      Vocab
	nodePrefix string
}

// IRI returns the class IRI term.
func (c Class) IRI() rdf.Term { return c.iriTerm }

// String returns the class name.
func (c Class) String() string { return c.Name }

func newClass(super Super, stereotype, name, desc string) Class {
	c := Class{
		Super: super, Stereotype: stereotype, Name: name, Description: desc,
		iri:        ProvIONS + name,
		nodePrefix: ProvIONS + strings.ToLower(name) + "/",
	}
	c.iriTerm, c.vocab = staticTerm(c.iri)
	return c
}

func entityClass(name, desc string) Class {
	return newClass(SuperEntity, "Data Object", name, desc)
}

func activityClass(name, desc string) Class {
	return newClass(SuperActivity, "I/O API", name, desc)
}

func agentClass(name, desc string) Class {
	return newClass(SuperAgent, "", name, desc)
}

func extClass(name, desc string) Class {
	return newClass(SuperExtensible, "", name, desc)
}

// Entity sub-classes: the seven Data Object kinds.
var (
	Directory = entityClass("Directory", "POSIX file system directory.")
	File      = entityClass("File", "POSIX file system file.")
	Group     = entityClass("Group", "I/O library interior group structure (e.g., HDF5 group).")
	Dataset   = entityClass("Dataset", "I/O library interior dataset structure (e.g., HDF5 dataset).")
	Attribute = entityClass("Attribute", "POSIX Inode extended attribute and I/O library interior attribute structure (e.g., HDF5 attribute).")
	Datatype  = entityClass("Datatype", "I/O library interior datatype structure (e.g., HDF5 datatype).")
	Link      = entityClass("Link", "POSIX file system hard/soft link.")
)

// Activity sub-classes: the six I/O API kinds.
var (
	Create = activityClass("Create", "POSIX syscall \"open\" and I/O library \"Create\" APIs (e.g., H5Acreate).")
	Open   = activityClass("Open", "I/O library \"Open\" APIs (e.g., H5Aopen).")
	Read   = activityClass("Read", "POSIX syscall \"read\" (and variants) and I/O library \"Read\" APIs (e.g., H5Aread).")
	Write  = activityClass("Write", "POSIX syscall \"write\" (and variants) and I/O library \"Write\" APIs (e.g., H5Awrite).")
	Fsync  = activityClass("Fsync", "POSIX syscall \"fsync\" (and variants) and I/O library \"Flush\" APIs (e.g., H5Flush).")
	Rename = activityClass("Rename", "POSIX syscall \"rename\" (and variants) and I/O library \"Rename\" APIs.")
)

// Agent sub-classes.
var (
	User    = agentClass("User", "Workflow user.")
	Thread  = agentClass("Thread", "Individual thread.")
	Program = agentClass("Program", "Program instance.")
)

// Extensible Class sub-classes.
var (
	Type          = extClass("Type", "Type of a program/workflow (e.g., Machine Learning (Top Reco), Acoustic Sensing (DASSA), and Synthetic (H5bench workflow)).")
	Configuration = extClass("Configuration", "Workflow configurations (e.g., hyperparameter in Top Reco).")
	Metrics       = extClass("Metrics", "Evaluation metrics of the workflow. E.g., model accuracy in Top Reco.")
)

// AllClasses returns every concrete sub-class in Table 2 order.
func AllClasses() []Class {
	return []Class{
		Directory, File, Group, Dataset, Attribute, Datatype, Link,
		Create, Open, Read, Write, Fsync, Rename,
		User, Thread, Program,
		Type, Configuration, Metrics,
	}
}

// ClassByName looks up a sub-class by its name.
func ClassByName(name string) (Class, bool) {
	for _, c := range AllClasses() {
		if c.Name == name {
			return c, true
		}
	}
	return Class{}, false
}

// Relation is one PROV-IO relation (predicate) with its Table 2 metadata.
type Relation struct {
	// Prefix is "prov" for inherited W3C relations and "provio" for the
	// new I/O relations PROV-IO introduces.
	Prefix      string
	Name        string
	Description string
	iri         string
	iriTerm     rdf.Term
	vocab       Vocab
}

// IRI returns the relation's predicate term (precomputed — the ingest path
// calls this per record).
func (r Relation) IRI() rdf.Term { return r.iriTerm }

// CURIE returns the compact name, e.g. "provio:wasReadBy".
func (r Relation) CURIE() string { return r.Prefix + ":" + r.Name }

func provRel(name, desc string) Relation {
	return newRelation("prov", ProvNS, name, desc)
}

func provioRel(name, desc string) Relation {
	return newRelation("provio", ProvIONS, name, desc)
}

func newRelation(prefix, ns, name, desc string) Relation {
	r := Relation{Prefix: prefix, Name: name, Description: desc, iri: ns + name}
	r.iriTerm, r.vocab = staticTerm(r.iri)
	return r
}

// Relations inherited from W3C PROV.
var (
	WasDerivedFrom  = provRel("wasDerivedFrom", "The relation between two Entities (derivation).")
	WasAttributedTo = provRel("wasAttributedTo", "The relation between an Entity and an Agent.")
	AssociatedWith  = provRel("wasAssociatedWith", "The relation between an Activity and an Agent.")
	ActedOnBehalfOf = provRel("actedOnBehalfOf", "The relation between two Agents (delegation).")
	WasMemberOf     = provRel("wasMemberOf", "Membership of a sub-class instance in its super-class.")
	Used            = provRel("used", "The relation between an Activity and the Entity it consumed.")
)

// New relations introduced by PROV-IO between I/O API and Data Object
// sub-classes (Table 2).
var (
	WasCreatedBy  = provioRel("wasCreatedBy", "The relation between a <<I/O API>> Create and a <<Data Object>>.")
	WasOpenedBy   = provioRel("wasOpenedBy", "The relation between a <<I/O API>> Open and a <<Data Object>>.")
	WasReadBy     = provioRel("wasReadBy", "The relation between a <<I/O API>> Read and a <<Data Object>>.")
	WasWrittenBy  = provioRel("wasWrittenBy", "The relation between a <<I/O API>> Write and a <<Data Object>>.")
	WasFlushedBy  = provioRel("wasFlushedBy", "The relation between a <<I/O API>> Fsync and a <<Data Object>>.")
	WasModifiedBy = provioRel("wasModifiedBy", "The relation between a <<I/O API>> Rename and a <<Data Object>>.")
)

// Property predicates used by PROV-IO records.
var (
	PropElapsed   = provioRel("elapsed", "Elapsed time of an I/O API invocation in nanoseconds.")
	PropTimestamp = provioRel("startedAt", "Simulated start time of an I/O API invocation in nanoseconds.")
	PropName      = provioRel("name", "Human-readable name of a node.")
	PropVersion   = provioRel("Version", "Version counter of a configuration record.")
	PropAccuracy  = provioRel("hasAccuracy", "Training accuracy attached to a configuration version.")
	PropValue     = provioRel("value", "Value of a configuration or metric record.")
	PropRank      = provioRel("rank", "MPI rank / thread index of a Thread agent.")
	PropType      = provioRel("hasType", "Link from a Program/workflow to its Type record.")
	PropConfig    = provioRel("hasConfiguration", "Link from a workflow to a Configuration record.")
	PropMetric    = provioRel("hasMetrics", "Link from a workflow to a Metrics record.")
)

// AllRelations returns the relation rows of Table 2 (the six new I/O
// relations) plus the inherited W3C relations.
func AllRelations() []Relation {
	return []Relation{
		WasDerivedFrom, WasAttributedTo, AssociatedWith, ActedOnBehalfOf, WasMemberOf, Used,
		WasCreatedBy, WasOpenedBy, WasReadBy, WasWrittenBy, WasFlushedBy, WasModifiedBy,
	}
}

// IORelationFor maps an I/O API sub-class to the provio relation that links
// a Data Object to it, per Table 2.
func IORelationFor(api Class) (Relation, bool) {
	switch api.Name {
	case Create.Name:
		return WasCreatedBy, true
	case Open.Name:
		return WasOpenedBy, true
	case Read.Name:
		return WasReadBy, true
	case Write.Name:
		return WasWrittenBy, true
	case Fsync.Name:
		return WasFlushedBy, true
	case Rename.Name:
		return WasModifiedBy, true
	}
	return Relation{}, false
}

// The static vocabulary terms that are neither a Class nor a Relation.
var (
	_, vocabRDFType  = staticTerm(rdf.RDFType)
	_, vocabEntity   = staticTerm(ProvNS + "Entity")
	_, vocabActivity = staticTerm(ProvNS + "Activity")
	_, vocabAgent    = staticTerm(ProvNS + "Agent")
)
