package model

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/hpc-io/prov-io/internal/rdf"
)

// refEscapeIdentity, refNodeIRI and refExtensibleIRI are the IRI minting this
// package did with string concatenation before values were formatted into a
// reused buffer, kept as the reference the buffer formatting must match byte
// for byte (stores on disk hold these IRIs).
func refEscapeIdentity(id string) string {
	isSafe := func(r rune) bool {
		return r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' ||
			r == '/' || r == '.' || r == '-' || r == '_'
	}
	safe := true
	for _, r := range id {
		safe = safe && isSafe(r)
	}
	if safe {
		return strings.TrimPrefix(id, "/")
	}
	sum := sha256.Sum256([]byte(id))
	var b strings.Builder
	for _, r := range id {
		if isSafe(r) {
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	return strings.TrimPrefix(b.String(), "/") + "-" + hex.EncodeToString(sum[:4])
}

func refNodeIRI(class Class, identity string) string {
	return ProvIONS + strings.ToLower(class.Name) + "/" + refEscapeIdentity(identity)
}

func refExtensibleIRI(r ExtensibleRecord) string {
	id := r.Key
	if r.Owner != "" {
		id = strings.TrimPrefix(r.Owner, ProvIONS) + "/" + r.Key
	}
	if r.Version >= 0 {
		id += "/v" + strconv.Itoa(r.Version)
	}
	return refNodeIRI(r.Class, id)
}

// randIdentity draws identities that exercise every escaping rule: plain
// paths, leading slashes, IRI-breaking ASCII, multi-byte runes, stray
// continuation and lead bytes, an encoded U+FFFD, and the empty string.
func randIdentity(rng *rand.Rand) string {
	pieces := []string{
		"a", "Z", "0", "/", "//", ".", "-", "_", "x.h5", "Timestep_0",
		" ", "<", ">", "\"", "#", "%", "\\", "\n", "é", "日本", "\U0001F600",
		"\x80", "\xc3", "\xff", "\xef\xbf\xbd", "\xe6\x97",
	}
	var b strings.Builder
	for n := rng.Intn(7); n > 0; n-- {
		b.WriteString(pieces[rng.Intn(len(pieces))])
	}
	if rng.Intn(4) == 0 {
		b.WriteString(strings.Repeat("/long/path/component", 1+rng.Intn(12)))
	}
	return b.String()
}

func randClass(rng *rand.Rand) Class {
	if rng.Intn(8) == 0 {
		return Class{Name: "HandBuilt"} // no precomputed prefix
	}
	all := AllClasses()
	return all[rng.Intn(len(all))]
}

func TestIRIsMatchStringReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	owners := []string{"", ProvIONS, ProvIONS + "program/topreco-a1", ProvIONS + "/x", "http://other.org/o", "o w<ner"}
	for i := 0; i < 20000; i++ {
		class, id := randClass(rng), randIdentity(rng)
		if got, want := NodeIRI(class, id), refNodeIRI(class, id); got != want {
			t.Fatalf("NodeIRI(%s, %q) = %q, want %q", class.Name, id, got, want)
		}
		rec := ExtensibleRecord{Class: class, Owner: owners[rng.Intn(len(owners))], Key: id,
			Version: []int{-1, 0, 7, 1234567}[rng.Intn(4)]}
		if got, want := rec.IRI().Value, refExtensibleIRI(rec); got != want {
			t.Fatalf("%+v.IRI() = %q, want %q", rec, got, want)
		}
	}
}

// TestActivityIRIEscapesAPIName: an IRI-safe API name is pasted as it always
// was; any other is escaped by the node-identity rules (minus the slash
// trim), so the IRI survives a text store, and stays distinct from its
// look-alikes through the hash suffix.
func TestActivityIRIEscapesAPIName(t *testing.T) {
	for _, api := range []string{"H5Dwrite", "write", "MPI_File_write_at", "adios2.Put", "/odd/but-safe", ""} {
		if got, want := ActivityIRI(api, 3, 14), ProvIONS+"api/"+api+"-p3-b14"; got != want {
			t.Errorf("ActivityIRI(%q) = %q, want %q", api, got, want)
		}
	}
	seen := map[string]string{}
	for _, api := range []string{"my api> <x", "my api> <y", "my_api___x", "wr\xffite", "écrire", "a b", "a\tb"} {
		got := ActivityIRI(api, 0, 1)
		body := strings.TrimPrefix(got, ProvIONS+"api/")
		if body == got || strings.ContainsFunc(body, func(r rune) bool { return r >= 0x80 || !identitySafe(byte(r)) }) {
			t.Errorf("ActivityIRI(%q) = %q: unsafe characters survive", api, got)
		}
		if prev, dup := seen[got]; dup {
			t.Errorf("ActivityIRI(%q) and (%q) are both %q", api, prev, got)
		}
		seen[got] = api
	}
}

type record interface {
	AppendTriples([]rdf.Triple) ([]rdf.Triple, rdf.Term)
	Record
}

// callerTerms are what a caller may hand a tracking call where a node is
// expected: nothing, the IRI the API means, a blank node, literals plain and
// tagged (which RDF forbids as a subject), an IRI no text format takes raw,
// and a term of no kind at all.
var callerTerms = []rdf.Term{
	{}, rdf.IRI(ProvIONS + "file/a.h5"), rdf.Blank("b0"), rdf.Literal("lit x"), rdf.Integer(7),
	rdf.LangLiteral("été", "fr"), rdf.IRI("http://x/a> <http://x/b"), {Kind: 9, Value: "no such kind"},
}

// randRecords draws n records of all five kinds, with values that repeat
// (re-tracked objects, recurring durations) and values that never do, and with
// every callerTerms entry in every position a caller fills.
func randRecords(rng *rand.Rand, n int) []record {
	iri := func() string {
		if rng.Intn(3) == 0 {
			return ""
		}
		return NodeIRI(randClass(rng), randIdentity(rng))
	}
	term := func() rdf.Term {
		if rng.Intn(2) == 0 {
			return callerTerms[rng.Intn(len(callerTerms))]
		}
		if v := iri(); v != "" {
			return rdf.IRI(v)
		}
		return rdf.Term{}
	}
	// A caller's node, given as the string field or as the Term field.
	either := func() (string, rdf.Term) {
		if rng.Intn(2) == 0 {
			return iri(), rdf.Term{}
		}
		return "", term()
	}
	out := make([]record, n)
	for i := range out {
		switch rng.Intn(5) {
		case 0:
			rec := DataObjectRecord{Class: randClass(rng), ID: randIdentity(rng), Name: []string{"", "x"}[rng.Intn(2)]}
			rec.Container, rec.ContainerTerm = either()
			rec.AttributedTo, rec.AttributedToTerm = either()
			out[i] = rec
		case 1:
			out[i] = IOActivityRecord{Class: []Class{Create, Open, Read, Write, Fsync, Rename}[rng.Intn(6)],
				API: []string{"H5Dwrite", "write", "my api> <x"}[rng.Intn(3)], PID: rng.Intn(3), Seq: rng.Intn(40),
				Object: term(), Agent: term(), TrackDuration: rng.Intn(4) > 0,
				Elapsed: time.Duration(rng.Intn(5)) * 250 * time.Microsecond,
				Started: time.Duration(rng.Int63n(1 << 40))}
		case 2:
			rec := AgentRecord{Class: []Class{User, Program, Thread}[rng.Intn(3)], ID: randIdentity(rng),
				Name: []string{"", "n"}[rng.Intn(2)], Rank: rng.Intn(300) - 1}
			rec.OnBehalfOf, rec.OnBehalfOfTerm = either()
			out[i] = rec
		case 3:
			rec := ExtensibleRecord{Class: []Class{Type, Configuration, Metrics}[rng.Intn(3)],
				Key: randIdentity(rng), Value: append(callerTerms, rdf.Literal("v"), rdf.Double(0.5))[rng.Intn(len(callerTerms)+2)],
				Version: rng.Intn(12) - 1, Accuracy: rng.Float64(), HasAccuracy: rng.Intn(2) == 0}
			rec.Owner, rec.OwnerTerm = either()
			out[i] = rec
		default:
			out[i] = DerivationRecord{Product: term(), Source: term()}
		}
	}
	return out
}

// termTriples is g's insertion log as terms.
func termTriples(g *rdf.Graph) []rdf.Triple {
	refs, _ := g.RefsSince(0)
	out := make([]rdf.Triple, len(refs))
	for i, r := range refs {
		out[i] = rdf.Triple{S: g.TermOf(r.S), P: g.TermOf(r.P), O: g.TermOf(r.O)}
	}
	return out
}

// TestBuildThroughGraphMatchesAppendTriples: a record kind has one shape, so
// resolving it against a graph's dictionary out of a reused buffer and
// inserting the IDs must leave the graph that listing it as terms
// (AppendTriples) and inserting those (AddBatch) leaves — the same node, the
// same count of triples listed and of triples newly added, the same insertion
// log — for every record kind, identities plain, hostile and over-long, and
// caller terms of every kind in every position; and a triple the graph skips
// must not have put a vocabulary term into its dictionary. The triples must
// still read the same after the buffer and the dictionary's string chunks have
// been reused and retired many times over.
func TestBuildThroughGraphMatchesAppendTriples(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	byID, byTerm := rdf.NewGraph(), rdf.NewGraph()
	in := &GraphInterner{Graph: byID}
	var refs []rdf.TripleID
	var buf []byte
	for i, rec := range randRecords(rng, 6000) {
		plain, plainNode := rec.AppendTriples(nil)
		var nodeID rdf.ID
		refs, buf, nodeID = rec.AppendRefs(in, refs[:0], buf)
		if node := byID.TermOf(nodeID); node != plainNode {
			t.Fatalf("record %d %+v: node %v through the graph, %v by AppendTriples", i, rec, node, plainNode)
		}
		if len(refs) != len(plain) {
			t.Fatalf("record %d %+v: %d triples through the graph, AppendTriples lists %d", i, rec, len(refs), len(plain))
		}
		for j, r := range refs {
			got := rdf.Triple{S: byID.TermOf(r.S), P: byID.TermOf(r.P), O: byID.TermOf(r.O)}
			if plain[j].Valid() && got != plain[j] {
				t.Fatalf("record %d %+v triple %d:\n through the graph %v\n AppendTriples     %v", i, rec, j, got, plain[j])
			}
			if !plain[j].Valid() && got.Valid() {
				t.Fatalf("record %d %+v triple %d: %v is not RDF, yet resolved to %v", i, rec, j, plain[j], got)
			}
		}
		if got, want := byID.AddRefs(refs), byTerm.AddBatch(plain); got != want {
			t.Fatalf("record %d %+v: %d triples newly added through the graph, %d by AddBatch", i, rec, got, want)
		}
		for _, v := range vocabTerms[1:] {
			if _, held := byID.TermID(v); held {
				if _, used := byTerm.TermID(v); !used {
					t.Fatalf("record %d %+v: the graph holds %v, which no triple references", i, rec, v)
				}
			}
		}
	}
	if got, want := termTriples(byID), termTriples(byTerm); !slices.Equal(got, want) {
		t.Fatalf("insertion logs differ: %d triples through the graph, %d by AddBatch", len(got), len(want))
	}
}

// TestAppendTriplesAllocs: listed as terms a record still costs only its
// value strings — the list and the buffer they are formatted in are pooled.
func TestAppendTriplesAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	obj, agent := DataObjectRecord{Class: Dataset, ID: "/f.h5/x"}.IRI(), AgentRecord{Class: Program, ID: "p"}.IRI()
	dst := make([]rdf.Triple, 0, 8)
	seq := 0
	got := testing.AllocsPerRun(200, func() {
		seq++
		rec := IOActivityRecord{Class: Write, API: "H5Dwrite", PID: 1, Seq: seq, Object: obj, Agent: agent,
			Elapsed: 250 * time.Microsecond, Started: time.Duration(seq) * time.Millisecond, TrackDuration: true}
		if ts, _ := rec.AppendTriples(dst); len(ts) != 6 {
			panic(fmt.Sprint("built ", len(ts), " triples"))
		}
	})
	if got > 3 {
		t.Fatalf("IOActivityRecord.AppendTriples allocates %.1f objects, want its 3 value strings", got)
	}
}
