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
	Build(*rdf.Graph, []rdf.Triple, []byte) ([]rdf.Triple, []byte, rdf.Term)
}

// randRecords draws n records of all four kinds, with values that repeat
// (re-tracked objects, recurring durations) and values that never do.
func randRecords(rng *rand.Rand, n int) []record {
	iri := func() string {
		if rng.Intn(3) == 0 {
			return ""
		}
		return NodeIRI(randClass(rng), randIdentity(rng))
	}
	term := func() rdf.Term {
		if v := iri(); v != "" {
			return rdf.IRI(v)
		}
		return rdf.Term{}
	}
	out := make([]record, n)
	for i := range out {
		switch rng.Intn(4) {
		case 0:
			out[i] = DataObjectRecord{Class: randClass(rng), ID: randIdentity(rng),
				Name: []string{"", "x"}[rng.Intn(2)], Container: iri(), AttributedTo: iri()}
		case 1:
			out[i] = IOActivityRecord{Class: []Class{Create, Open, Read, Write, Fsync, Rename}[rng.Intn(6)],
				API: []string{"H5Dwrite", "write", "my api> <x"}[rng.Intn(3)], PID: rng.Intn(3), Seq: rng.Intn(40),
				Object: term(), Agent: term(), TrackDuration: rng.Intn(4) > 0,
				Elapsed: time.Duration(rng.Intn(5)) * 250 * time.Microsecond,
				Started: time.Duration(rng.Int63n(1 << 40))}
		case 2:
			out[i] = AgentRecord{Class: []Class{User, Program, Thread}[rng.Intn(3)], ID: randIdentity(rng),
				Name: []string{"", "n"}[rng.Intn(2)], OnBehalfOf: iri(), Rank: rng.Intn(300) - 1}
		default:
			out[i] = ExtensibleRecord{Class: []Class{Type, Configuration, Metrics}[rng.Intn(3)],
				Owner: iri(), Key: randIdentity(rng), Value: []rdf.Term{{}, rdf.Literal("v"), rdf.Double(0.5)}[rng.Intn(3)],
				Version: rng.Intn(12) - 1, Accuracy: rng.Float64(), HasAccuracy: rng.Intn(2) == 0}
		}
	}
	return out
}

// TestBuildThroughGraphMatchesAppendTriples: a record kind has one
// triple-building function, so minting through a graph out of a reused buffer
// must yield the very triples AppendTriples builds from fresh strings — and
// they must still read the same after the buffer and the dictionary's string
// chunks have been reused and retired many times over.
func TestBuildThroughGraphMatchesAppendTriples(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := rdf.NewGraph()
	var ts, all, want []rdf.Triple
	var buf []byte
	for i, rec := range randRecords(rng, 4000) {
		plain, plainNode := rec.AppendTriples(nil)
		var node rdf.Term
		ts, buf, node = rec.Build(g, ts[:0], buf)
		if node != plainNode || !slices.Equal(ts, plain) {
			t.Fatalf("record %d %+v:\n through the graph %v\n AppendTriples     %v", i, rec, ts, plain)
		}
		if _, ok := g.TermID(node); !ok {
			t.Fatalf("record %d: node %v is not interned in the graph it was minted through", i, node)
		}
		g.AddBatch(ts)
		all, want = append(all, ts...), append(want, plain...)
	}
	if !slices.Equal(all, want) {
		t.Fatal("triples minted through the graph changed after later records reused the buffer")
	}
}

// TestAppendTriplesAllocs: without a graph a record still costs only its
// value strings — the buffer they are formatted in stays on the stack.
func TestAppendTriplesAllocs(t *testing.T) {
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
