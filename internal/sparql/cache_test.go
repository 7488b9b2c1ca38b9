package sparql

import (
	"fmt"
	"strings"
	"testing"

	"github.com/hpc-io/prov-io/internal/rdf"
)

const cacheQuery = `SELECT ?e ?s WHERE { ?e <` + exNS + `size> ?s . }`

func execInfo(t *testing.T, g *rdf.Graph, query string, workers int) (*Result, ExecInfo) {
	t.Helper()
	res, info, err := ExecParallelInfo(g, query, nil, workers)
	if err != nil {
		t.Fatalf("ExecParallelInfo(%q): %v", query, err)
	}
	return res, info
}

func TestCacheHitAfterNoop(t *testing.T) {
	g := lineageGraph()
	cold, coldInfo := execInfo(t, g, cacheQuery, 1)
	if coldInfo.CacheHit {
		t.Fatal("first execution reported a cache hit")
	}
	warm, warmInfo := execInfo(t, g, cacheQuery, 1)
	if !warmInfo.CacheHit {
		t.Fatal("repeat against an unchanged graph missed the cache")
	}
	if warm != cold {
		t.Fatal("cache hit returned a different *Result than the cold run")
	}
	if !strings.Contains(warmInfo.Summary(), "cache hit") {
		t.Errorf("Summary() = %q, want a cache-hit report", warmInfo.Summary())
	}
}

func TestCacheMissAfterAdd(t *testing.T) {
	g := lineageGraph()
	cold, _ := execInfo(t, g, cacheQuery, 1)
	g.Add(rdf.Triple{S: exIRI("new.h5"), P: exIRI("size"), O: rdf.Integer(42)})
	fresh, info := execInfo(t, g, cacheQuery, 1)
	if info.CacheHit {
		t.Fatal("Add did not invalidate the result cache")
	}
	if len(fresh.Rows) != len(cold.Rows)+1 {
		t.Fatalf("post-Add rows = %d, want %d", len(fresh.Rows), len(cold.Rows)+1)
	}
}

func TestCacheKeyedByQueryText(t *testing.T) {
	g := lineageGraph()
	execInfo(t, g, cacheQuery, 1)
	other := `SELECT ?e WHERE { ?e <` + exNS + `size> ?s . }`
	_, info := execInfo(t, g, other, 1)
	if info.CacheHit {
		t.Fatal("a different query hit the first query's cache entry")
	}
}

// bigDecisionGraph pads a graph well past minParallelScan with chains and
// two attribution families, so scans, paths, and UNION alternatives all
// have parallel-sized domains.
func bigDecisionGraph() *rdf.Graph {
	g := rdf.NewGraph()
	derived := rdf.IRI("http://www.w3.org/ns/prov#wasDerivedFrom")
	attr := rdf.IRI("http://www.w3.org/ns/prov#wasAttributedTo")
	for i := 0; i < 400; i++ {
		s := exIRI(fmt.Sprintf("f%d", i))
		g.Add(rdf.Triple{S: s, P: derived, O: exIRI(fmt.Sprintf("f%d", i/2))})
		g.Add(rdf.Triple{S: s, P: attr, O: exIRI([]string{"progA", "progB"}[i%2])})
		g.Add(rdf.Triple{S: s, P: exIRI("size"), O: rdf.Integer(int64(i % 91))})
	}
	return g
}

func decideFor(t *testing.T, g *rdf.Graph, query string, workers int) decision {
	t.Helper()
	q, err := Parse(query, testNS())
	if err != nil {
		t.Fatalf("parse %q: %v", query, err)
	}
	snap := g.Snapshot()
	return decideParallel(snap, Compile(snap, q), workers)
}

// TestNoSerialFallbackForUnionAndPaths pins the tentpole guarantee: UNION
// and property-path plans with parallel-sized domains decompose into tasks
// instead of falling back to serial.
func TestNoSerialFallbackForUnionAndPaths(t *testing.T) {
	g := bigDecisionGraph()
	cases := []struct {
		query    string
		minTasks int
	}{
		{`SELECT ?x WHERE { { ?x prov:wasAttributedTo ex:progA } UNION { ?x prov:wasAttributedTo ex:progB } }`, 2},
		{`SELECT ?s ?anc WHERE { ?s prov:wasDerivedFrom+ ?anc . }`, 1},
		{`SELECT ?s ?anc WHERE { ?s prov:wasDerivedFrom/prov:wasDerivedFrom ?anc . }`, 1},
		{`SELECT ?x ?s WHERE { { ?x prov:wasAttributedTo ex:progA } UNION { ?x prov:wasDerivedFrom+ ?s } }`, 2},
	}
	for _, c := range cases {
		dec := decideFor(t, g, c.query, 4)
		if dec.reason != "" {
			t.Errorf("%q fell back to serial: %s", c.query, dec.reason)
			continue
		}
		if len(dec.tasks) < c.minTasks {
			t.Errorf("%q decomposed into %d task(s), want >= %d", c.query, len(dec.tasks), c.minTasks)
		}
	}
}

// TestSerialReasonsNamed checks that every remaining serial case reports a
// specific, named reason (surfaced by provio-query -plan and the stderr
// stats line).
func TestSerialReasonsNamed(t *testing.T) {
	big := bigDecisionGraph()
	small := lineageGraph()
	cases := []struct {
		g     *rdf.Graph
		query string
		want  string
		wkrs  int
	}{
		{big, `SELECT ?e ?s WHERE { ?e ex:size ?s . }`, "workers <= 1", 1},
		{small, `SELECT ?e ?s WHERE { ?e ex:size ?s . }`, "below parallel threshold", 4},
		{big, `SELECT ?e WHERE { ?e ex:size ex:no-such-object . }`, "dead constant", 4},
	}
	for _, c := range cases {
		dec := decideFor(t, c.g, c.query, c.wkrs)
		if dec.reason == "" {
			t.Errorf("%q (workers=%d) did not stay serial", c.query, c.wkrs)
			continue
		}
		if !strings.Contains(dec.reason, c.want) {
			t.Errorf("%q: reason = %q, want it to mention %q", c.query, dec.reason, c.want)
		}
	}
}

// TestExplainWorkersShowsDecision: the EXPLAIN rendering ends with the
// parallel decision — tasks for parallel plans, the named reason otherwise.
func TestExplainWorkersShowsDecision(t *testing.T) {
	g := bigDecisionGraph()
	out, err := Explain(g.Snapshot(), `SELECT ?e ?s WHERE { ?e <`+exNS+`size> ?s . }`, nil, 4)
	if err != nil {
		t.Fatalf("Explain: %v", err)
	}
	if !strings.Contains(out, "parallel:") || !strings.Contains(out, "task(s)") {
		t.Errorf("EXPLAIN missing parallel decision:\n%s", out)
	}
	out, err = Explain(g.Snapshot(), `SELECT ?e ?s WHERE { ?e <`+exNS+`size> ?s . }`, nil, 1)
	if err != nil {
		t.Fatalf("Explain: %v", err)
	}
	if !strings.Contains(out, "serial") || !strings.Contains(out, "workers <= 1") {
		t.Errorf("EXPLAIN missing serial reason:\n%s", out)
	}
}
