package rdf

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"
)

func tr(s, p, o string) Triple {
	return Triple{IRI("http://e/" + s), IRI("http://e/" + p), IRI("http://e/" + o)}
}

func TestGraphAddHasLen(t *testing.T) {
	g := NewGraph()
	if g.Len() != 0 {
		t.Fatalf("empty graph Len = %d", g.Len())
	}
	if !g.Add(tr("s", "p", "o")) {
		t.Fatal("first Add returned false")
	}
	if g.Add(tr("s", "p", "o")) {
		t.Fatal("duplicate Add returned true")
	}
	if !g.Has(tr("s", "p", "o")) {
		t.Fatal("Has missed inserted triple")
	}
	if g.Has(tr("s", "p", "x")) {
		t.Fatal("Has found absent triple")
	}
	if g.Len() != 1 {
		t.Fatalf("Len = %d, want 1", g.Len())
	}
}

func TestGraphRejectsInvalid(t *testing.T) {
	g := NewGraph()
	if g.Add(Triple{Literal("x"), IRI("p"), IRI("o")}) {
		t.Error("Add accepted literal subject")
	}
	if g.Len() != 0 {
		t.Error("invalid triple changed size")
	}
}

func TestGraphFindPatterns(t *testing.T) {
	g := NewGraph()
	g.Add(tr("s1", "p1", "o1"))
	g.Add(tr("s1", "p1", "o2"))
	g.Add(tr("s1", "p2", "o1"))
	g.Add(tr("s2", "p1", "o1"))

	s1 := IRI("http://e/s1")
	p1 := IRI("http://e/p1")
	o1 := IRI("http://e/o1")

	cases := []struct {
		name    string
		s, p, o *Term
		want    int
	}{
		{"all", nil, nil, nil, 4},
		{"s", &s1, nil, nil, 3},
		{"p", nil, &p1, nil, 3},
		{"o", nil, nil, &o1, 3},
		{"sp", &s1, &p1, nil, 2},
		{"so", &s1, nil, &o1, 2},
		{"po", nil, &p1, &o1, 2},
		{"spo", &s1, &p1, &o1, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := g.Find(c.s, c.p, c.o)
			if len(got) != c.want {
				t.Errorf("Find returned %d triples, want %d: %v", len(got), c.want, got)
			}
			for _, m := range got {
				if !g.Has(m) {
					t.Errorf("Find returned absent triple %v", m)
				}
			}
		})
	}
}

func TestGraphFindUnknownTerm(t *testing.T) {
	g := NewGraph()
	g.Add(tr("s", "p", "o"))
	unknown := IRI("http://e/none")
	if got := g.Find(&unknown, nil, nil); len(got) != 0 {
		t.Errorf("Find with unknown subject returned %v", got)
	}
	if got := g.Find(nil, &unknown, nil); len(got) != 0 {
		t.Errorf("Find with unknown predicate returned %v", got)
	}
	if got := g.Find(nil, nil, &unknown); len(got) != 0 {
		t.Errorf("Find with unknown object returned %v", got)
	}
}

func TestForEachMatchEarlyStop(t *testing.T) {
	g := NewGraph()
	for i := 0; i < 10; i++ {
		g.Add(tr("s", "p", fmt.Sprintf("o%d", i)))
	}
	n := 0
	g.ForEachMatch(nil, nil, nil, func(Triple) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Errorf("early stop visited %d, want 3", n)
	}
}

func TestSortedTriplesDeterministic(t *testing.T) {
	g := NewGraph()
	g.Add(tr("b", "p", "o"))
	g.Add(tr("a", "q", "o"))
	g.Add(tr("a", "p", "o"))
	g.Add(tr("a", "p", "n"))
	ts := g.SortedTriples()
	want := []Triple{tr("a", "p", "n"), tr("a", "p", "o"), tr("a", "q", "o"), tr("b", "p", "o")}
	for i := range want {
		if ts[i] != want[i] {
			t.Fatalf("position %d: got %v, want %v", i, ts[i], want[i])
		}
	}
}

func TestSubjects(t *testing.T) {
	g := NewGraph()
	g.Add(tr("b", "p", "o"))
	g.Add(tr("a", "p", "o"))
	g.Add(tr("a", "q", "o"))
	subs := g.Subjects()
	if len(subs) != 2 {
		t.Fatalf("Subjects = %v, want 2 entries", subs)
	}
	if subs[0].Value != "http://e/a" || subs[1].Value != "http://e/b" {
		t.Errorf("Subjects not sorted: %v", subs)
	}
}

func TestMergeDeduplicates(t *testing.T) {
	a, b := NewGraph(), NewGraph()
	a.Add(tr("s", "p", "o"))
	a.Add(tr("s", "p", "o2"))
	b.Add(tr("s", "p", "o"))
	b.Add(tr("x", "y", "z"))
	added := a.Merge(b)
	if added != 1 {
		t.Errorf("Merge added %d, want 1", added)
	}
	if a.Len() != 3 {
		t.Errorf("merged Len = %d, want 3", a.Len())
	}
}

// cloneGraph is a new graph of g's triples, an oracle a test can add to
// without touching g.
func cloneGraph(g *Graph) *Graph {
	c := NewGraph()
	c.Merge(g)
	return c
}

func TestTermCount(t *testing.T) {
	g := NewGraph()
	g.Add(tr("s", "p", "o"))
	g.Add(tr("s", "p", "o2"))
	if got := g.TermCount(); got != 4 {
		t.Errorf("TermCount = %d, want 4 (s, p, o, o2)", got)
	}
}

func TestGraphConcurrentAdd(t *testing.T) {
	g := NewGraph()
	var wg sync.WaitGroup
	const workers, per = 8, 200
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				g.Add(tr(fmt.Sprintf("s%d", w), "p", fmt.Sprintf("o%d", i)))
				g.Has(tr("s0", "p", "o0"))
				g.Find(nil, nil, nil)
			}
		}(w)
	}
	wg.Wait()
	if g.Len() != workers*per {
		t.Errorf("Len = %d, want %d", g.Len(), workers*per)
	}
}

// Property: for any sequence of triples, Len equals the number of distinct
// valid triples added, and Has holds for each of them.
func TestGraphAddLenProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		g := NewGraph()
		seen := make(map[Triple]bool)
		for _, v := range raw {
			x := tr(fmt.Sprintf("s%d", v%5), fmt.Sprintf("p%d", (v/5)%3), fmt.Sprintf("o%d", (v/15)%4))
			g.Add(x)
			seen[x] = true
		}
		if g.Len() != len(seen) {
			return false
		}
		for x := range seen {
			if !g.Has(x) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMassSameTypeInsertLinear(t *testing.T) {
	// 50k nodes of the same class exercise the long shared POS list; this
	// must complete quickly (appends, not per-insert scans).
	g := NewGraph()
	p, o := IRI("http://e/type"), IRI("http://e/File")
	for i := 0; i < 50000; i++ {
		g.Add(Triple{S: IRI(fmt.Sprintf("http://e/n%d", i)), P: p, O: o})
	}
	if g.Len() != 50000 {
		t.Fatalf("Len = %d", g.Len())
	}
	n := 0
	g.ForEachMatch(nil, &p, &o, func(Triple) bool { n++; return true })
	if n != 50000 {
		t.Errorf("POS iteration = %d", n)
	}
}
