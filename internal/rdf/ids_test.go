package rdf

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"
)

func idTestGraph() *Graph {
	g := NewGraph()
	for i := 0; i < 8; i++ {
		g.Add(Triple{
			S: IRI(fmt.Sprintf("http://e/s%d", i%4)),
			P: IRI(fmt.Sprintf("http://e/p%d", i%2)),
			O: Integer(int64(i)),
		})
	}
	return g
}

func TestTermIDRoundTrip(t *testing.T) {
	g := idTestGraph()
	term := IRI("http://e/s1")
	id, ok := g.TermID(term)
	if !ok {
		t.Fatal("interned term has no ID")
	}
	if got := g.TermOf(id); got != term {
		t.Errorf("TermOf(TermID(%v)) = %v", term, got)
	}
	if _, ok := g.TermID(IRI("http://e/absent")); ok {
		t.Error("absent term reported as interned")
	}
	if got := g.TermOf(NoID); !got.IsZero() {
		t.Errorf("TermOf(NoID) = %v, want zero", got)
	}
	if got := g.TermOf(ID(g.TermCount())); !got.IsZero() {
		t.Errorf("TermOf(out of range) = %v, want zero", got)
	}
}

// Property: ForEachMatchIDs agrees with ForEachMatch on every pattern shape.
func TestForEachMatchIDsAgreesWithTerms(t *testing.T) {
	f := func(raw []uint8, shape uint8) bool {
		g := NewGraph()
		for _, v := range raw {
			g.Add(Triple{
				S: IRI(fmt.Sprintf("http://e/s%d", v%5)),
				P: IRI(fmt.Sprintf("http://e/p%d", (v/5)%3)),
				O: IRI(fmt.Sprintf("http://e/o%d", (v/15)%5)),
			})
		}
		sT, pT, oT := IRI("http://e/s0"), IRI("http://e/p0"), IRI("http://e/o0")
		var sp, pp, op *Term
		sid, pid, oid := NoID, NoID, NoID
		// An absent term has no ID; an out-of-range ID matches nothing,
		// mirroring ForEachMatch's early return on a failed lookup.
		idOrMiss := func(t Term) ID {
			if id, ok := g.TermID(t); ok {
				return id
			}
			return ID(g.TermCount())
		}
		if shape&1 != 0 {
			sp = &sT
			sid = idOrMiss(sT)
		}
		if shape&2 != 0 {
			pp = &pT
			pid = idOrMiss(pT)
		}
		if shape&4 != 0 {
			op = &oT
			oid = idOrMiss(oT)
		}
		want := map[Triple]bool{}
		g.ForEachMatch(sp, pp, op, func(tr Triple) bool {
			want[tr] = true
			return true
		})
		got := map[Triple]bool{}
		n := 0
		g.ForEachMatchIDs(sid, pid, oid, func(s, p, o ID) bool {
			got[Triple{S: g.TermOf(s), P: g.TermOf(p), O: g.TermOf(o)}] = true
			n++
			return true
		})
		if n != len(want) || len(got) != len(want) {
			return false
		}
		for tr := range want {
			if !got[tr] {
				return false
			}
		}
		if g.CountMatchIDs(sid, pid, oid) != len(want) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestCountMatchIDsShapes(t *testing.T) {
	g := idTestGraph()
	s0, _ := g.TermID(IRI("http://e/s0"))
	p0, _ := g.TermID(IRI("http://e/p0"))
	o0, _ := g.TermID(Integer(0))
	cases := []struct {
		s, p, o ID
		want    int
	}{
		{NoID, NoID, NoID, g.Len()},
		{s0, NoID, NoID, len(g.Find(IRI("http://e/s0").Ptr(), nil, nil))},
		{NoID, p0, NoID, len(g.Find(nil, IRI("http://e/p0").Ptr(), nil))},
		{NoID, NoID, o0, len(g.Find(nil, nil, Integer(0).Ptr()))},
		{s0, p0, NoID, len(g.Find(IRI("http://e/s0").Ptr(), IRI("http://e/p0").Ptr(), nil))},
		{s0, p0, o0, 1},
		{NoID, NoID, ID(1 << 30), 0},
	}
	for i, c := range cases {
		if got := g.CountMatchIDs(c.s, c.p, c.o); got != c.want {
			t.Errorf("case %d: CountMatchIDs = %d, want %d", i, got, c.want)
		}
	}
}

func TestPredStatsMaintained(t *testing.T) {
	g := NewGraph()
	p := IRI("http://e/p")
	add := func(s, o string) { g.Add(Triple{S: IRI(s), P: p, O: IRI(o)}) }
	add("http://e/a", "http://e/x")
	add("http://e/a", "http://e/y")
	add("http://e/b", "http://e/x")
	pid, _ := g.TermID(p)
	if tr, su, ob := g.PredStats(pid); tr != 3 || su != 2 || ob != 2 {
		t.Fatalf("PredStats = (%d,%d,%d), want (3,2,2)", tr, su, ob)
	}
	// Duplicate add changes nothing.
	add("http://e/a", "http://e/x")
	if tr, su, ob := g.PredStats(pid); tr != 3 || su != 2 || ob != 2 {
		t.Fatalf("after dup add PredStats = (%d,%d,%d), want (3,2,2)", tr, su, ob)
	}
}

func TestIndexStats(t *testing.T) {
	g := idTestGraph()
	su, pr, ob := g.IndexStats()
	if su != 4 || pr != 2 || ob != 8 {
		t.Errorf("IndexStats = (%d,%d,%d), want (4,2,8)", su, pr, ob)
	}
}

// Regression: g.Merge(g) used to deadlock — ForEachMatch held the read lock
// while Add waited on the write lock of the same mutex. Self-merge must be a
// no-op.
func TestMergeSelfIsNoOp(t *testing.T) {
	g := idTestGraph()
	before := g.Len()
	done := make(chan int, 1)
	go func() { done <- g.Merge(g) }()
	select {
	case n := <-done:
		if n != 0 {
			t.Errorf("self-merge added %d triples, want 0", n)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("self-merge deadlocked")
	}
	if g.Len() != before {
		t.Errorf("self-merge changed size: %d -> %d", before, g.Len())
	}
}
