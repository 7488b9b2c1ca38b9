package rdf

import (
	"strings"
	"testing"
)

// FuzzParseTurtle shakes the Turtle parser with arbitrary documents: it must
// never panic, and any document it accepts must re-serialize and re-parse to
// the same triple count (parse→write→parse fixpoint).
func FuzzParseTurtle(f *testing.F) {
	f.Add("@prefix ex: <http://e/> .\nex:s ex:p ex:o .")
	f.Add(`<http://e/s> <http://e/p> "lit"@en .`)
	f.Add(`<http://e/s> <http://e/p> "5"^^<http://www.w3.org/2001/XMLSchema#integer> .`)
	f.Add("@prefix ex: <http://e/> .\nex:s ex:p ex:a , ex:b ; ex:q 3.5 .")
	f.Add("_:b0 a <http://e/C> .")
	f.Add("# just a comment\n")
	f.Add("@prefix : <http://e/> .\n:s :p true .")
	f.Add(`<http://e/a\u003E\u0020\u003Cb> <http://e/p\U0001F600> "5"^^<http://e/d\u0020t> .`)
	f.Add(`<http://e/s> <http://e/p> 'it\'s' , "\b\f\u00E9" , -.5 , 1e-3 , 1.5E+2 .`)
	f.Add("@prefix ex: <http://e/> .\nex:café ex:a:b _:bé , _:b.c , ex:1a , ex:a- .")
	f.Add("@prefix é: <http://e/> .\né:s·x é:p é:o\u0301 , é:x.y .")
	f.Fuzz(func(t *testing.T, doc string) {
		g, ns, err := ParseTurtle(strings.NewReader(doc))
		if err != nil {
			return // rejected input is fine; panics are not
		}
		var sb strings.Builder
		if err := WriteTurtle(&sb, g, ns); err != nil {
			t.Fatalf("serialize accepted graph: %v", err)
		}
		g2, _, err := ParseTurtle(strings.NewReader(sb.String()))
		if err != nil {
			t.Fatalf("reparse of own output failed: %v\ndoc: %q\nout: %q", err, doc, sb.String())
		}
		if g2.Len() != g.Len() {
			t.Fatalf("fixpoint violated: %d -> %d triples\ndoc: %q", g.Len(), g2.Len(), doc)
		}
	})
}
