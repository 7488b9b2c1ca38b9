package rdf

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// dictModel checks a termDict against the obviously right dictionary: a
// map[Term]ID plus the []Term of first interns.
type dictModel struct {
	t     *testing.T
	d     termDict
	ids   map[Term]ID
	terms []Term
	buf   []byte // the caller's reused buffer of internBytes
}

func newDictModel(t *testing.T) *dictModel {
	m := &dictModel{t: t, ids: make(map[Term]ID)}
	m.d.init()
	return m
}

func (m *dictModel) intern(term Term) {
	m.t.Helper()
	m.interned(term, m.d.intern(term))
}

// internBytes interns term with its value passed as bytes, then scribbles
// over those bytes: the dictionary must have copied what it kept.
func (m *dictModel) internBytes(term Term) {
	m.t.Helper()
	m.buf = append(m.buf[:0], term.Value...)
	shape := term
	shape.Value = ""
	got := m.d.internBytes(shape, m.buf)
	for i := range m.buf {
		m.buf[i] ^= 0xff
	}
	m.interned(term, got)
}

// interned checks the ID either intern handed out for term.
func (m *dictModel) interned(term Term, got ID) {
	m.t.Helper()
	want, seen := m.ids[term]
	if !seen {
		want = ID(len(m.terms))
		m.ids[term] = want
		m.terms = append(m.terms, term)
	}
	if got != want {
		m.t.Fatalf("intern(%#v) = %d, want %d (seen before: %v)", term, got, want, seen)
	}
	if got := m.d.termAt(want); got != term {
		m.t.Fatalf("termAt(%d) = %#v, want %#v", want, got, term)
	}
}

func (m *dictModel) lookup(term Term) {
	m.t.Helper()
	want, seen := m.ids[term]
	if got, ok := m.d.lookup(term); ok != seen || (ok && got != want) {
		m.t.Fatalf("lookup(%#v) = (%d, %v), want (%d, %v)", term, got, ok, want, seen)
	}
}

// sweep checks every interned term against both directions of the table and
// the bounds of the ID space.
func (m *dictModel) sweep() {
	m.t.Helper()
	if got := m.d.count(); got != len(m.terms) {
		m.t.Fatalf("count = %d, want %d", got, len(m.terms))
	}
	tt := m.d.snapshot()
	if tt.len() != len(m.terms) {
		m.t.Fatalf("snapshot len = %d, want %d", tt.len(), len(m.terms))
	}
	for id, term := range m.terms {
		if got := tt.at(ID(id)); got != term {
			m.t.Fatalf("at(%d) = %#v, want %#v", id, got, term)
		}
		m.lookup(term)
	}
	for _, id := range []ID{ID(len(m.terms)), ID(len(m.terms)) + 1, NoID - 1, NoID} {
		if got := m.d.termAt(id); !got.IsZero() {
			m.t.Fatalf("termAt(%d) beyond the table = %#v, want zero", id, got)
		}
	}
}

// adversarialTerm maps three bytes onto a universe built to collide wherever
// a dictionary could cut a corner: one lexical form under all three kinds,
// Datatype "" vs xsd:string vs xsd:integer, a language tag and a datatype
// with the same text, the empty literal, long IRIs that differ only in their
// first byte, and (through c) a few hundred distinct (Lang, Datatype) pairs.
func adversarialTerm(a, b, c byte) Term {
	t := Term{Kind: IRITerm + TermKind(a%3)}
	switch v := int(b); {
	case v < 8:
		t.Value = []string{"", "x", "en", XSDInteger, "http://e/a", "0", " ", "\x00"}[v]
	case v < 72:
		// The old stripe hash read only the last 16 bytes.
		t.Value = string(rune('A'+v-8)) + strings.Repeat("/same/long/tail", 4)
	default:
		t.Value = fmt.Sprintf("http://e/v%d", v)
	}
	switch v := int(c); {
	case v < 48: // plain: the common case stays common
	case v == 48:
		t.Datatype = XSDString
	case v == 49:
		t.Datatype = XSDInteger
	case v == 50:
		t.Lang = "en"
	case v == 51:
		t.Datatype = "en"
	case v == 52:
		t.Lang, t.Datatype = "en", XSDInteger
	case v == 53:
		t.Lang, t.Datatype = XSDInteger, "en"
	case v < 160:
		t.Lang = fmt.Sprintf("l%d", v)
	default:
		t.Datatype = fmt.Sprintf("http://e/dt%d", v)
	}
	return t
}

// runDictOps drives a fresh dictionary and its model through the op sequence
// ops encodes: three bytes per op, the top two bits of the first choosing
// lookup, intern by bytes (one in four each) or intern.
func runDictOps(t *testing.T, ops []byte) {
	m := newDictModel(t)
	for ; len(ops) >= 3; ops = ops[3:] {
		term := adversarialTerm(ops[0]&0x3f, ops[1], ops[2])
		switch ops[0] >> 6 {
		case 3:
			m.lookup(term)
		case 2:
			m.internBytes(term)
		default:
			m.intern(term)
		}
	}
	m.sweep()
}

// TestDictModelEquivalence: IDs are dense in first-intern order, TermOf
// inverts Intern, and an absent term is !ok — over random ops on the
// adversarial universe, and over enough distinct terms to double the slot
// table at least 8 times.
func TestDictModelEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for round := 0; round < 7; round++ {
		ops := make([]byte, 3*(1<<(4+2*round))) // 16 ops ... 64 k ops
		rng.Read(ops)
		runDictOps(t, ops)
	}

	m := newDictModel(t)
	for _, a := range []byte{0, 1, 2} {
		for c := 0; c < 256; c++ {
			m.intern(adversarialTerm(a, 1, byte(c)))
		}
	}
	if pairs := len(*m.d.aux.Load()); pairs <= 64 {
		t.Fatalf("side table holds %d (Lang, Datatype) pairs, want > 64", pairs)
	}
	// Distinct by struct equality, every one of them.
	for _, term := range []Term{
		Literal(""), IRI(""), Blank(""),
		Literal("1"), {Kind: LiteralTerm, Value: "1", Datatype: XSDString}, Integer(1),
		LangLiteral("1", "en"), {Kind: LiteralTerm, Value: "1", Datatype: "en"},
	} {
		m.lookup(term)
		m.intern(term)
	}
	before := len(m.terms)
	for i := 0; i < 40000; i++ {
		m.intern(IRI(fmt.Sprintf("http://e/r%d/io%d", i%16, i)))
		m.lookup(IRI(fmt.Sprintf("http://e/r%d/io%d", i%16, i+1)))
	}
	if len(m.terms) != before+40000 {
		t.Fatalf("interned %d terms, want %d", len(m.terms)-before, 40000)
	}
	if n := len(*m.d.slots.Load()); n < minDictSlots<<8 {
		t.Fatalf("the table has %d slots after 40 k terms: doubled fewer than 8 times", n)
	}
	m.sweep()
}

// TestDictChunkLayout: locate tiles the ID space — consecutive IDs fill each
// chunk from 0 to its size, in chunk order.
func TestDictChunkLayout(t *testing.T) {
	wantChunk, wantOff := 0, uint64(0)
	for id := ID(0); id < 5<<dictChunkMaxBits; id++ {
		c, off := locate(id)
		if c != wantChunk || off != wantOff {
			t.Fatalf("locate(%d) = (%d, %d), want (%d, %d)", id, c, off, wantChunk, wantOff)
		}
		if wantOff++; wantOff == 1<<min(c+dictChunkMinBits, dictChunkMaxBits) {
			wantChunk, wantOff = wantChunk+1, 0
		}
	}
	if c, off := locate(NoID); off >= 1<<dictChunkMaxBits || c <= 0 {
		t.Fatalf("locate(NoID) = (%d, %d): overflowed", c, off)
	}
}

// TestDictStringChunks: values interned from bytes live in chunks that start
// at 1<<strChunkMinBits bytes and double up to 1<<strChunkMaxBits; a hit
// copies nothing, a value larger than a chunk gets one of its own, every
// value survives its chunk being retired, and interning Terms — all a decoded
// unit's graph ever does — never allocates a chunk.
func TestDictStringChunks(t *testing.T) {
	m := newDictModel(t)
	for i := 0; i < 1000; i++ {
		m.intern(IRI(fmt.Sprintf("http://e/term/%d", i)))
	}
	if c := m.d.strs.Cap(); c != 0 {
		t.Fatalf("interning Terms allocated a %d-byte string chunk", c)
	}

	var caps []int // of each chunk, as it is started
	for i, filled := 0, 0; len(caps) < strChunkMaxBits-strChunkMinBits+3; i++ {
		m.internBytes(IRI(fmt.Sprintf("http://e/bytes/%06d", i))) // 21 bytes
		at := m.d.strs.Len()
		if i == 0 || at < filled {
			caps = append(caps, m.d.strs.Cap())
		}
		filled = at
		m.internBytes(IRI(fmt.Sprintf("http://e/bytes/%06d", i/2)))
		m.internBytes(IRI(fmt.Sprintf("http://e/term/%d", i%1000)))
		if m.d.strs.Len() != at {
			t.Fatalf("re-interning held values copied %d bytes", m.d.strs.Len()-at)
		}
	}
	for i, c := range caps {
		if want := 1 << min(strChunkMinBits+i, strChunkMaxBits); c != want {
			t.Fatalf("string chunk sizes %v: chunk %d is not %d bytes", caps, i, want)
		}
	}

	big := strings.Repeat("x", 3<<strChunkMaxBits)
	m.internBytes(Literal(big))
	if c := m.d.strs.Cap(); c != len(big) {
		t.Fatalf("an oversized value sits in a %d-byte chunk, want its own %d bytes", c, len(big))
	}
	m.internBytes(Literal("after"))
	if c := m.d.strs.Cap(); c != 1<<strChunkMaxBits {
		t.Fatalf("the chunk after an oversized value is %d bytes, want %d", c, 1<<strChunkMaxBits)
	}
	m.internBytes(Literal(""))
	m.sweep()
}

// TestDictConcurrentIntern: eight goroutines intern overlapping sets — every
// other one by bytes out of its own reused buffer, so a new value is minted
// both ways at once — while a reader pins snapshots and resolves through
// them. Every term ends with one ID, no ID escapes the table, and a term
// interned after a pin is invisible to it. Runs under `make race`.
func TestDictConcurrentIntern(t *testing.T) {
	const (
		workers = 8
		span    = 2000
		stride  = 500
	)
	g := NewGraph()
	term := func(i int) Term {
		if i%5 == 0 {
			return Integer(int64(i))
		}
		return IRI(fmt.Sprintf("http://e/r%d/io%d", i%16, i))
	}
	pred := IRI("http://e/p")

	got := make([]map[int]ID, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		got[w] = make(map[int]ID, span)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var buf []byte
			for i := w * stride; i < w*stride+span; i++ {
				tm := term(i)
				if w%2 == 1 {
					buf = append(buf[:0], tm.Value...)
					own := g.TermOf(g.InternBytes(tm.Kind, buf, tm.Lang, tm.Datatype))
					if own != tm {
						t.Errorf("InternBytes returned %#v, want %#v", own, tm)
						return
					}
					tm = own
				}
				got[w][i] = g.Intern(tm)
				if i%16 == 1 { // moves the watermark, so the reader pins anew
					g.Add(Triple{S: term(i), P: pred, O: term(i)})
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := g.Snapshot()
			n := s.TermCount()
			for id := 0; id < n; id += 1 + n/64 {
				tm := s.TermOf(ID(id))
				if back, ok := s.TermID(tm); tm.IsZero() || !ok || back != ID(id) {
					t.Errorf("pinned at %d terms: TermOf(%d) = %#v, TermID back = (%d, %v)", n, id, tm, back, ok)
					return
				}
			}
			if tm := s.TermOf(ID(n)); !tm.IsZero() {
				t.Errorf("pinned at %d terms: TermOf(%d) = %#v, want zero", n, n, tm)
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-readerDone

	ids := make(map[int]ID)
	for w := range got {
		for i, id := range got[w] {
			if prev, dup := ids[i]; dup && prev != id {
				t.Fatalf("term %d has IDs %d and %d", i, prev, id)
			}
			ids[i] = id
		}
	}
	distinct := (workers-1)*stride + span + 1 // + pred
	if n := g.TermCount(); n != distinct {
		t.Fatalf("TermCount = %d, want %d", n, distinct)
	}
	seen := make(map[ID]bool, len(ids))
	for i, id := range ids {
		if int(id) >= g.TermCount() || seen[id] {
			t.Fatalf("term %d has ID %d: out of range or shared", i, id)
		}
		seen[id] = true
		if back := g.TermOf(id); back != term(i) {
			t.Fatalf("TermOf(%d) = %#v, want %#v", id, back, term(i))
		}
	}

	pin := g.Snapshot()
	late := IRI("http://e/late")
	id := g.Intern(late)
	if _, ok := pin.TermID(late); ok {
		t.Fatal("a term interned after the pin is visible through it")
	}
	if back, ok := g.TermID(late); !ok || back != id || int(id) < pin.TermCount() {
		t.Fatalf("late term: TermID = (%d, %v), Intern = %d, pinned count %d", back, ok, id, pin.TermCount())
	}
}

// TestDictLockFreeReaders: readers probe with no lock while two writers grow
// the slot table through many doublings, each writer interning its own terms,
// every other one by bytes out of a reused buffer. Every term whose intern
// has returned is found by TermID, whichever table the reader loaded, and
// comes back through TermOf; a term never interned is never found. Runs
// under `go test -race -short` and in CI at -cpu 1,4.
func TestDictLockFreeReaders(t *testing.T) {
	const writers, readers = 2, 2
	perWriter := 1 << 14 // 32 k terms: the table doubles from 8 to 65 536 slots
	if testing.Short() {
		perWriter = 1 << 12
	}
	term := func(w, i int) Term {
		if i%4 == 3 {
			return LangLiteral(fmt.Sprintf("w%d t%d", w, i), "en")
		}
		return IRI(fmt.Sprintf("http://e/w%d/t%d", w, i))
	}
	g := NewGraph()
	var done [writers]atomic.Int64 // terms of each writer whose intern returned
	var writing sync.WaitGroup
	for w := 0; w < writers; w++ {
		writing.Add(1)
		go func(w int) {
			defer writing.Done()
			var buf []byte
			for i := 0; i < perWriter; i++ {
				tm := term(w, i)
				if i%2 == 1 {
					buf = append(buf[:0], tm.Value...)
					g.InternBytes(tm.Kind, buf, tm.Lang, tm.Datatype)
				} else {
					g.Intern(tm)
				}
				done[w].Store(int64(i + 1))
			}
		}(w)
	}
	stop := make(chan struct{})
	var reading sync.WaitGroup
	for r := 0; r < readers; r++ {
		reading.Add(1)
		go func() {
			defer reading.Done()
			var checked [writers]int // each writer's terms this reader has checked
			check := func(w, i int) bool {
				tm := term(w, i)
				id, ok := g.TermID(tm)
				if !ok {
					t.Errorf("writer %d's term %d was interned, but TermID does not find it", w, i)
					return false
				}
				if back := g.TermOf(id); back != tm {
					t.Errorf("TermOf(TermID(%#v)) = %#v", tm, back)
					return false
				}
				return true
			}
			for last := false; !last; {
				select {
				case <-stop:
					last = true // one more pass sees every term
				default:
				}
				for w := range checked {
					n := int(done[w].Load())
					for ; checked[w] < n; checked[w]++ {
						if !check(w, checked[w]) {
							return
						}
					}
					// The term being interned now: found already or not, but
					// found means whole.
					if tm := term(w, n); n < perWriter {
						if id, ok := g.TermID(tm); ok && g.TermOf(id) != tm {
							t.Errorf("TermID found %#v in flight as %d, and TermOf(%d) = %#v", tm, id, id, g.TermOf(id))
							return
						}
					}
					if _, ok := g.TermID(term(w, perWriter)); ok {
						t.Errorf("writer %d's term %d was never interned, but TermID finds it", w, perWriter)
						return
					}
				}
			}
			for w, n := range checked {
				if n != perWriter {
					t.Errorf("checked %d of writer %d's %d terms", n, w, perWriter)
				}
			}
		}()
	}
	writing.Wait()
	close(stop)
	reading.Wait()
	if n := g.TermCount(); n != writers*perWriter {
		t.Fatalf("TermCount = %d, want %d", n, writers*perWriter)
	}
}

// FuzzDictIntern feeds arbitrary op sequences to the dictionary and its
// model. The seed corpus runs under plain `go test`.
func FuzzDictIntern(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 0, 1, 1, 0, 2, 1, 0, 0xc0, 1, 0})                             // one value, three kinds, then a lookup
	f.Add([]byte{2, 1, 0, 2, 1, 48, 2, 1, 49, 2, 1, 50, 2, 1, 51})                   // "" vs xsd:string vs xsd:integer vs @en vs ^^en
	f.Add([]byte{2, 0, 0, 2, 0, 50, 0xc2, 0, 49, 2, 0, 0})                           // the empty literal
	f.Add([]byte{0, 8, 0, 0, 9, 0, 0, 10, 0, 0xc0, 11, 0, 0, 8, 0})                  // long IRIs differing in byte 0
	f.Add([]byte(strings.Repeat("\x02\x01\x60\x02\x01\xa0\x02\x40\xf0", 40)))        // repeats
	f.Add([]byte{0x82, 1, 0, 2, 1, 0, 0x82, 0, 50, 0x80, 8, 0, 0, 8, 0, 0x80, 9, 0}) // by bytes, then as a Term, and back
	seq := make([]byte, 0, 3*200)
	for c := 54; c < 254; c++ { // 200 distinct pairs on one lexical form
		seq = append(seq, 2, 1, byte(c))
	}
	f.Add(seq)
	f.Fuzz(runDictOps)
}

var sinkID ID

// h5benchTerms returns n distinct terms in the proportions an h5bench-shaped
// graph interns them: per record one activity IRI and one integer literal.
func h5benchTerms(n int) []Term {
	terms := make([]Term, n)
	for i := range terms {
		if i%2 == 0 {
			terms[i] = IRI(fmt.Sprintf("https://github.com/hpc-io/prov-io/ns#H5Dwrite-r%d-io%d", i%16, i))
		} else {
			terms[i] = Integer(int64(1_000_000 + i))
		}
	}
	return terms
}

// BenchmarkIntern measures the dictionary alone at the perf harness's
// h5bench-resident size (≈ 49 k terms): hit is the tracker's steady state,
// miss is a cold open interning a merged dictionary, parallel-hit is rank
// threads sharing one graph (run with -cpu 2).
func BenchmarkIntern(b *testing.B) {
	const n = 49152
	terms := h5benchTerms(n)
	warm := NewGraph()
	for _, t := range terms {
		warm.Intern(t)
	}
	b.Run("hit", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkID = warm.Intern(terms[i%n])
		}
	})
	b.Run("miss", func(b *testing.B) {
		b.ReportAllocs()
		var g *Graph
		for i := 0; i < b.N; i++ {
			if i%n == 0 {
				g = NewGraph()
			}
			sinkID = g.Intern(terms[i%n])
		}
	})
	b.Run("parallel-hit", func(b *testing.B) {
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			var id ID
			for i := 0; pb.Next(); i++ {
				id = warm.Intern(terms[i%n])
			}
			_ = id
		})
	})
}
