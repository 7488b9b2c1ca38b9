package rdf

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"
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
		t.Datatype = xsdString
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
		Literal("1"), {Kind: LiteralTerm, Value: "1", Datatype: xsdString}, Integer(1),
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

// TestDictStringChunks: the dictionary copies every new value onto its
// pages, whether the value comes as a Term or as bytes. The page being
// filled starts at 1<<pageMinBits bytes and doubles up to 1<<offBits; a hit
// copies nothing; a value of wholePage bytes or more gets a page of its own,
// exactly its length, and the page being filled stays; the empty value takes
// no bytes; and every value survives its page being retired.
func TestDictStringChunks(t *testing.T) {
	m := newDictModel(t)
	var caps []int // of each page being filled, as it is started
	at := m.d.fillAt
	for i := 0; len(caps) < offBits-pageMinBits+3; i++ {
		term := IRI(fmt.Sprintf("http://e/term/%06d", i)) // 21 bytes
		if i%2 == 0 {
			m.intern(term)
		} else {
			m.internBytes(term)
		}
		if m.d.fillAt != at {
			at = m.d.fillAt
			caps = append(caps, cap(m.d.fill))
		}
		filled := len(m.d.fill)
		m.intern(IRI(fmt.Sprintf("http://e/term/%06d", i/2)))
		m.internBytes(IRI(fmt.Sprintf("http://e/term/%06d", i/3)))
		if len(m.d.fill) != filled {
			t.Fatalf("re-interning held values copied %d bytes", len(m.d.fill)-filled)
		}
	}
	for i, c := range caps {
		if want := 1 << min(pageMinBits+i, offBits); c != want {
			t.Fatalf("page sizes %v: page %d is not %d bytes", caps, i, want)
		}
	}

	own := IRI(strings.Repeat("o", 40))
	m.intern(own)
	if v := m.d.termAt(m.ids[own]).Value; unsafe.StringData(v) == unsafe.StringData(own.Value) {
		t.Fatal("interning a Term shared its value string instead of copying it")
	}

	filled, fillAt, npages := len(m.d.fill), m.d.fillAt, m.d.npages
	big := strings.Repeat("x", 3<<offBits)
	m.internBytes(Literal(big))
	m.intern(Literal(big + "y"))
	if len(m.d.fill) != filled || m.d.fillAt != fillAt || m.d.npages != npages+2 {
		t.Fatalf("two long values: fill %d at page %d, %d pages; want %d at page %d, %d pages",
			len(m.d.fill), m.d.fillAt, m.d.npages, filled, fillAt, npages+2)
	}
	if p := (*m.d.pages.Load())[npages+1]; len(p) != len(big)+1 || cap(p) != len(big)+1 {
		t.Fatalf("a %d-byte value sits on a page of %d bytes, %d allocated", len(big)+1, len(p), cap(p))
	}
	m.intern(Literal(""))
	tt := m.d.snapshot()
	if e := tt.entry(m.ids[Literal("")]); e.page != 0 || len(m.d.fill) != filled {
		t.Fatalf("the empty value is on page %d and took %d bytes", e.page, len(m.d.fill)-filled)
	}
	m.sweep()
}

// TestDictEntryHoldsNoPointers: an entry is at most 12 bytes and nothing in
// it is a pointer, so its chunks are noscan and the collector never walks
// them.
func TestDictEntryHoldsNoPointers(t *testing.T) {
	if size := unsafe.Sizeof(dictEntry{}); size > 12 {
		t.Fatalf("dictEntry is %d bytes, want at most 12", size)
	}
	var walk func(reflect.Type, string)
	walk = func(ty reflect.Type, path string) {
		switch ty.Kind() {
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
			reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		case reflect.Array:
			walk(ty.Elem(), path+"[]")
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				f := ty.Field(i)
				walk(f.Type, path+"."+f.Name)
			}
		default:
			t.Errorf("%s is a %s, which holds a pointer", path, ty.Kind())
		}
	}
	walk(reflect.TypeOf(dictEntry{}), "dictEntry")
}

// TestDictEntryLimits: every width an entry packs holds its extreme values,
// and the value one past each lands where the layout says: a length of
// wholePage-1 is stored inline and wholePage makes a page of its own; an
// offset of 1<<offBits-1 is the last of a page and the next byte starts
// another, on both the interning and the sorted path; and the kind field
// holds every TermKind. None of them limits the dictionary below its term
// count: each term adds at most one page.
func TestDictEntryLimits(t *testing.T) {
	for _, c := range []struct {
		kind   TermKind
		off, n int
	}{{255, 1<<offBits - 1, 1}, {LiteralTerm, 0, wholePage - 1}, {IRITerm, 1<<offBits - 1, wholePage}} {
		w := packWord(c.kind, c.off, c.n)
		e := dictEntry{word: w}
		if e.kind() != c.kind || int(w>>kindBits&(1<<offBits-1)) != c.off || int(w>>(kindBits+offBits)) != c.n {
			t.Fatalf("packWord(%d, %d, %d) = %#x: fields do not come back", c.kind, c.off, c.n, w)
		}
	}

	m := newDictModel(t)
	value := func(n int, b byte) string { return strings.Repeat(string(rune(b)), n) }
	entry := func(v string) dictEntry {
		t.Helper()
		tt := m.d.snapshot()
		return tt.entry(m.ids[Literal(v)])
	}
	m.intern(Literal(value(wholePage-1, 'a')))
	m.intern(Literal(value(wholePage, 'b')))
	if e := entry(value(wholePage-1, 'a')); e.word>>(kindBits+offBits) != wholePage-1 {
		t.Fatalf("a %d-byte value is not stored inline: word %#x", wholePage-1, e.word)
	}
	if e := entry(value(wholePage, 'b')); e.word>>(kindBits+offBits) != wholePage || len((*m.d.pages.Load())[e.page]) != wholePage {
		t.Fatalf("a %d-byte value is not a page of its own: word %#x", wholePage, e.word)
	}
	// Fill a page of 1<<offBits bytes to one byte short, then put one value
	// at its last offset and one on the next page.
	for i := 0; cap(m.d.fill) != 1<<offBits || len(m.d.fill)+1000 <= cap(m.d.fill); i++ {
		m.intern(Literal(fmt.Sprintf("c%0999d", i)))
	}
	m.intern(Literal(value(cap(m.d.fill)-len(m.d.fill)-1, 'e')))
	m.intern(Literal("f"))
	m.intern(Literal("g"))
	last, next := entry("f"), entry("g")
	if last.word>>kindBits&(1<<offBits-1) != 1<<offBits-1 || next.page != last.page+1 || next.word>>kindBits&(1<<offBits-1) != 0 {
		t.Fatalf("the last byte of a page: entries %+v then %+v", last, next)
	}
	m.intern(Term{Kind: 255, Value: "k"})
	m.sweep()
	if int(m.d.npages) > 1+m.d.count() {
		t.Fatalf("%d terms made %d pages", m.d.count(), m.d.npages)
	}

	// The sorted path cuts its pages the same way.
	var terms []Term
	for i := 0; i < 1<<offBits/1000; i++ {
		terms = append(terms, Literal(fmt.Sprintf("a%0999d", i)))
	}
	full := len(terms) + 1 // the value that ends the first page
	terms = append(terms, Literal(value(1<<offBits%1000-1, 'b')), Literal("c"), Literal("d"), Literal(value(wholePage, 'e')))
	g := NewSortedGraph(terms, nil)
	tt := g.dict.snapshot()
	if e := tt.entry(ID(full)); e.page != tt.entry(0).page || e.word>>kindBits&(1<<offBits-1) != 1<<offBits-1 {
		t.Fatalf("sorted: the value ending a full page is at %+v", e)
	}
	if e := tt.entry(ID(full + 1)); e.page != tt.entry(0).page+1 || e.word>>kindBits&(1<<offBits-1) != 0 {
		t.Fatalf("sorted: the value past a full page is at %+v", e)
	}
	if e := tt.entry(ID(full + 2)); len(tt.pages[e.page]) != wholePage {
		t.Fatalf("sorted: a %d-byte value is on a page of %d bytes", wholePage, len(tt.pages[e.page]))
	}
	for id, want := range terms {
		if got := g.TermOf(ID(id)); got != want {
			t.Fatalf("sorted: TermOf(%d) is %d bytes of %q, want %d", id, len(got.Value), got.Value[:1], len(want.Value))
		}
	}
}

// TestDictBytesNeverMove: a Term handed out keeps reading the same bytes,
// at the same address, however many values are interned after it — empty
// values, values as long as a page, values longer than one — and readers
// resolve every published ID through TermOf while two writers intern.
func TestDictBytesNeverMove(t *testing.T) {
	const more = 10000
	value := func(w, i int) Term {
		switch i % 50 {
		case 0:
			return Literal("")
		case 1:
			return Literal(fmt.Sprintf("%0*d", 1<<offBits, w*more+i))
		case 2:
			return Literal(fmt.Sprintf("%0*d", 3<<offBits+7, w*more+i))
		}
		return IRI(fmt.Sprintf("http://e/w%d/t%d", w, i))
	}
	g := NewGraph()
	var taken []Term
	var ids []ID
	for i := 0; i < 200; i++ {
		id := g.Intern(value(2, i))
		taken, ids = append(taken, g.TermOf(id)), append(ids, id)
	}
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var buf []byte
			for i := 0; i < more; i++ {
				tm := value(w, i)
				if i%2 == 1 {
					buf = append(buf[:0], tm.Value...)
					g.InternBytes(tm.Kind, buf, tm.Lang, tm.Datatype)
				} else {
					g.Intern(tm)
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	var reading sync.WaitGroup
	for r := 0; r < 2; r++ {
		reading.Add(1)
		go func() {
			defer reading.Done()
			for last := false; !last; {
				select {
				case <-stop:
					last = true
				default:
				}
				n := g.TermCount()
				for id := ID(0); int(id) < n; id++ {
					if tm := g.TermOf(id); tm.Kind == 0 {
						t.Errorf("TermOf(%d) of %d published terms is zero", id, n)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	reading.Wait()
	for i, tm := range taken {
		if tm != value(2, i) {
			t.Fatalf("a Term taken before %d interns now reads %d bytes, want %q", 2*more, len(tm.Value), value(2, i).Value)
		}
		if now := g.TermOf(ids[i]); unsafe.StringData(now.Value) != unsafe.StringData(tm.Value) {
			t.Fatalf("term %d moved: its value was at %p and is at %p", ids[i], unsafe.StringData(tm.Value), unsafe.StringData(now.Value))
		}
	}
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
