package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hpc-io/prov-io/internal/core"
)

// span is one recorded call into a layer's public function.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"` // index of the span that caused this one, -1 for the round
	Round  int    `json:"round"`
}

// tracer keeps spans in memory; they are written out once, when the run
// ends. It is safe for the tracker goroutines and their async writers.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	round int // stamped on every span: 1 = the traced round on mem, 2 = its dir: repeat
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), round: 1} }

// begin opens a span and returns its index.
func (t *tracer) begin(name string, parent int32) int32 {
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: now, Parent: parent, Round: t.round})
	id := int32(len(t.spans) - 1)
	t.mu.Unlock()
	return id
}

// end closes span id and returns its duration in seconds.
func (t *tracer) end(id int32) float64 {
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id].End = now
	d := now - t.spans[id].Start
	t.mu.Unlock()
	return float64(d) / 1e9
}

// totals sums, per span name, the count, the time and the self time: a
// span's duration minus the part of it its direct children cover.
type spanTotals struct {
	count int
	total float64 // seconds
	self  float64
}

func (t *tracer) totals() map[string]*spanTotals {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int32][][2]int64)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string]*spanTotals)
	for i, s := range t.spans {
		st := out[s.Name]
		if st == nil {
			st = &spanTotals{}
			out[s.Name] = st
		}
		d := s.End - s.Start
		st.count++
		st.total += float64(d) / 1e9
		st.self += float64(d-cover(children[int32(i)], s.Start, s.End)) / 1e9
	}
	return out
}

// cover is the length of the union of the intervals, clipped to [lo, hi].
func cover(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	at := lo
	for _, x := range iv {
		a, b := max(x[0], at), min(x[1], hi)
		if b > a {
			total += b - a
			at = b
		}
	}
	return total
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// backendCounts is what a parallel file system would charge for: counts
// repeat exactly, times are the sandbox's.
type backendCounts struct {
	writeOps, writeBytes, readOps, rangeOps, readBytes, listOps, statOps int64
	writeNS, readNS                                                      int64
}

// countingBackend decorates a core.Backend the way internal/faultfs does,
// counting operations and bytes and recording a span per read and write
// under whatever span the harness says it is in.
type countingBackend struct {
	inner interface {
		core.Backend
		ReadFileRange(path string, off, n int64) ([]byte, error)
	}
	tr     *tracer
	parent atomic.Int32 // the harness span backend calls are caused by

	mu sync.Mutex
	c  backendCounts
}

func (b *countingBackend) counts() backendCounts {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.c
}

func (b *countingBackend) timed(name string, fn func()) int64 {
	id := b.tr.begin(name, b.parent.Load())
	t0 := time.Now()
	fn()
	d := int64(time.Since(t0))
	b.tr.end(id)
	return d
}

func (b *countingBackend) MkdirAll(dir string) error { return b.inner.MkdirAll(dir) }

func (b *countingBackend) WriteFile(path string, data []byte) error {
	var err error
	d := b.timed("backend.write", func() { err = b.inner.WriteFile(path, data) })
	b.mu.Lock()
	b.c.writeOps++
	b.c.writeBytes += int64(len(data))
	b.c.writeNS += d
	b.mu.Unlock()
	return err
}

func (b *countingBackend) ReadFile(path string) ([]byte, error) {
	var data []byte
	var err error
	d := b.timed("backend.read", func() { data, err = b.inner.ReadFile(path) })
	b.mu.Lock()
	b.c.readOps++
	b.c.readBytes += int64(len(data))
	b.c.readNS += d
	b.mu.Unlock()
	return data, err
}

// ReadFileRange keeps the range-read path of the lazy view alive under the
// decorator (core consults only the outermost backend for it).
func (b *countingBackend) ReadFileRange(path string, off, n int64) ([]byte, error) {
	var data []byte
	var err error
	d := b.timed("backend.read_range", func() { data, err = b.inner.ReadFileRange(path, off, n) })
	b.mu.Lock()
	b.c.rangeOps++
	b.c.readBytes += int64(len(data))
	b.c.readNS += d
	b.mu.Unlock()
	return data, err
}

func (b *countingBackend) List(dir string) ([]string, error) {
	b.mu.Lock()
	b.c.listOps++
	b.mu.Unlock()
	return b.inner.List(dir)
}

func (b *countingBackend) Remove(path string) error { return b.inner.Remove(path) }

func (b *countingBackend) Stat(path string) (int64, error) {
	b.mu.Lock()
	b.c.statOps++
	b.mu.Unlock()
	return b.inner.Stat(path)
}

func (b *countingBackend) Caps() uint32 { return b.inner.Caps() }
