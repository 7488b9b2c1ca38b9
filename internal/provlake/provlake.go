// Package provlake implements a process-oriented provenance baseline
// modeled on IBM ProvLake, the system the paper compares against (§6.4).
//
// Where PROV-IO is I/O-centric (records data objects, I/O APIs, and their
// relations), ProvLake is workflow-step-centric: the client instruments the
// workflow's execution steps, and each step emits a document carrying the
// full task context — workflow identity, the prospective specification of
// the step, and the complete input/output attribute payloads. That
// per-record context is exactly why Figure 8 shows ProvLake storing more
// bytes and costing slightly more per tracked point than PROV-IO for the
// same instrumentation sites.
//
// Records are persisted as JSON Lines, approximating ProvLake's
// document-oriented backend.
package provlake

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"github.com/hpc-io/prov-io/internal/simclock"
	"github.com/hpc-io/prov-io/internal/vfs"
)

// CostModel holds the virtual-time constants for the baseline tracker. The
// defaults sit above PROV-IO's per-record cost: ProvLake's client ships each
// retrospective document to the lineage service (an RPC per record), and the
// document grows with the embedded workflow context.
type CostModel struct {
	PerRecord time.Duration
	PerByte   time.Duration
}

// DefaultCost returns the calibrated baseline cost model.
func DefaultCost() CostModel {
	return CostModel{
		PerRecord: 8 * time.Millisecond,
		PerByte:   800 * time.Nanosecond,
	}
}

// Record is one ProvLake document: retrospective provenance for a task
// execution, embedding the prospective workflow context.
type Record struct {
	Workflow    string            `json:"workflow"`
	WorkflowCtx map[string]string `json:"workflow_context"`
	Task        string            `json:"task"`
	TaskSeq     int               `json:"task_seq"`
	Kind        string            `json:"kind"` // "task_begin", "task_end", "point"
	StartedNs   int64             `json:"started_ns"`
	EndedNs     int64             `json:"ended_ns,omitempty"`
	In          map[string]any    `json:"in,omitempty"`
	Out         map[string]any    `json:"out,omitempty"`
}

// Workflow is a ProvLake client session for one workflow run.
type Workflow struct {
	name string
	view *vfs.View
	path string

	mu      sync.Mutex
	buf     bytes.Buffer
	ctx     map[string]string
	taskSeq int

	clock *simclock.Clock
	cost  CostModel

	nRecords int64
	nBytes   int64
}

// NewWorkflow starts a ProvLake session persisting to path on view. clock
// may be nil (no cost accounting).
func NewWorkflow(view *vfs.View, path, name string, clock *simclock.Clock, cost CostModel) *Workflow {
	return &Workflow{
		name:  name,
		view:  view,
		path:  path,
		ctx:   map[string]string{},
		clock: clock,
		cost:  cost,
	}
}

// SetContext adds prospective workflow context (configuration fields in the
// Top Reco comparison). ProvLake re-embeds this context in every record.
func (w *Workflow) SetContext(key, value string) {
	w.mu.Lock()
	w.ctx[key] = value
	w.mu.Unlock()
}

// Task is one instrumented workflow step.
type Task struct {
	wf      *Workflow
	name    string
	seq     int
	started time.Duration
	in      map[string]any
}

// StartTask begins a step, capturing its inputs.
func (w *Workflow) StartTask(name string, in map[string]any) *Task {
	w.mu.Lock()
	w.taskSeq++
	seq := w.taskSeq
	w.mu.Unlock()
	t := &Task{wf: w, name: name, seq: seq, started: w.now(), in: in}
	w.emit(Record{
		Task: name, TaskSeq: seq, Kind: "task_begin",
		StartedNs: t.started.Nanoseconds(), In: in,
	})
	return t
}

// End finishes the step, capturing its outputs.
func (t *Task) End(out map[string]any) {
	t.wf.emit(Record{
		Task: t.name, TaskSeq: t.seq, Kind: "task_end",
		StartedNs: t.started.Nanoseconds(),
		EndedNs:   t.wf.now().Nanoseconds(),
		In:        t.in, Out: out,
	})
}

// Point records a single retrospective data point inside a task (e.g. the
// training accuracy at the end of an epoch).
func (t *Task) Point(out map[string]any) {
	t.wf.emit(Record{
		Task: t.name, TaskSeq: t.seq, Kind: "point",
		StartedNs: t.wf.now().Nanoseconds(), Out: out,
	})
}

func (w *Workflow) now() time.Duration {
	if w.clock == nil {
		return 0
	}
	return w.clock.Now()
}

// emit serializes one record, embedding the full workflow context, and
// charges the modeled cost.
func (w *Workflow) emit(r Record) {
	w.mu.Lock()
	r.Workflow = w.name
	r.WorkflowCtx = make(map[string]string, len(w.ctx))
	for k, v := range w.ctx {
		r.WorkflowCtx[k] = v
	}
	data, err := json.Marshal(r)
	if err != nil {
		// Records are built from marshalable primitives; a failure is a
		// programming error worth surfacing loudly in experiments.
		panic(fmt.Sprintf("provlake: marshal: %v", err))
	}
	w.buf.Write(data)
	w.buf.WriteByte('\n')
	w.nRecords++
	w.nBytes += int64(len(data)) + 1
	w.mu.Unlock()

	if w.clock != nil {
		w.clock.Advance(w.cost.PerRecord + time.Duration(len(data))*w.cost.PerByte)
	}
}

// Stats returns the record and byte counts so far.
func (w *Workflow) Stats() (records, bytes int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.nRecords, w.nBytes
}

// Close flushes the JSON-lines document to storage.
func (w *Workflow) Close() error {
	w.mu.Lock()
	data := append([]byte(nil), w.buf.Bytes()...)
	w.mu.Unlock()
	return w.view.WriteFile(w.path, data)
}
