package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"

	"scgnn/internal/gnn"
	"scgnn/internal/nn"
	"scgnn/internal/tensor"
)

// Span names. Each is the layer boundary the benchmark wraps: setup phases,
// the epoch and its parts, and the checkpoint at an epoch boundary.
const (
	spanRun       = "run"
	spanGen       = "datasets.gen"
	spanCut       = "partition.cut"
	spanBuild     = "worker.build"
	spanNetSetup  = "net.setup"
	spanPlan      = "core.plan"
	spanEpoch     = "epoch"
	spanBoundary  = "sched.boundary"
	spanForward   = "gnn.forward"
	spanBackward  = "gnn.backward"
	spanAggregate = "aggregate"
	spanCkpt      = "checkpoint"
	spanCollect   = "persist.collect"
	spanSave      = "persist.save"
	spanFinish    = "finish"
)

// span is one timed interval of a traced run. Parent is the ID of the
// enclosing span, 0 for a run span. All spans of one repetition share Run.
type span struct {
	Run    int    `json:"run"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory. Every traced call happens on the goroutine
// that drives the trainer, so the open spans form a stack and the top of the
// stack is the parent of the next span. A nil *tracer records nothing.
type tracer struct {
	t0    time.Time
	run   int
	spans []span
	open  []int // indices into spans
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under the innermost open span and returns a handle for
// end.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := 0
	if len(t.open) > 0 {
		parent = t.spans[t.open[len(t.open)-1]].ID
	}
	i := len(t.spans)
	t.spans = append(t.spans, span{Run: t.run, ID: i + 1, Parent: parent, Name: name,
		Start: int64(time.Since(t.t0))})
	t.open = append(t.open, i)
	return i
}

// end closes the span begin returned, and with it any span opened inside
// it that a panic left open.
func (t *tracer) end(h int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	for len(t.open) > 0 {
		i := t.open[len(t.open)-1]
		t.open = t.open[:len(t.open)-1]
		t.spans[i].End = now
		if i == h {
			return
		}
	}
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's duration minus the part of its interval its
// direct children cover. Children of one span never overlap (they run in
// sequence on one goroutine), so the covered part is the sum of their
// durations.
func selfTimes(spans []span) map[int]time.Duration {
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] += s.dur()
		if s.Parent != 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

// tracedModel wraps a gnn.Model with spans around the forward pass, the
// backward pass and the epoch boundary. It forwards every optional trainer
// interface the wrapped model implements: a dropped EpochMarker or
// EvalMarker would silently stop the runtime's epoch prologue (schedule
// steps, EF residual slots, delay replays), and a dropped TrainableMode
// would leave dropout on in evaluation.
type tracedModel struct {
	inner gnn.Model
	tr    *tracer
}

func (m *tracedModel) Forward(x *tensor.Matrix) *tensor.Matrix {
	h := m.tr.begin(spanForward)
	defer m.tr.end(h)
	return m.inner.Forward(x)
}

func (m *tracedModel) Backward(d *tensor.Matrix) {
	h := m.tr.begin(spanBackward)
	defer m.tr.end(h)
	m.inner.Backward(d)
}

func (m *tracedModel) Params() []nn.Param { return m.inner.Params() }
func (m *tracedModel) ZeroGrad()          { m.inner.ZeroGrad() }

func (m *tracedModel) StartEpoch(epoch int) {
	h := m.tr.begin(spanBoundary)
	defer m.tr.end(h)
	if em, ok := m.inner.(gnn.EpochMarker); ok {
		em.StartEpoch(epoch)
	}
}

func (m *tracedModel) StartEvalEpoch(epoch int) {
	if em, ok := m.inner.(gnn.EvalMarker); ok {
		em.StartEvalEpoch(epoch)
	}
}

func (m *tracedModel) SetTraining(on bool) {
	if tm, ok := m.inner.(gnn.TrainableMode); ok {
		tm.SetTraining(on)
	}
}

// tracedAgg wraps the runtime's aggregator with a span per aggregate call,
// and adds up the wire bytes each call moved as the runtime's traffic
// counter shows them. Like tracedModel it forwards the epoch markers, which
// the GCN passes on to its aggregator.
type tracedAgg struct {
	inner   gnn.Aggregator
	tr      *tracer
	traffic func() int64
	moved   int64
}

func (a *tracedAgg) Forward(x *tensor.Matrix) *tensor.Matrix {
	return a.call(func() *tensor.Matrix { return a.inner.Forward(x) })
}

func (a *tracedAgg) Backward(g *tensor.Matrix) *tensor.Matrix {
	return a.call(func() *tensor.Matrix { return a.inner.Backward(g) })
}

func (a *tracedAgg) call(round func() *tensor.Matrix) *tensor.Matrix {
	h := a.tr.begin(spanAggregate)
	defer a.tr.end(h)
	before := a.traffic()
	out := round()
	a.moved += a.traffic() - before
	return out
}

func (a *tracedAgg) StartEpoch(epoch int) {
	if em, ok := a.inner.(gnn.EpochMarker); ok {
		em.StartEpoch(epoch)
	}
}

func (a *tracedAgg) StartEvalEpoch(epoch int) {
	if em, ok := a.inner.(gnn.EvalMarker); ok {
		em.StartEvalEpoch(epoch)
	}
}
