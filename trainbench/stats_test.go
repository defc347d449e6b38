package main

import (
	"math"
	"testing"
	"time"
)

func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so tail must sort
	}
	return xs
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n     int
		pct   int
		value float64
	}{
		{n: 11, pct: 9, value: 1},
		{n: 20, pct: 50, value: 10},
		{n: 36, pct: 72, value: 26},
		{n: 100, pct: 90, value: 90},
		{n: 168, pct: 94, value: 158},
		{n: 1000, pct: 99, value: 990},
	} {
		v, pct, ok := tail(ramp(tc.n))
		if !ok || pct != tc.pct || v != tc.value {
			t.Errorf("n=%d: got p%d=%v ok=%v, want p%d=%v", tc.n, pct, v, ok, tc.pct, tc.value)
			continue
		}
		// The rule: at least tailBeyond samples lie above the value, and the
		// next percentile up would leave fewer.
		beyond := 0
		for _, x := range ramp(tc.n) {
			if x > v {
				beyond++
			}
		}
		if beyond < tailBeyond {
			t.Errorf("n=%d: p%d leaves %d samples beyond", tc.n, pct, beyond)
		}
		if next := (pct + 1) * tc.n; pct < 99 && tc.n-(next+99)/100 >= tailBeyond {
			t.Errorf("n=%d: p%d also leaves %d samples beyond", tc.n, pct+1, tc.n-(next+99)/100)
		}
	}
	if _, _, ok := tail(ramp(tailBeyond)); ok {
		t.Errorf("%d samples cannot have %d beyond any percentile", tailBeyond, tailBeyond)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing must be NaN")
	}
}

func ns(ms int) int64 { return int64(time.Duration(ms) * time.Millisecond) }

// An epoch laid out by hand: boundary 5 ms, forward 35 ms holding a 10 ms
// aggregate, backward 30 ms holding a 15 ms aggregate, inside an 80 ms epoch.
func epochSpans() []span {
	return []span{
		{ID: 1, Parent: 0, Name: spanRun, Start: ns(0), End: ns(100)},
		{ID: 2, Parent: 1, Name: spanEpoch, Start: ns(10), End: ns(90)},
		{ID: 3, Parent: 2, Name: spanBoundary, Start: ns(10), End: ns(15)},
		{ID: 4, Parent: 2, Name: spanForward, Start: ns(15), End: ns(50)},
		{ID: 5, Parent: 4, Name: spanAggregate, Start: ns(20), End: ns(30)},
		{ID: 6, Parent: 2, Name: spanBackward, Start: ns(50), End: ns(80)},
		{ID: 7, Parent: 6, Name: spanAggregate, Start: ns(55), End: ns(70)},
	}
}

func TestSelfTimes(t *testing.T) {
	self := selfTimes(epochSpans())
	want := map[int]int{1: 20, 2: 10, 3: 5, 4: 25, 5: 10, 6: 15, 7: 15}
	for id, w := range want {
		if got := self[id]; got != time.Duration(w)*time.Millisecond {
			t.Errorf("span %d self time %v, want %dms", id, got, w)
		}
	}
}

func TestLayerMetricsAddUpToTheEpoch(t *testing.T) {
	w := workload{epochs: 1}
	reps := []repResult{{epochMs: []float64{80}}}
	m := map[string]float64{}
	for _, nm := range layerMetrics(w, epochSpans(), reps, summary{}, hostRecord{GOMAXPROCS: 1}) {
		m[nm.name] = nm.Value
	}
	for name, want := range map[string]float64{
		"trace.epoch_ms": 80, "gnn.forward_ms": 35, "gnn.backward_ms": 30, "sched.boundary_ms": 5,
		"nn.step_ms": 10, "nn.dense_ms": 40, "worker.aggregate_ms": 25, "aggregate_calls": 2,
		"aggregate_share": 25.0 / 80,
	} {
		if math.Abs(m[name]-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, m[name], want)
		}
	}
	sum := m["gnn.forward_ms"] + m["gnn.backward_ms"] + m["nn.step_ms"] + m["sched.boundary_ms"]
	if math.Abs(sum-m["trace.epoch_ms"]) > 1e-9 {
		t.Errorf("forward+backward+step+boundary = %v, epoch = %v", sum, m["trace.epoch_ms"])
	}
}

func TestTracerClosesSpansAPanicLeftOpen(t *testing.T) {
	tr := newTracer()
	outer := tr.begin("outer")
	tr.begin("inner") // never ended, as when a panic unwinds past it
	tr.end(outer)
	if len(tr.open) != 0 {
		t.Fatalf("%d spans still open", len(tr.open))
	}
	for _, s := range tr.spans {
		if s.End < s.Start {
			t.Errorf("span %q ends before it starts", s.Name)
		}
	}
	if tr.spans[1].Parent != tr.spans[0].ID {
		t.Error("inner span is not the outer span's child")
	}
}
