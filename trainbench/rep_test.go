package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"scgnn/internal/gnn"
	"scgnn/internal/nn"
	"scgnn/internal/tensor"
)

// nodeBin is an scgnn-node built once for the fleet tests.
var nodeBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "trainbench-test-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	nodeBin = filepath.Join(dir, "scgnn-node")
	build := exec.Command("go", "build", "-o", nodeBin, "scgnn/cmd/scgnn-node")
	build.Stderr = os.Stderr
	code := 1
	if err := build.Run(); err == nil {
		code = m.Run()
	} else {
		fmt.Fprintln(os.Stderr, "build scgnn-node:", err)
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

func testRunner(t *testing.T) *runner {
	return &runner{nodeBin: nodeBin, scratch: t.TempDir()}
}

// shortened returns a workload with a smaller epoch budget, so a test runs
// in seconds, and no accuracy floor, which a short budget may not reach.
// The fleet keeps enough epochs to anneal through every rung of its
// schedule, error-feedback rungs included.
func shortened(t *testing.T, name string, epochs int) workload {
	w, ok := workloadByName(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	w.epochs, w.warmup, w.accFloor = epochs, 1, 0
	return w
}

// The decorators of a traced run must not change the arithmetic: on one
// seed a traced and an untraced repetition give the same losses, test
// accuracy and wire bytes, and the traced epoch splits into parts that add
// back up to it. The 2-node fleet accumulates every row in a fixed order,
// so its losses must match bit for bit; the 4-part cluster only up to the
// fp64 reassociation its arrival-order accumulation allows.
func TestTracedRunMatchesUntraced(t *testing.T) {
	for _, tc := range []struct {
		name   string
		epochs int
		exact  bool
	}{
		{"fleet-sched-ckpt-10k", 12, true},
		{"quant8-randomcut-10k", 3, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := shortened(t, tc.name, tc.epochs)
			r := testRunner(t)
			tr := newTracer()
			traced := r.rep(w, 3, tr)
			plain := r.rep(w, 3, nil)
			for _, res := range []repResult{traced, plain} {
				if len(res.failures) > 0 {
					t.Fatalf("repetition failed: %v", res.failures)
				}
			}
			exact, close := compareLosses(traced.losses, plain.losses)
			if !close || (tc.exact && !exact) {
				t.Errorf("losses differ (bit-identical %v):\ntraced %v\nplain  %v", exact, traced.losses, plain.losses)
			}
			if math.Float64bits(traced.testAcc) != math.Float64bits(plain.testAcc) {
				t.Errorf("test accuracy %v traced, %v untraced", traced.testAcc, plain.testAcc)
			}
			if !sameInts(traced.wireBytes, plain.wireBytes) {
				t.Errorf("wire bytes differ:\ntraced %v\nplain  %v", traced.wireBytes, plain.wireBytes)
			}

			m := map[string]float64{}
			s := summary{epochMs: plain.epochMs, tracedMs: traced.epochMs}
			host := newHostRecord()
			for _, nm := range layerMetrics(w, tr.spans, []repResult{traced, plain}, s, host) {
				m[nm.name] = nm.Value
			}
			sum := m["gnn.forward_ms"] + m["gnn.backward_ms"] + m["nn.step_ms"] + m["sched.boundary_ms"]
			if epoch := m["trace.epoch_ms"]; epoch <= 0 || math.Abs(sum-epoch) > 1e-9*epoch {
				t.Errorf("forward+backward+step+boundary = %v ms, traced epoch %v ms", sum, epoch)
			}
			// The epoch span wraps the timed RunEpoch call and nothing else.
			if timed := mean(traced.epochMs); math.Abs(m["trace.epoch_ms"]-timed) > 0.01*timed {
				t.Errorf("epoch timed at %v ms, its span at %v ms", timed, m["trace.epoch_ms"])
			}
			if m["aggregate_calls"] != 4 {
				t.Errorf("%v aggregate calls per epoch, want 4 (two layers, forward and backward)", m["aggregate_calls"])
			}
		})
	}
}

// A node killed in the middle of training fails the repetition, quickly,
// and leaves neither a process nor a socket behind.
func TestKilledNodeFailsTheRun(t *testing.T) {
	w := shortened(t, "fleet-sched-ckpt-10k", 8)
	r := testRunner(t)
	var f *fleet
	r.afterEpoch = func(live *fleet, epoch int) {
		if epoch == 2 {
			f = live
			live.kill(1)
		}
	}
	start := time.Now()
	res := r.rep(w, 1, nil)
	if d := time.Since(start); d > 60*time.Second {
		t.Errorf("repetition took %v after a node died", d)
	}
	if len(res.failures) == 0 || res.ok != 0 || res.attempted != w.epochs {
		t.Fatalf("killed node: failures %v, ok %d of %d", res.failures, res.ok, res.attempted)
	}
	if f == nil {
		t.Fatal("the fleet never reached epoch 2")
	}
	for i, exited := range f.exits {
		select {
		case <-exited:
		default:
			t.Errorf("node %d still running", i)
		}
	}
	if _, err := os.Stat(f.dir); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("socket directory %s left behind (%v)", f.dir, err)
	}
	if r.liveFleet() != nil {
		t.Error("runner still holds the dead fleet")
	}
}

// fakeModel records the optional trainer calls that reach it.
type fakeModel struct{ calls []string }

func (m *fakeModel) Forward(x *tensor.Matrix) *tensor.Matrix { return x }
func (m *fakeModel) Backward(*tensor.Matrix)                 {}
func (m *fakeModel) Params() []nn.Param                      { return nil }
func (m *fakeModel) ZeroGrad()                               {}
func (m *fakeModel) StartEpoch(e int)                        { m.calls = append(m.calls, fmt.Sprint("epoch ", e)) }
func (m *fakeModel) StartEvalEpoch(e int)                    { m.calls = append(m.calls, fmt.Sprint("eval ", e)) }
func (m *fakeModel) SetTraining(on bool)                     { m.calls = append(m.calls, fmt.Sprint("training ", on)) }

// fakeAgg records the epoch markers that reach it.
type fakeAgg struct{ calls []string }

func (a *fakeAgg) Forward(h *tensor.Matrix) *tensor.Matrix  { return h }
func (a *fakeAgg) Backward(g *tensor.Matrix) *tensor.Matrix { return g }
func (a *fakeAgg) StartEpoch(e int)                         { a.calls = append(a.calls, fmt.Sprint("epoch ", e)) }
func (a *fakeAgg) StartEvalEpoch(e int)                     { a.calls = append(a.calls, fmt.Sprint("eval ", e)) }

func TestDecoratorsForwardTrainerInterfaces(t *testing.T) {
	tr := newTracer()
	fm := &fakeModel{}
	var m gnn.Model = &tracedModel{inner: fm, tr: tr}
	m.(gnn.EpochMarker).StartEpoch(3)
	m.(gnn.EvalMarker).StartEvalEpoch(4)
	m.(gnn.TrainableMode).SetTraining(false)
	if got, want := fmt.Sprint(fm.calls), "[epoch 3 eval 4 training false]"; got != want {
		t.Errorf("model saw %s, want %s", got, want)
	}

	fa := &fakeAgg{}
	var a gnn.Aggregator = &tracedAgg{inner: fa, tr: tr, traffic: func() int64 { return 0 }}
	a.(gnn.EpochMarker).StartEpoch(5)
	a.(gnn.EvalMarker).StartEvalEpoch(6)
	if got, want := fmt.Sprint(fa.calls), "[epoch 5 eval 6]"; got != want {
		t.Errorf("aggregator saw %s, want %s", got, want)
	}
}
