package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"scgnn/internal/core"
	"scgnn/internal/datasets"
	"scgnn/internal/dist"
	"scgnn/internal/gnn"
	"scgnn/internal/net"
	"scgnn/internal/partition"
	"scgnn/internal/simnet"
	"scgnn/internal/worker"
)

// runner executes repetitions of a workload.
type runner struct {
	nodeBin string // scgnn-node binary, for fleet workloads
	scratch string // directory for node sockets and checkpoints
	// afterEpoch, when set, runs after every epoch a repetition attempts;
	// tests use it to kill a node mid-run.
	afterEpoch func(f *fleet, epoch int)

	mu   sync.Mutex
	live *fleet // the fleet of the repetition in progress
}

// repResult is what one repetition measured and checked.
type repResult struct {
	setup, train time.Duration
	// epochMs holds the wall time of each timed epoch (after warm-up).
	epochMs []float64
	// losses and wireBytes hold every completed training epoch's loss and
	// wire bytes, in epoch order.
	losses    []float64
	wireBytes []int64
	testAcc   float64

	attempted, ok int
	failures      []string
	traced        bool

	// comm sums the per-epoch communication figures over training epochs.
	msgs, maxInbound int64
	modeledCommS     float64

	nodeRSS   int64   // summed node VmHWM (fleet)
	ckptBytes []int64 // size of each checkpoint written (fleet)
	window    goDelta // runtime cost of the timed epochs
	// roundBytes sums, per epoch, the traffic deltas the traced aggregator
	// saw around each aggregate call (traced repetitions only).
	roundBytes []int64
}

func (r *repResult) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// runtimeHandle is what a repetition needs from either runtime.
type runtimeHandle struct {
	agg gnn.Aggregator
	// epochBytes returns the wire bytes and messages of the epoch that just
	// ran; it is called once after every epoch, including the final
	// evaluation pass.
	epochBytes func() (bytes, msgs int64, snap simnet.Snapshot)
	// traffic returns the runtime's byte counter, which only grows within
	// an epoch.
	traffic func() int64
	// checkBytes, when the runtime keeps run-long counters, compares the
	// summed per-epoch deltas with them once the repetition is done.
	checkBytes func(sumBytes, sumMsgs int64) error
	coord      *net.Coordinator // fleet only
	close      func()
}

// rep runs one repetition: set up, train the epoch budget, evaluate, and
// check the outputs. tr is nil for an untraced repetition, which then runs
// the bare model and runtime.
func (r *runner) rep(w workload, seed int64, tr *tracer) (res repResult) {
	res.attempted, res.traced = w.epochs, tr != nil
	var rt runtimeHandle
	defer func() {
		if p := recover(); p != nil {
			res.fail("panic: %v", p)
		}
		if rt.close != nil {
			rt.close()
		}
		res.ok = 0
		if len(res.failures) == 0 {
			res.ok = len(res.losses)
		}
	}()

	runSpan := tr.begin(spanRun)
	defer tr.end(runSpan)

	runtime.GC()
	start := time.Now()
	h := tr.begin(spanGen)
	ds, err := datasets.ByName(dataset, inputSeed)
	tr.end(h)
	if err != nil {
		res.fail("dataset: %v", err)
		return res
	}
	h = tr.begin(spanCut)
	part := partition.Partition(ds.Graph, w.parts, w.cut, partition.Config{Seed: inputSeed})
	tr.end(h)
	cfg := w.config(seed)
	if w.fleet {
		rt, err = r.startFleetRuntime(ds, part, w.parts, cfg, tr)
	} else {
		rt = clusterRuntime(ds, part, w.parts, cfg, tr)
	}
	if err != nil {
		res.fail("runtime setup: %v", err)
		return res
	}
	res.setup = time.Since(start)
	if tr != nil && cfg.Semantic {
		// Planning runs inside worker.build; a separate call on the same
		// inputs attributes its share.
		h = tr.begin(spanPlan)
		_, err := core.BuildAllPlans(ds.Graph, part, w.parts, cfg.Plan)
		tr.end(h)
		if err != nil {
			res.fail("plan: %v", err)
			return res
		}
	}

	agg := rt.agg
	var traced *tracedAgg
	if tr != nil {
		traced = &tracedAgg{inner: agg, tr: tr, traffic: rt.traffic}
		agg = traced
	}
	gcn := gnn.NewGCN(agg, []int{ds.FeatureDim(), hidden, ds.NumClasses}, rand.New(rand.NewSource(seed)))
	var model gnn.Model = gcn
	if tr != nil {
		model = &tracedModel{inner: gcn, tr: tr}
	}
	trainer := gnn.NewTrainer(model, ds.Features, ds.Labels, ds.TrainMask, ds.ValMask, ds.TestMask,
		gnn.TrainConfig{Epochs: w.epochs, LR: lr})

	var sumBytes, sumMsgs int64
	var winStart goStats
	trainStart := time.Now()
	for e := 0; e < w.epochs; e++ {
		if w.fleet {
			if err := r.checkpoint(rt.coord, gcn, trainer, tr, &res); err != nil {
				res.fail("checkpoint before epoch %d: %v", e, err)
				return res
			}
		}
		if e == w.warmup {
			runtime.GC()
			winStart = readGoStats()
		}
		h := tr.begin(spanEpoch)
		t0 := time.Now()
		st, err := trainer.RunEpoch()
		dt := time.Since(t0)
		tr.end(h)
		if r.afterEpoch != nil {
			r.afterEpoch(r.liveFleet(), e)
		}
		if err != nil {
			res.fail("epoch %d: %v", e, err)
			return res
		}
		if math.IsNaN(st.Loss) || math.IsInf(st.Loss, 0) {
			res.fail("epoch %d: loss %v", e, st.Loss)
		}
		bytes, msgs, snap := rt.epochBytes()
		if bytes <= 0 {
			res.fail("epoch %d: no wire traffic", e)
		}
		if traced != nil {
			res.roundBytes = append(res.roundBytes, traced.moved)
			traced.moved = 0
		}
		sumBytes += bytes
		sumMsgs += msgs
		res.losses = append(res.losses, st.Loss)
		res.wireBytes = append(res.wireBytes, bytes)
		res.msgs += snap.TotalMessages
		res.maxInbound += snap.MaxInboundBytes
		res.modeledCommS += simnet.DefaultCostModel().EpochTime(snap)
		if e >= w.warmup {
			res.epochMs = append(res.epochMs, float64(dt.Nanoseconds())/1e6)
		}
	}
	res.window = winStart.to(readGoStats())

	h = tr.begin(spanFinish)
	final, err := trainer.Finish()
	tr.end(h)
	if err != nil {
		res.fail("final evaluation: %v", err)
		return res
	}
	res.train = time.Since(trainStart)
	res.testAcc = final.TestAcc
	evalBytes, evalMsgs, _ := rt.epochBytes()
	if rt.checkBytes != nil {
		if err := rt.checkBytes(sumBytes+evalBytes, sumMsgs+evalMsgs); err != nil {
			res.fail("traffic counters: %v", err)
		}
	}
	if tr != nil {
		for e, b := range res.roundBytes {
			if b != res.wireBytes[e] {
				res.fail("epoch %d: aggregate calls moved %d bytes, epoch counter says %d", e, b, res.wireBytes[e])
			}
		}
	}
	if res.testAcc < w.accFloor {
		res.fail("test accuracy %.4f below the workload's floor %.2f", res.testAcc, w.accFloor)
	}
	if w.fleet {
		// Read the nodes' high-water marks while they still run.
		rss, err := r.liveFleet().rssBytes()
		if err != nil {
			res.fail("node RSS: %v", err)
		}
		res.nodeRSS = rss
	}
	return res
}

// clusterRuntime builds the in-process worker cluster. Its traffic counters
// are cumulative; the per-epoch figures are differences.
func clusterRuntime(ds *datasets.Dataset, part []int, parts int, cfg dist.Config, tr *tracer) runtimeHandle {
	h := tr.begin(spanBuild)
	cl := worker.NewClusterFromConfig(ds.Graph, part, parts, cfg)
	tr.end(h)
	var last simnet.Snapshot
	return runtimeHandle{
		agg: cl,
		epochBytes: func() (int64, int64, simnet.Snapshot) {
			// The cluster's counters span the whole run, so the epoch's
			// bottleneck link is the growth of the run's bottleneck: exact
			// when every epoch moves the same per-link traffic, as the
			// unscheduled methods of the cluster workloads do.
			cum := cl.Snapshot()
			d := simnet.Snapshot{
				TotalBytes:          cum.TotalBytes - last.TotalBytes,
				TotalMessages:       cum.TotalMessages - last.TotalMessages,
				MaxInboundBytes:     cum.MaxInboundBytes - last.MaxInboundBytes,
				MaxInboundMessages:  cum.MaxInboundMessages - last.MaxInboundMessages,
				MaxOutboundBytes:    cum.MaxOutboundBytes - last.MaxOutboundBytes,
				MaxOutboundMessages: cum.MaxOutboundMessages - last.MaxOutboundMessages,
			}
			last = cum
			return d.TotalBytes, d.TotalMessages, d
		},
		traffic: func() int64 { b, _ := cl.Traffic(); return b },
		checkBytes: func(sumBytes, sumMsgs int64) error {
			b, m := cl.Traffic()
			if b != sumBytes || m != sumMsgs {
				return fmt.Errorf("epochs sum to %d bytes / %d msgs, cluster counted %d / %d",
					sumBytes, sumMsgs, b, m)
			}
			return nil
		},
		close: cl.Close,
	}
}

// startFleetRuntime spawns the nodes, connects and sets them up. The nodes'
// spawn and start-up are part of set-up time.
func (r *runner) startFleetRuntime(ds *datasets.Dataset, part []int, parts int, cfg dist.Config, tr *tracer) (runtimeHandle, error) {
	f, err := startFleet(r.nodeBin, r.scratch, parts)
	if err != nil {
		return runtimeHandle{}, err
	}
	r.mu.Lock()
	r.live = f
	r.mu.Unlock()
	coord := net.NewCoordinator(f.addrs, net.CoordOptions{})
	rt := runtimeHandle{
		agg:   coord,
		coord: coord,
		close: func() {
			coord.Shutdown()
			f.stop()
			r.mu.Lock()
			r.live = nil
			r.mu.Unlock()
		},
	}
	h := tr.begin(spanNetSetup)
	err = coord.Connect()
	if err == nil {
		err = coord.Setup(ds.Graph, part, cfg)
	}
	tr.end(h)
	if err != nil {
		rt.close()
		return runtimeHandle{}, err
	}
	// The coordinator resets its fabric at every epoch boundary, so its
	// capture is already per epoch and there is no run-long counter to
	// check the epochs against; traced repetitions check each epoch
	// against its aggregate calls instead.
	rt.epochBytes = func() (int64, int64, simnet.Snapshot) {
		snap := coord.CaptureEpoch()
		return snap.TotalBytes, snap.TotalMessages, snap
	}
	rt.traffic = func() int64 { return coord.Fabric().TotalBytes() }
	return rt, nil
}

func (r *runner) liveFleet() *fleet {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.live
}

// killLive stops the fleet in progress, if any, making every pending
// coordinator call fail.
func (r *runner) killLive() {
	if f := r.liveFleet(); f != nil {
		f.stopNow()
	}
}

// checkpoint writes a full training checkpoint, as scgnn-coord -checkpoint
// does at every epoch boundary.
func (r *runner) checkpoint(coord *net.Coordinator, model gnn.Model, trainer *gnn.Trainer, tr *tracer, res *repResult) error {
	hc := tr.begin(spanCkpt)
	defer tr.end(hc)
	h := tr.begin(spanCollect)
	blobs, err := coord.CollectStates()
	tr.end(h)
	if err != nil {
		return err
	}
	ck := &net.TrainingCheckpoint{
		Epoch: trainer.NextEpoch(), Part: coord.Part(),
		Params: net.CaptureParams(model.Params()), Trainer: trainer.State(), Nodes: blobs,
	}
	path := filepath.Join(r.liveFleet().dir, "job.ck")
	h = tr.begin(spanSave)
	err = ck.Save(path)
	tr.end(h)
	if err != nil {
		return err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	res.ckptBytes = append(res.ckptBytes, fi.Size())
	return nil
}
