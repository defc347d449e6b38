// Command trainbench measures SC-GNN training end to end and per layer. It
// drives the public constructors of the repository from outside — dataset
// generation, partitioning, the worker cluster or a fleet of scgnn-node
// processes, and a gnn.Trainer stepping a 2-layer GCN — and times only calls
// into them. See README.md for the workloads, the metrics and the span
// output.
//
//	trainbench -workload <name> -seed <n> -seconds <s> -trace <0|1> [-node-bin <scgnn-node>]
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics (the end-to-end metrics, or with -trace 1 the per-layer
// ones).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

const (
	// minReps repetitions run whatever -seconds says: the loss sequences of
	// two repetitions must agree, set-up time is a median, and a traced run
	// alternates traced and untraced repetitions.
	minReps = 3
	// softLimit stops starting repetitions; hardLimit kills a run that
	// hangs. Both stay under the 180 s a run may take.
	softLimit = 140 * time.Second
	hardLimit = 165 * time.Second
)

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("trainbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed of the dataset, partition, model and compression streams")
	seconds := fs.Int("seconds", 30, "measure for about this long (at least 3 repetitions run)")
	trace := fs.Int("trace", 0, "1 runs traced and reports the per-layer metrics")
	nodeBin := fs.String("node-bin", "", "scgnn-node binary for the fleet workload")
	out := fs.String("out", ".bench_build", "directory for node sockets, checkpoints and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "trainbench: need -workload (%s), -seconds ≥ 1 and -trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	if w.fleet {
		if _, err := os.Stat(*nodeBin); err != nil {
			fmt.Fprintf(os.Stderr, "trainbench: fleet workload needs -node-bin: %v\n", err)
			return 2
		}
	}

	r := &runner{nodeBin: *nodeBin, scratch: filepath.Join(*out, "fleet")}
	// Whatever ends the run, no node outlives it: a signal or a hang past
	// hardLimit kills the fleet in progress (which fails its pending calls),
	// and a run still stuck after that exits without a result.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		s := <-sigs
		r.killLive()
		fmt.Fprintf(os.Stderr, "trainbench: %v\n", s)
		os.Exit(2)
	}()
	watchdog := time.AfterFunc(hardLimit, func() {
		fmt.Fprintln(os.Stderr, "trainbench: run deadline passed; stopping the fleet")
		r.killLive()
		time.AfterFunc(10*time.Second, func() {
			fmt.Fprintln(os.Stderr, "trainbench: run still stuck after the deadline")
			os.Exit(3)
		})
	})
	defer watchdog.Stop()
	defer r.killLive() // a repetition that panicked before owning its fleet

	start := time.Now()
	host := newHostRecord()
	host.RefMsStart = hostRefMs()
	var tr *tracer
	if *trace == 1 {
		tr = newTracer()
	}
	var reps []repResult
	var longest time.Duration
	budget := time.Duration(*seconds) * time.Second
	for i := 0; ; i++ {
		elapsed := time.Since(start)
		if i >= minReps && (elapsed >= budget || elapsed+longest*5/4 > softLimit) {
			break
		}
		var t *tracer
		if tr != nil && i%2 == 0 {
			t = tr
			t.run = i
		}
		t0 := time.Now()
		reps = append(reps, r.rep(w, *seed, t))
		if d := time.Since(t0); d > longest {
			longest = d
		}
	}
	host.RefMsEnd = hostRefMs()
	bitIdentical := checkReruns(reps)

	rss, err := vmHWM("self")
	if err != nil {
		reps[0].fail("benchmark RSS: %v", err)
	}
	s := summarize(w, reps, rss)
	rec := runRecord{Workload: w.name, Seed: *seed, Epochs: w.epochs, Warmup: w.warmup,
		Reps: len(reps), BitIdentical: bitIdentical, TailPct: s.tailPct, TailN: len(s.epochMs), Host: host}
	if tr != nil {
		dir := filepath.Join(*out, "trace")
		path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", w.name, *seed))
		err := os.MkdirAll(dir, 0o755)
		if err == nil {
			err = tr.write(path)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "trainbench: span output: %v\n", err)
		} else {
			rec.Spans = path
		}
	}
	report(stdout, w, rec, s, reps, tr)
	return 0
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// lossTolerance is the relative difference two runs of the same seed may
// show in a loss. The worker cluster accumulates inbound batches in arrival
// order, so with more than two partitions a rerun may reassociate fp64 row
// sums; its own tests compare rounds within the same 1e-9. Wire bytes and
// test accuracy must still match exactly.
const lossTolerance = 1e-9

// checkReruns fails every repetition whose loss sequence, wire bytes or test
// accuracy differ from the first's: the same seed must give the same
// arithmetic, traced or not. It returns how many repetitions reproduced the
// first one's losses bit for bit.
func checkReruns(reps []repResult) (bitIdentical int) {
	ref := &reps[0]
	for i := 1; i < len(reps); i++ {
		r := &reps[i]
		if len(r.failures) > 0 || len(ref.failures) > 0 {
			continue
		}
		exact, close := compareLosses(r.losses, ref.losses)
		if exact {
			bitIdentical++
		}
		if !close || !sameInts(r.wireBytes, ref.wireBytes) ||
			math.Float64bits(r.testAcc) != math.Float64bits(ref.testAcc) {
			r.fail("repetition %d diverged from repetition 0 on the same seed", i)
			r.ok = 0
		}
	}
	return bitIdentical
}

// compareLosses reports whether two loss sequences are bit-identical, and
// whether they agree within lossTolerance.
func compareLosses(a, b []float64) (exact, close bool) {
	if len(a) != len(b) {
		return false, false
	}
	exact, close = true, true
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			exact = false
		}
		if !(math.Abs(a[i]-b[i]) <= lossTolerance*(1+math.Abs(b[i]))) {
			close = false
		}
	}
	return exact, close
}

func sameInts(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// summary holds the end-to-end figures of a run.
type summary struct {
	attempted, ok int
	setupS        []float64
	trainS        []float64
	epochMs       []float64 // timed epochs of untraced repetitions
	tracedMs      []float64 // timed epochs of traced repetitions
	tailMs        float64
	tailPct       int
	testAcc       float64
	wireMB        float64
	rssMB         float64
	nodeRSS       int64
}

func summarize(w workload, reps []repResult, selfRSS int64) summary {
	var s summary
	for _, r := range reps {
		s.attempted += r.attempted
		s.ok += r.ok
		if r.nodeRSS > s.nodeRSS {
			s.nodeRSS = r.nodeRSS
		}
		if len(r.failures) > 0 {
			continue
		}
		s.setupS = append(s.setupS, r.setup.Seconds())
		s.trainS = append(s.trainS, r.train.Seconds())
		if r.traced {
			s.tracedMs = append(s.tracedMs, r.epochMs...)
		} else {
			s.epochMs = append(s.epochMs, r.epochMs...)
		}
	}
	s.tailMs, s.tailPct, _ = tail(s.epochMs)
	ref := reps[0]
	s.testAcc = ref.testAcc
	var bytes int64
	for _, b := range ref.wireBytes {
		bytes += b
	}
	s.wireMB = float64(bytes) / float64(w.epochs) / 1e6
	s.rssMB = float64(selfRSS+s.nodeRSS) / 1e6
	return s
}

// runRecord is the steadiness record of a run.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Epochs   int    `json:"epochs"`
	Warmup   int    `json:"warmup_epochs"`
	Reps     int    `json:"repetitions"`
	// BitIdentical counts the repetitions after the first whose losses
	// matched the first's bit for bit.
	BitIdentical int        `json:"bit_identical_reruns"`
	TailPct      int        `json:"tail_percentile"`
	TailN        int        `json:"timed_epochs"`
	Host         hostRecord `json:"host"`
	Spans        string     `json:"spans,omitempty"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// namedMetric keeps the print order of the metrics.
type namedMetric struct {
	name string
	metric
}

func endToEnd(s summary) []namedMetric {
	okFrac := 0.0
	if s.attempted > 0 {
		okFrac = float64(s.ok) / float64(s.attempted)
	}
	return []namedMetric{
		{"setup_s", metric{median(s.setupS), "s"}},
		{"epoch_ms_p50", metric{median(s.epochMs), "ms"}},
		{"epoch_ms_tail", metric{s.tailMs, "ms"}},
		{"train_s", metric{median(s.trainS), "s"}},
		{"test_acc", metric{s.testAcc, "ratio"}},
		{"wire_mb_per_epoch", metric{s.wireMB, "MB"}},
		{"peak_rss_mb", metric{s.rssMB, "MB"}},
		{"ok_frac", metric{okFrac, "ratio"}},
	}
}

func report(out io.Writer, w workload, rec runRecord, s summary, reps []repResult, tr *tracer) {
	correct := true
	for i, r := range reps {
		for _, f := range r.failures {
			correct = false
			fmt.Fprintf(out, "FAILED    repetition %d: %s\n", i, f)
		}
	}
	recJSON, _ := json.Marshal(rec) // plain fields only; cannot fail
	fmt.Fprintf(out, "record    %s\n", recJSON)
	metrics := endToEnd(s)
	nE2E := len(metrics)
	if tr != nil {
		metrics = append(metrics, layerMetrics(w, tr.spans, reps, s, rec.Host)...)
	}
	res := result{Correct: correct, Attempted: s.attempted, Failed: s.attempted - s.ok,
		Metrics: map[string]metric{}}
	for i, m := range metrics {
		if m.name == "epoch_ms_tail" {
			fmt.Fprintf(out, "%-26s %12.4f %-6s (p%d of %d timed epochs)\n",
				m.name, m.Value, m.Unit, s.tailPct, len(s.epochMs))
		} else {
			fmt.Fprintf(out, "%-26s %12.4f %s\n", m.name, m.Value, m.Unit)
		}
		// The JSON result carries the end-to-end metrics untraced and the
		// per-layer metrics traced. A traced run has too few untraced
		// epochs for a tail; a figure the run could not measure is
		// reported as 0 and fails the run.
		if (tr == nil) != (i >= nE2E) {
			if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				m.Value = 0
				res.Correct = false
			}
			res.Metrics[m.name] = m.metric
		}
	}
	line, _ := json.Marshal(res) // NaN and Inf were replaced above
	fmt.Fprintf(out, "%s\n", line)
}

// layerMetrics derives the per-layer metrics of a traced run: span
// statistics over the timed epochs of the traced repetitions, counts from
// the runtime's traffic, and the Go runtime's cost over every repetition's
// timed window.
func layerMetrics(w workload, spans []span, reps []repResult, s summary, host hostRecord) []namedMetric {
	self := selfTimes(spans)
	children := map[int][]span{}
	for _, sp := range spans {
		children[sp.Parent] = append(children[sp.Parent], sp)
	}
	setup := map[string][]float64{}
	var epochs, fwd, bwd, bnd, step, agg, dense, calls []float64
	var collect, save []float64
	for _, run := range children[0] {
		if run.Name != spanRun {
			continue
		}
		epoch := 0
		for _, c := range children[run.ID] {
			switch c.Name {
			case spanGen, spanCut, spanBuild, spanNetSetup, spanPlan:
				setup[c.Name] = append(setup[c.Name], c.dur().Seconds())
			case spanCkpt:
				for _, p := range children[c.ID] {
					if p.Name == spanCollect {
						collect = append(collect, ms(p.dur()))
					} else if p.Name == spanSave {
						save = append(save, ms(p.dur()))
					}
				}
			case spanEpoch:
				if epoch++; epoch <= w.warmup {
					continue
				}
				var f, b, bd, a, d time.Duration
				n := 0
				for _, p := range children[c.ID] {
					switch p.Name {
					case spanForward:
						f += p.dur()
					case spanBackward:
						b += p.dur()
					case spanBoundary:
						bd += p.dur()
					}
					if p.Name == spanForward || p.Name == spanBackward {
						d += self[p.ID]
						for _, q := range children[p.ID] {
							a += q.dur()
							n++
						}
					}
				}
				epochs = append(epochs, ms(c.dur()))
				fwd = append(fwd, ms(f))
				bwd = append(bwd, ms(b))
				bnd = append(bnd, ms(bd))
				step = append(step, ms(self[c.ID]))
				agg = append(agg, ms(a))
				dense = append(dense, ms(d))
				calls = append(calls, float64(n))
			}
		}
	}
	setupMedian := func(name string) float64 {
		if len(setup[name]) == 0 {
			return 0
		}
		return median(setup[name])
	}
	meanOr0 := func(xs []float64) float64 {
		if len(xs) == 0 {
			return 0
		}
		return mean(xs)
	}
	workerAgg, netAgg := meanOr0(agg), 0.0
	if w.fleet {
		workerAgg, netAgg = 0, workerAgg
	}

	var win goDelta
	timed := 0
	var ckptMB []float64
	for _, r := range reps {
		win.add(r.window)
		timed += len(r.epochMs)
		for _, b := range r.ckptBytes {
			ckptMB = append(ckptMB, float64(b)/1e6)
		}
	}
	perEpoch := func(x float64) float64 { return x / float64(timed) }
	ref := reps[0]
	n := float64(w.epochs)
	return []namedMetric{
		{"datasets.gen_s", metric{setupMedian(spanGen), "s"}},
		{"partition.cut_s", metric{setupMedian(spanCut), "s"}},
		{"worker.build_s", metric{setupMedian(spanBuild), "s"}},
		{"net.setup_s", metric{setupMedian(spanNetSetup), "s"}},
		{"core.plan_s", metric{setupMedian(spanPlan), "s"}},
		{"trace.epoch_ms", metric{meanOr0(epochs), "ms"}},
		{"gnn.forward_ms", metric{meanOr0(fwd), "ms"}},
		{"gnn.backward_ms", metric{meanOr0(bwd), "ms"}},
		{"nn.step_ms", metric{meanOr0(step), "ms"}},
		{"sched.boundary_ms", metric{meanOr0(bnd), "ms"}},
		{"nn.dense_ms", metric{meanOr0(dense), "ms"}},
		{"worker.aggregate_ms", metric{workerAgg, "ms"}},
		{"net.aggregate_ms", metric{netAgg, "ms"}},
		{"aggregate_calls", metric{meanOr0(calls), "count"}},
		{"aggregate_share", metric{sum(agg) / sum(epochs), "ratio"}},
		{"persist.collect_ms", metric{meanOr0(collect), "ms"}},
		{"persist.save_ms", metric{meanOr0(save), "ms"}},
		{"persist.ckpt_mb", metric{meanOr0(ckptMB), "MB"}},
		{"net.node_rss_mb", metric{float64(s.nodeRSS) / 1e6, "MB"}},
		{"simnet.msgs_per_epoch", metric{float64(ref.msgs) / n, "count"}},
		{"simnet.max_inbound_mb", metric{float64(ref.maxInbound) / n / 1e6, "MB"}},
		{"simnet.modeled_comm_ms", metric{ref.modeledCommS / n * 1e3, "ms"}},
		{"go.alloc_mb_per_epoch", metric{perEpoch(float64(win.allocBytes) / 1e6), "MB"}},
		{"go.gc_cycles_per_epoch", metric{perEpoch(float64(win.gcCycles)), "count"}},
		{"go.gc_cpu_ms_per_epoch", metric{perEpoch(win.gcCPU * 1e3), "ms"}},
		{"go.cpu_ms_per_epoch", metric{perEpoch(ms(win.cpu)), "ms"}},
		{"go.core_util", metric{win.cpu.Seconds() / (win.wall.Seconds() * float64(host.GOMAXPROCS)), "ratio"}},
		{"host.ref_ms", metric{(host.RefMsStart + host.RefMsEnd) / 2, "ms"}},
		{"trace.overhead_frac", metric{median(s.tracedMs)/median(s.epochMs) - 1, "ratio"}},
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
