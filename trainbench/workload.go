package main

import (
	"scgnn/internal/core"
	"scgnn/internal/dist"
	"scgnn/internal/partition"
	"scgnn/internal/sched"
)

// dataset is the graph every workload trains on: Reddit-shaped, 10k nodes,
// average degree 48, 16 classes.
const dataset = "reddit-sim-10k"

// inputSeed generates the structural inputs of every workload: the graph,
// its partition and the semantic grouping. The run's -seed drives the rest:
// the model's initial weights and the compression streams (sampler coins,
// the schedule's stagger). On this graph family the cut and the grouping
// alone move semantic wire bytes by ±30% and node-cut time by ±40% from
// seed to seed, far more than a regression bound can absorb.
const inputSeed = 1

// Model shape and optimizer, as in scgnn-train and scgnn-coord.
const (
	hidden = 32
	lr     = 0.02
)

// workload is one training job the benchmark repeats. A repetition builds
// the job from the seed (dataset, partition, runtime), trains the fixed
// epoch budget and runs the final evaluation.
type workload struct {
	name  string
	parts int
	cut   partition.Method
	// fleet runs the job on scgnn-node processes, with a training
	// checkpoint at every epoch boundary; otherwise on worker.Cluster.
	fleet bool
	// epochs is the fixed budget of one repetition; the first warmup of
	// them are left out of the epoch-time statistics.
	epochs, warmup int
	// accFloor is the least test accuracy a correct run reaches.
	accFloor float64
	// config is the exchange method; seed is the run's -seed.
	config func(seed int64) dist.Config
}

var workloads = []workload{
	// The paper's recommended setup: dense math, gather kernels,
	// partitioning and planning dominate; the quantized wire path is
	// bypassed.
	{
		name:  "semantic-nodecut-10k",
		parts: 4, cut: partition.NodeCut,
		epochs: 60, warmup: 4, accFloor: 0.9,
		config: func(int64) dist.Config {
			return dist.Semantic(core.PlanConfig{Grouping: core.GroupingConfig{Seed: inputSeed}})
		},
	},
	// Boundary traffic at its maximum: the quantized wire path dominates;
	// partitioning and planning are negligible.
	{
		name:  "quant8-randomcut-10k",
		parts: 4, cut: partition.RandomCut,
		epochs: 12, warmup: 2, accFloor: 0.9,
		config: func(int64) dist.Config { return dist.Quant(8) },
	},
	// The only workload on internal/net: framing and control, scatter and
	// gather, the schedule's control plane and the checkpoint write path.
	// Edge cut, because a random cut makes the error-feedback checkpoints
	// and node memory several times larger. The warm-up covers the
	// annealing rungs, so the timed epochs all run at the base q8 rung.
	{
		name:  "fleet-sched-ckpt-10k",
		parts: 2, cut: partition.EdgeCut, fleet: true,
		epochs: 24, warmup: 10, accFloor: 0.9,
		config: func(seed int64) dist.Config {
			cfg := dist.Quant(8)
			// The schedule's per-pair stagger derives from the config seed,
			// as in scgnn-coord -sched.
			cfg.Seed = seed
			cfg.Sched = sched.Policy{Enabled: true}
			return cfg
		},
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
