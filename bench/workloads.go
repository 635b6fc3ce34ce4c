package main

import (
	"fmt"
	"runtime"

	"mgpucompress/internal/core"
	"mgpucompress/internal/fabric"
	"mgpucompress/internal/fault"
	"mgpucompress/internal/runner"
	"mgpucompress/internal/sweep"
	"mgpucompress/internal/workloads"
)

// workload is one closed-loop job list: a pass hands the keys to a sweep of
// `workers` workers, each taking the next job when it finishes the last.
type workload struct {
	name    string
	scale   int // input scale of a full run; -short runs every workload at scale 1
	workers int
	keys    func(scale int, seed int64) []sweep.JobKey
}

// The four workloads stress different layers, and each has a sibling on which
// a given optimisation should not show: the tree run does no codec work, the
// bus run has no switches or faults, and only reproduce-s4 shares one heap
// between two concurrent simulations.
var suite = []workload{
	{
		name:    "adaptive-bus4-s8",
		scale:   8,
		workers: 1,
		keys: func(scale int, seed int64) []sweep.JobKey {
			return perBenchmark(runner.Options{Policy: core.PolicyAdaptive, Lambda: 6}, scale, seed)
		},
	},
	{
		name:    "reproduce-s4",
		scale:   4,
		workers: min(2, runtime.NumCPU()),
		keys: func(scale int, seed int64) []sweep.JobKey {
			return runner.ReproducePlan(runner.ExpOptions{Scale: workloads.Scale(scale), Seed: seed})
		},
	},
	{
		name:    "uncompressed-tree64-s2",
		scale:   2,
		workers: 1,
		keys: func(scale int, seed int64) []sweep.JobKey {
			return perBenchmark(runner.Options{NumGPUs: 64, Topology: fabric.TopologyTree}, scale, seed)
		},
	},
	{
		name:    "faults-mesh16-s4",
		scale:   4,
		workers: 1,
		keys: func(scale int, seed int64) []sweep.JobKey {
			return perBenchmark(runner.Options{
				Policy: core.PolicyAdaptive, Lambda: 6, NumGPUs: 16,
				Topology: fabric.TopologyMesh, Fault: aggressiveFaults(),
			}, scale, seed)
		},
	},
}

// perBenchmark lists the seven Table IV benchmarks under one configuration.
func perBenchmark(opts runner.Options, scale int, seed int64) []sweep.JobKey {
	opts.Scale = workloads.Scale(scale)
	opts.Seed = seed
	var keys []sweep.JobKey
	for _, b := range runner.Benchmarks() {
		keys = append(keys, runner.Key(b, opts))
	}
	return keys
}

func aggressiveFaults() fault.Profile {
	p, err := fault.Parse("aggressive")
	if err != nil {
		panic(err) // a built-in preset always parses
	}
	return p
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range suite {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// keysFor returns the pass's job list at the run's scale and seed.
func (w workload) keysFor(short bool, seed int64) []sweep.JobKey {
	scale := w.scale
	if short {
		scale = 1
	}
	return w.keys(scale, seed)
}
