package runner

import (
	"fmt"
	"testing"

	"mgpucompress/internal/core"
	"mgpucompress/internal/fabric"
	"mgpucompress/internal/fault"
	"mgpucompress/internal/workloads"
)

// shortTimeout is a fault profile whose 64-cycle retransmit timeout fires
// before most replies arrive, so replies are overtaken by their own
// retransmissions and the guard's stale-drop path runs.
const shortTimeout = "corrupt=0.05,drop=0.02,delay=0.05,delaycycles=128,timeout=64"

// TestRunEndsQuiescent runs the configuration matrix through Run, which
// fails unless Platform.CheckQuiescent proves the run well-formed: every
// memory message released exactly once and no cache, CU, DRAM channel or
// RDMA engine still tracking a request. The matrix is topology × policy ×
// fault profile on 4 GPUs, plus the same policy and fault rows on 16 GPUs
// for the mesh and the tree and on 8 GPUs for the ring, the mesh and the
// tree; the whole matrix takes seconds, so -short runs it too. Each cell
// runs a different benchmark, in turn, at quickstart scale. Fault cells
// must retransmit, so the NACK, retry and timeout paths, where a leak would
// hide, are exercised. The aggressive preset keeps a 4096-cycle timeout, so
// no reply is ever overtaken by its retransmission; the last rows, every
// 4-GPU fabric × policy under a 64-cycle timeout, must drop stale replies.
func TestRunEndsQuiescent(t *testing.T) {
	aggressive, err := fault.Parse("aggressive")
	if err != nil {
		t.Fatal(err)
	}
	short, err := fault.Parse(shortTimeout)
	if err != nil {
		t.Fatal(err)
	}
	type cell struct {
		topo fabric.Topology
		gpus int
		pol  core.PolicyID
	}
	var fabrics []cell
	for _, topo := range fabric.Topologies() {
		fabrics = append(fabrics, cell{topo: topo, gpus: 4})
	}
	fabrics = append(fabrics, cell{topo: fabric.TopologyMesh, gpus: 16}, cell{topo: fabric.TopologyTree, gpus: 16})
	policies := []core.PolicyID{core.PolicyNone, core.PolicyBDI, core.PolicyAdaptive, core.PolicyAdaptiveGlobal}
	var cells []cell
	for _, f := range fabrics {
		for _, pol := range policies {
			cells = append(cells, cell{f.topo, f.gpus, pol})
		}
	}
	// Later rows go last, so every earlier cell keeps its benchmark, seed
	// and name.
	for _, f := range fabrics {
		cells = append(cells, cell{f.topo, f.gpus, core.PolicyDynamic})
	}
	for _, topo := range []fabric.Topology{fabric.TopologyRing, fabric.TopologyMesh, fabric.TopologyTree} {
		for _, pol := range append(policies, core.PolicyDynamic) {
			cells = append(cells, cell{topo, 8, pol})
		}
	}
	benchmarks := Benchmarks()
	i := 0
	run := func(c cell, faults string, prof fault.Profile, check func(*testing.T, *Result)) {
		bench := benchmarks[i%len(benchmarks)]
		i++
		opts := Options{
			Scale:     workloads.ScaleTiny,
			CUsPerGPU: 2,
			NumGPUs:   c.gpus,
			Topology:  c.topo,
			Policy:    c.pol,
			Lambda:    6,
			Seed:      int64(i),
			Fault:     prof,
		}
		name := fmt.Sprintf("%s%d/%v/faults=%s/%s", c.topo, c.gpus, c.pol, faults, bench)
		t.Run(name, func(t *testing.T) {
			res, err := Run(bench, opts)
			if err != nil {
				t.Fatal(err)
			}
			check(t, res)
		})
	}
	for _, c := range cells {
		run(c, "false", fault.Profile{}, func(*testing.T, *Result) {})
		run(c, "true", aggressive, func(t *testing.T, res *Result) {
			if res.Snapshot.SumMatch("*/rdma/retries") == 0 {
				t.Error("aggressive faults caused no retransmission")
			}
		})
	}
	for _, topo := range fabric.Topologies() {
		for _, pol := range append(policies, core.PolicyDynamic) {
			run(cell{topo, 4, pol}, "timeout64", short, func(t *testing.T, res *Result) {
				if res.Snapshot.SumMatch("*/rdma/stale_drops") == 0 {
					t.Error("a 64-cycle timeout caused no stale drop")
				}
			})
		}
	}
}
