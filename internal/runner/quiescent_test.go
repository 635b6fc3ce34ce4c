package runner

import (
	"fmt"
	"testing"

	"mgpucompress/internal/core"
	"mgpucompress/internal/fabric"
	"mgpucompress/internal/fault"
	"mgpucompress/internal/workloads"
)

// TestRunEndsQuiescent runs the configuration matrix through Run, which
// fails unless Platform.CheckQuiescent proves the run well-formed: every
// memory message released exactly once and no cache, CU, DRAM channel or
// RDMA engine still tracking a request. The matrix is topology × policy ×
// fault profile on 4 GPUs, plus the same policy and fault rows on 16 GPUs
// for the mesh and the tree; the whole matrix takes seconds, so -short runs
// it too. Each cell runs a
// different benchmark, in turn, at quickstart scale. Fault cells must
// retransmit, so the NACK, retry, timeout and stale-drop paths, where a
// leak would hide, are exercised.
func TestRunEndsQuiescent(t *testing.T) {
	aggressive, err := fault.Parse("aggressive")
	if err != nil {
		t.Fatal(err)
	}
	type cell struct {
		topo fabric.Topology
		gpus int
	}
	cells := []cell{}
	for _, topo := range fabric.Topologies() {
		cells = append(cells, cell{topo, 4})
	}
	cells = append(cells, cell{fabric.TopologyMesh, 16}, cell{fabric.TopologyTree, 16})
	policies := []core.PolicyID{core.PolicyNone, core.PolicyBDI, core.PolicyAdaptive, core.PolicyAdaptiveGlobal}
	benchmarks := Benchmarks()
	i := 0
	for _, c := range cells {
		for _, pol := range policies {
			for _, prof := range []fault.Profile{{}, aggressive} {
				bench := benchmarks[i%len(benchmarks)]
				i++
				opts := Options{
					Scale:     workloads.ScaleTiny,
					CUsPerGPU: 2,
					NumGPUs:   c.gpus,
					Topology:  c.topo,
					Policy:    pol,
					Lambda:    6,
					Seed:      int64(i),
					Fault:     prof,
				}
				name := fmt.Sprintf("%s%d/%v/faults=%v/%s", c.topo, c.gpus, pol, prof.Enabled(), bench)
				t.Run(name, func(t *testing.T) {
					res, err := Run(bench, opts)
					if err != nil {
						t.Fatal(err)
					}
					if prof.Enabled() && res.Snapshot.SumMatch("gpu*/rdma/retries")+res.Snapshot.SumMatch("host/rdma/retries") == 0 {
						t.Error("aggressive faults caused no retransmission")
					}
				})
			}
		}
	}
}
