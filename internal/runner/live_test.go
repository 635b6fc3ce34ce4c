package runner

import (
	"regexp"
	"sort"
	"testing"

	"mgpucompress/internal/core"
	"mgpucompress/internal/fabric"
	"mgpucompress/internal/fault"
	"mgpucompress/internal/metrics"
	"mgpucompress/internal/workloads"
)

// deadPaths are the snapshot paths (indices normalised to N) that read 0 on
// every run of TestEveryPrintedNumberIsLive, each with the reason it does.
var deadPaths = map[string]string{
	"traffic/messages":        "stats.Traffic.Messages is never incremented",
	"gpuN/rdma/queue_depth":   "the snapshot is taken after the last kernel ends, with the queue drained",
	"host/rdma/queue_depth":   "the snapshot is taken after the last kernel ends, with the queue drained",
	"host/rdma/reads_sent":    "the host only issues kernel-argument writes",
	"host/rdma/reads_served":  "the host owns no memory, so nothing reads from it",
	"host/rdma/writes_served": "the host owns no memory, so nothing writes to it",
	"host/rdma/read_latency":  "the host only issues kernel-argument writes",
	"host/rdma/crc_errors":    "the host receives no payloads: only write acks and NACKs",
	"host/rdma/nacks":         "the host receives no payloads, so it never rejects one",
	"gpuN/l15/bypassed":       "the L1.5 admits every address the L1s route to it",
	"gpuN/l2_N/bypassed":      "an L2 bank has no Cacheable filter, so it admits every address",
}

// instance matches the instance numbers in a metric path: gpu2, ctrl4,
// cu_1, l1_3, l2_0, dram_7 (but not the name of the l15 remote cache).
var instance = regexp.MustCompile(`(^gpu|^ctrl|_)[0-9]+`)

// TestEveryPrintedNumberIsLive requires every registered snapshot path to
// read nonzero in at least one run of a compact matrix (every topology,
// every kind of policy, faults off, the aggressive preset and a short
// retransmit timeout, and the L1.5 remote cache), or to be listed in
// deadPaths with the reason it cannot. A counter that no run ever moves is
// either dead code or an untested path.
func TestEveryPrintedNumberIsLive(t *testing.T) {
	aggressive, err := fault.Parse("aggressive")
	if err != nil {
		t.Fatal(err)
	}
	short, err := fault.Parse(shortTimeout)
	if err != nil {
		t.Fatal(err)
	}
	runs := []Options{
		{Topology: fabric.TopologyBus, Policy: core.PolicyAdaptive},
		{Topology: fabric.TopologyCrossbar, Policy: core.PolicyDynamic},
		{Topology: fabric.TopologyRing, Policy: core.PolicyAdaptiveGlobal, Fault: aggressive},
		{Topology: fabric.TopologyMesh, Policy: core.PolicyBDI, Fault: aggressive},
		{Topology: fabric.TopologyTree, Policy: core.PolicyAdaptive, Fault: aggressive},
		{Topology: fabric.TopologyBus, Policy: core.PolicyAdaptive, Fault: short},
		{Topology: fabric.TopologyBus, Policy: core.PolicyFPC, RemoteCache: true},
	}
	live := map[string]bool{}
	benchmarks := Benchmarks()
	for i, opts := range runs {
		opts.Scale, opts.CUsPerGPU, opts.NumGPUs = workloads.ScaleTiny, 2, 4
		opts.Lambda, opts.Seed = 6, int64(i+1)
		bench := benchmarks[i%len(benchmarks)]
		res, err := Run(bench, opts)
		if err != nil {
			t.Fatalf("%s %+v: %v", bench, opts, err)
		}
		for _, s := range res.Snapshot {
			path := instance.ReplaceAllString(s.Path, "${1}N")
			live[path] = live[path] || isLive(s)
		}
	}
	paths := make([]string, 0, len(live))
	for path := range live {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		_, listed := deadPaths[path]
		switch {
		case !live[path] && !listed:
			t.Errorf("%s reads 0 in every run", path)
		case live[path] && listed:
			t.Errorf("%s is live now: drop it from deadPaths", path)
		}
	}
	for path := range deadPaths {
		if _, ok := live[path]; !ok {
			t.Errorf("deadPaths lists %s, which no run registers", path)
		}
	}
}

func isLive(s metrics.Sample) bool {
	return s.Value != 0 || (s.Dist != nil && s.Dist.Count != 0)
}
