package platform_test

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"mgpucompress/internal/core"
	"mgpucompress/internal/fabric"
	"mgpucompress/internal/fault"
	"mgpucompress/internal/metrics"
	"mgpucompress/internal/platform"
	"mgpucompress/internal/sim"
	"mgpucompress/internal/stats"
	"mgpucompress/internal/workloads"
)

// engineAccounting lists the snapshot paths that count the engine's own
// scheduling work rather than simulated behaviour: they differ between
// window schedules by design.
var engineAccounting = []string{
	"sim/events_", "sim/windows", "sim/remote_msgs", "sim/barrier_spins", "sim/serial_fallback_windows",
}

// TestWindowScheduleIsInvisible runs every workload twice, under the
// engine's adaptive windows and under fixed one-cycle windows, and requires
// the same results: the snapshot without the engine-accounting paths, the
// merged traffic ledger and every engine's read-latency samples. Components
// interact only through links with a declared latency, so where the window
// boundaries fall must not reach what the simulation computes.
//
// adaptive-global rows run too, but are only logged: endpoints on different
// partitions share one controller without a link between them, so its
// results depend on the window schedule. ROADMAP item 2(c) makes that
// controller a modelled component; its rows join the assertion then.
func TestWindowScheduleIsInvisible(t *testing.T) {
	aggressive, err := fault.Parse("aggressive")
	if err != nil {
		t.Fatal(err)
	}
	policies := []core.PolicyID{core.PolicyNone, core.PolicyBDI, core.PolicyAdaptive, core.PolicyDynamic, core.PolicyAdaptiveGlobal}
	benches := workloads.All(workloads.ScaleTiny)
	row, differing, global := 0, 0, 0
	for _, topo := range fabric.Topologies() {
		for _, pol := range policies {
			for _, faults := range []struct {
				name string
				prof fault.Profile
			}{{"off", fault.Profile{}}, {"aggressive", aggressive}} {
				picked := benches
				if testing.Short() {
					picked = benches[row%len(benches) : row%len(benches)+1]
				}
				row++
				for _, w := range picked {
					name := fmt.Sprintf("%s/%v/faults=%s/%s", topo, pol, faults.name, w.Abbrev())
					t.Run(name, func(t *testing.T) {
						adaptive := runDigest(t, w.Abbrev(), topo, pol, faults.prof)
						fixed := runDigest(t, w.Abbrev(), topo, pol, faults.prof, sim.WithLookahead(1))
						switch {
						case pol == core.PolicyAdaptiveGlobal:
							global++
							if adaptive != fixed {
								differing++
								t.Logf("adaptive-global depends on the window schedule (ROADMAP item 2(c)): %s vs %s", adaptive, fixed)
							}
						case adaptive != fixed:
							t.Errorf("adaptive windows give %s, fixed one-cycle windows %s", adaptive, fixed)
						}
					})
				}
			}
		}
	}
	t.Logf("adaptive-global: %d of %d runs depend on the window schedule", differing, global)
}

// runDigest builds an 8-GPU platform with the engine options, runs the
// workload through Setup, Run and Verify at scale 1 and seed 1, checks that
// the run ended quiescent and returns the digest of its results.
func runDigest(t *testing.T, bench string, topo fabric.Topology, pol core.PolicyID, prof fault.Profile, opts ...sim.Option) string {
	t.Helper()
	cfg := platform.DefaultConfig()
	cfg.NumGPUs = 8
	cfg.Fabric.Topology = topo
	if pol != core.PolicyNone {
		newPolicy, err := core.PolicyFactory(pol, 6)
		if err != nil {
			t.Fatal(err)
		}
		cfg.NewPolicy = func(int) core.Policy { return newPolicy() }
	}
	cfg.Fault, cfg.FaultSeed = prof, 1
	w, err := workloads.ByAbbrev(bench, workloads.ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	if sd, ok := w.(workloads.Seeder); ok {
		sd.SetSeed(1)
	}
	p, _ := platform.BuildWith(cfg, opts...)
	for _, stage := range []func(*platform.Platform) error{w.Setup, w.Run, w.Verify} {
		if err := stage(p); err != nil {
			t.Fatal(err)
		}
	}

	var result struct {
		Snapshot    metrics.Snapshot
		Traffic     stats.Traffic
		ReadLatency []*stats.Histogram
	}
	for _, s := range p.Metrics.Snapshot() {
		if !isEngineAccounting(s.Path) {
			result.Snapshot = append(result.Snapshot, s)
		}
	}
	result.Traffic = p.Traffic()
	for _, dev := range p.GPUs {
		result.ReadLatency = append(result.ReadLatency, &dev.RDMA.ReadLatency)
	}
	result.ReadLatency = append(result.ReadLatency, &p.HostRDMA.ReadLatency)
	b, err := json.Marshal(result)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.CheckQuiescent(); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", sha256.Sum256(b))[:16]
}

func isEngineAccounting(path string) bool {
	for _, prefix := range engineAccounting {
		if strings.HasPrefix(path, prefix) {
			return true
		}
	}
	return false
}
