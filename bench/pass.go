package main

import (
	"fmt"
	"runtime"
	"sort"
	"syscall"
	"time"

	"mgpucompress/internal/core"
	"mgpucompress/internal/fabric"
	"mgpucompress/internal/fault"
	"mgpucompress/internal/metrics"
	"mgpucompress/internal/platform"
	"mgpucompress/internal/runner"
	"mgpucompress/internal/sweep"
	"mgpucompress/internal/workloads"
)

// setupReps is how many times each job's platform is built and set up to
// time it; the median of the repetitions counts, which keeps the few
// repetitions a garbage collection lands in out of the result.
const setupReps = 9

// sample is what one child process measures over one pass of a workload.
type sample struct {
	WallS      float64 `json:"wall_s"`
	CPUS       float64 `json:"cpu_s"`
	Mallocs    uint64  `json:"mallocs"`
	AllocBytes uint64  `json:"alloc_bytes"`
	MaxRSSKB   int64   `json:"max_rss_kb"`
	GCCycles   uint32  `json:"gc_cycles"`
	GCPauseNs  uint64  `json:"gc_pause_ns"`
	// SetupS sums over jobs the median of setupReps timed platform.Build plus
	// Workload.Setup calls; BuildS and WSetupS split it by call.
	SetupS  float64     `json:"setup_s"`
	BuildS  float64     `json:"build_s"`
	WSetupS float64     `json:"wsetup_s"`
	Jobs    []jobResult `json:"jobs"`
	// Fold is set on a traced pass only.
	Fold *fold `json:"fold,omitempty"`
}

// outcome holds the simulated results the oracle pins for one job.
type outcome struct {
	ExecCycles   uint64  `json:"exec_cycles"`
	FabricBytes  uint64  `json:"fabric_bytes"`
	PayloadBytes uint64  `json:"traffic.payload_bytes"`
	EnergyPJ     float64 `json:"energy_pj"`
}

type jobResult struct {
	Key   string  `json:"key"`
	Err   string  `json:"err,omitempty"`
	WallS float64 `json:"wall_s"` // the job's span around runner.RunJob
	Out   outcome `json:"out"`
	// Counters are deterministic snapshot sums, named as in counterPaths.
	Counters map[string]float64 `json:"counters"`
}

// counterPaths names the snapshot counters the ledger divides by or reports,
// each summed over the listed path globs.
var counterPaths = []struct {
	name  string
	globs []string
}{
	{"sim.events", []string{"sim/events_handled"}},
	{"sim.windows", []string{"sim/windows"}},
	{"sim.remote_msgs", []string{"sim/remote_msgs"}},
	{"fabric.hops", []string{"fabric/hops"}},
	{"fabric.bytes", []string{"fabric/bytes"}},
	{"fabric.messages", []string{"fabric/messages"}},
	{"rdma.retries", []string{"gpu*/rdma/retries", "host/rdma/retries"}},
	{"rdma.nacks", []string{"gpu*/rdma/nacks", "host/rdma/nacks"}},
	{"rdma.timeouts", []string{"gpu*/rdma/timeouts", "host/rdma/timeouts"}},
	{"fault.injected", []string{"fault/injected"}},
	{"core.sampling_rounds", []string{"ctrl*/sampling_rounds"}},
	{"core.transfers", []string{"ctrl*/transfers"}},
	{"traffic.payload_bytes", []string{"traffic/payload_bytes"}},
	{"traffic.uncompressed_payload_bytes", []string{"traffic/uncompressed_payload_bytes"}},
	{"cache.l1_hits", []string{"gpu*/l1_*/hits"}},
	{"cache.l1_misses", []string{"gpu*/l1_*/misses"}},
	{"cache.l2_hits", []string{"gpu*/l2_*/hits"}},
	{"cache.l2_misses", []string{"gpu*/l2_*/misses"}},
}

func summarize(k sweep.JobKey, res *runner.Result, err error) jobResult {
	jr := jobResult{Key: k.Canonical()}
	if err != nil {
		jr.Err = err.Error()
		return jr
	}
	jr.Out = outcome{
		ExecCycles:   res.ExecCycles,
		FabricBytes:  res.FabricBytes,
		PayloadBytes: res.Traffic.PayloadBytes,
		EnergyPJ:     res.TotalEnergyPJ(),
	}
	jr.Counters = make(map[string]float64, len(counterPaths))
	for _, c := range counterPaths {
		jr.Counters[c.name] = sumGlobs(res.Snapshot, c.globs)
	}
	return jr
}

func sumGlobs(s metrics.Snapshot, globs []string) float64 {
	total := 0.0
	for _, g := range globs {
		total += s.SumMatch(g)
	}
	return total
}

// measurePass times set-up, then runs the job list once through a sweep the
// way cmd/reproduce does, measuring the pass from outside. A traced pass also
// profiles CPU and allocations and folds both by layer.
func measurePass(keys []sweep.JobKey, workers int, traced bool) (sample, error) {
	var s sample
	if err := timeSetup(keys, &s); err != nil {
		return s, err
	}
	runtime.GC()

	var stopTrace func() (*fold, error)
	if traced {
		var err error
		if stopTrace, err = startTrace(); err != nil {
			return s, err
		}
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	ru0 := rusage()
	start := time.Now()

	s.Jobs = runPass(keys, workers)

	s.WallS = time.Since(start).Seconds()
	ru1 := rusage()
	runtime.ReadMemStats(&ms1)
	if traced {
		var err error
		if s.Fold, err = stopTrace(); err != nil {
			return s, err
		}
	}
	s.CPUS = cpuSeconds(ru1) - cpuSeconds(ru0)
	s.MaxRSSKB = ru1.Maxrss
	s.Mallocs = ms1.Mallocs - ms0.Mallocs
	s.AllocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	s.GCCycles = ms1.NumGC - ms0.NumGC
	s.GCPauseNs = ms1.PauseTotalNs - ms0.PauseTotalNs
	return s, nil
}

// runPass runs every key once through a sweep with a timing wrapper around
// runner.RunJob, and returns one result per key in key order.
func runPass(keys []sweep.JobKey, workers int) []jobResult {
	index := make(map[string]int, len(keys))
	for i, k := range keys {
		index[k.Fingerprint()] = i
	}
	// Each job writes only its own slot, and Prefetch returns after every job
	// has settled, so the slots need no lock.
	jobs := make([]jobResult, len(keys))
	timed := func(k sweep.JobKey) (*runner.Result, error) {
		start := time.Now()
		res, err := runner.RunJob(k)
		jr := summarize(k, res, err)
		jr.WallS = time.Since(start).Seconds()
		jobs[index[k.Fingerprint()]] = jr
		return res, err
	}
	// A failing job is recorded in its slot; the sweep's first error adds
	// nothing to that.
	_ = runner.NewSweep(runner.SweepConfig{Jobs: workers, Run: timed}).Prefetch(keys)
	return jobs
}

// timeSetup builds and sets up each job's platform setupReps times and adds
// the medians to s. It also warms the process before the timed pass.
func timeSetup(keys []sweep.JobKey, s *sample) error {
	for _, k := range keys {
		var build, setup, both []float64
		for i := 0; i < setupReps; i++ {
			b, w, err := setupOnce(k)
			if err != nil {
				return fmt.Errorf("set-up of %s: %w", k, err)
			}
			build, setup, both = append(build, b), append(setup, w), append(both, b+w)
		}
		s.BuildS += median(build)
		s.WSetupS += median(setup)
		s.SetupS += median(both)
	}
	return nil
}

// setupOnce builds the platform for the job's shape (GPUs, topology, policy,
// fault profile) and runs the workload's Setup on it, timing each call.
func setupOnce(k sweep.JobKey) (buildS, setupS float64, err error) {
	cfg := platform.DefaultConfig()
	if k.NumGPUs > 0 {
		cfg.NumGPUs = k.NumGPUs
	}
	if k.Topology != "" {
		cfg.Fabric.Topology = fabric.Topology(k.Topology)
	}
	pol, err := core.ParsePolicy(k.Policy)
	if err != nil {
		return 0, 0, err
	}
	if pol != core.PolicyNone {
		newPolicy, err := core.PolicyFactory(pol, k.Lambda)
		if err != nil {
			return 0, 0, err
		}
		cfg.NewPolicy = func(int) core.Policy { return newPolicy() }
	}
	if k.FaultProfile != "" {
		if cfg.Fault, err = fault.Parse(k.FaultProfile); err != nil {
			return 0, 0, err
		}
		cfg.FaultSeed = k.Seed()
	}
	w, err := workloads.ByAbbrev(k.Workload, workloads.Scale(k.Scale))
	if err != nil {
		return 0, 0, err
	}
	if sd, ok := w.(workloads.Seeder); ok {
		sd.SetSeed(k.Seed())
	}
	t0 := time.Now()
	p, _ := platform.Build(cfg)
	t1 := time.Now()
	err = w.Setup(p)
	return t1.Sub(t0).Seconds(), time.Since(t1).Seconds(), err
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	// RUSAGE_SELF on a live process cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

func cpuSeconds(ru syscall.Rusage) float64 {
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// median returns the middle value (the mean of the two middle values for an
// even count); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
