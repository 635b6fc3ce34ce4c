// Command ablations runs the extension and design-choice studies that go
// beyond the paper's evaluation:
//
//	ablations -study sampling   sampling-phase geometry sweep (Sec. V choice)
//	ablations -study onoff      single-codec on/off mode (Sec. V)
//	ablations -study link       fabric energy classes (Sec. II)
//	ablations -study extensions BPC candidate set + dynamic λ
//	ablations -study topology   shared bus vs crossbar
//	ablations -study l15        remote cache (Arunkumar et al.) × compression
//	ablations -study scale      GPU-count sweep
//	ablations -study all        everything
//
// With -server each job executes on a resident sweepd daemon instead of the
// local simulator; study output is byte-identical either way.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"

	"mgpucompress/internal/fabric"
	"mgpucompress/internal/runner"
	"mgpucompress/internal/serve"
	"mgpucompress/internal/sweep"
	"mgpucompress/internal/workloads"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ablations: ")
	study := flag.String("study", "all", "sampling|onoff|link|extensions|topology|l15|scale|bandwidth|all")
	scale := flag.Int("scale", 2, "input scale factor")
	cus := flag.Int("cus", 0, "CUs per GPU (0 = default)")
	gpus := flag.Int("gpus", 0, "GPU count (0 = the paper's 4)")
	topology := flag.String("topology", "", "fabric topology for every study except -study topology (which sweeps them all)")
	bench := flag.String("bench", "SC", "benchmark for single-benchmark studies")
	jobs := flag.Int("jobs", 0, "max concurrent simulations (0 = GOMAXPROCS)")
	seed := flag.Int64("seed", 0, "pin every job's input seed (0 = per-job fingerprint seeds)")
	metricsOut := flag.String("metrics-out", "", "write every job's metric snapshot as JSON to this file")
	traceOut := flag.String("trace-out", "", "write a Chrome trace-event JSON timeline of all jobs to this file")
	server := flag.String("server", "", "sweepd base URL (e.g. http://127.0.0.1:8372): execute jobs on a resident daemon instead of simulating locally")
	flag.Parse()

	o := runner.ExpOptions{Scale: workloads.Scale(*scale), CUsPerGPU: *cus, Seed: *seed,
		Topology: fabric.Topology(*topology), NumGPUs: *gpus}
	// One shared sweep across studies: -study all re-uses baseline and
	// adaptive runs that several studies have in common.
	cfg := runner.SweepConfig{Jobs: *jobs, Trace: *traceOut != ""}
	if *server != "" {
		if *traceOut != "" {
			log.Fatal("-trace-out requires local execution: results fetched from a daemon carry no span timeline")
		}
		cfg.Run = remoteRun(&serve.Client{BaseURL: *server})
	}
	s := runner.NewSweep(cfg)
	defer func() {
		if *metricsOut != "" {
			check(s.WriteMetricsFile(*metricsOut))
		}
		if *traceOut != "" {
			check(s.WriteTraceFile(*traceOut))
		}
	}()
	run := map[string]func(){
		"sampling": func() {
			rows, err := s.SamplingAblation(*bench, o)
			check(err)
			fmt.Print(runner.FormatSamplingAblation(*bench, rows))
		},
		"onoff": func() {
			rows, err := s.OnOffAblation([]string{"AES", "MT"}, o)
			check(err)
			fmt.Print(runner.FormatOnOffAblation(rows))
		},
		"link": func() {
			rows, err := s.LinkClassAblation(*bench, o)
			check(err)
			fmt.Print(runner.FormatLinkClassAblation(*bench, rows))
		},
		"extensions": func() {
			rows, err := s.ExtensionAblation(runner.Benchmarks(), o)
			check(err)
			fmt.Print(runner.FormatExtensionAblation(rows))
		},
		"topology": func() {
			rows, err := s.TopologyAblation([]string{"BS", "MT", "SC"}, o)
			check(err)
			fmt.Print(runner.FormatTopologyAblation(rows))
		},
		"l15": func() {
			rows, err := s.RemoteCacheAblation([]string{"SC", "MT", "AES"}, o)
			check(err)
			fmt.Print(runner.FormatRemoteCacheAblation(rows))
		},
		"scale": func() {
			rows, err := s.ScalabilityAblation(*bench, o, []int{2, 4, 8})
			check(err)
			fmt.Print(runner.FormatScalabilityAblation(rows))
		},
		"bandwidth": func() {
			rows, err := s.BandwidthAblation(*bench, o, []int{5, 10, 20, 40, 80, 160})
			check(err)
			fmt.Print(runner.FormatBandwidthAblation(*bench, rows))
		},
	}
	if *study == "all" {
		for _, name := range []string{"sampling", "onoff", "link", "extensions", "topology", "l15", "scale", "bandwidth"} {
			fmt.Printf("=== %s ===\n", name)
			run[name]()
			fmt.Println()
		}
		return
	}
	f, ok := run[*study]
	if !ok {
		log.Fatalf("unknown study %q", *study)
	}
	f()
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

// remoteRun adapts a sweepd client to the sweep engine's run-function shape:
// each job becomes a single-key batch on the daemon, whose memo cache makes
// repeats free. The local engine keeps its own cache, ordering and progress
// accounting, so studies behave identically either way.
func remoteRun(c *serve.Client) func(sweep.JobKey) (*runner.Result, error) {
	return func(k sweep.JobKey) (*runner.Result, error) {
		raw, err := c.RunJob(k)
		if err != nil {
			return nil, err
		}
		res := new(runner.Result)
		if err := json.Unmarshal(raw, res); err != nil {
			return nil, fmt.Errorf("decoding remote result %s: %w", k.Fingerprint(), err)
		}
		return res, nil
	}
}
