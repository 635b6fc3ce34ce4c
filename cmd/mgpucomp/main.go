// Command mgpucomp runs one benchmark on the simulated 4-GPU system under a
// chosen compression policy and prints the paper's metrics for the run.
//
// Usage:
//
//	mgpucomp -bench MT -policy adaptive -lambda 6 -scale 4
//	mgpucomp -bench BS -policy cpackz -characterize
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"mgpucompress/internal/comp"
	"mgpucompress/internal/core"
	"mgpucompress/internal/fabric"
	"mgpucompress/internal/fault"
	"mgpucompress/internal/runner"
	"mgpucompress/internal/sim"
	"mgpucompress/internal/stats"
	"mgpucompress/internal/workloads"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mgpucomp: ")

	bench := flag.String("bench", "MT", "benchmark: AES|BS|FIR|GD|KM|MT|SC")
	flag.StringVar(bench, "workload", "MT", "alias for -bench")
	policy := flag.String("policy", "none", "compression policy: none|fpc|bdi|cpackz|adaptive|dynamic")
	lambda := flag.Float64("lambda", 6, "adaptive penalty λ (Eq. 1)")
	scale := flag.Int("scale", int(workloads.ScaleSmall), "input scale factor")
	cus := flag.Int("cus", 0, "CUs per GPU (0 = default 4; paper scale is 64)")
	characterize := flag.Bool("characterize", false, "also run every codec on every transfer (Table V/VI columns)")
	gpus := flag.Int("gpus", 0, "GPU count (0 = the paper's 4)")
	topology := flag.String("topology", "", "fabric topology: bus (paper), crossbar, ring, mesh or tree")
	remoteCache := flag.Bool("remote-cache", false, "enable the L1.5 remote-data cache extension")
	traceFlag := flag.Bool("trace", false, "print a fabric transfer timeline summary")
	statsFlag := flag.Bool("stats", false, "print the hardware counter report")
	seed := flag.Int64("seed", 0, "workload input-generation seed (0 = the workload's fixed default)")
	faultProfile := flag.String("fault-profile", "off", "fault-injection profile: off|light|aggressive or k=v list (corrupt=,drop=,delay=,delaycycles=,timeout=,attempts=,degradek=)")
	metricsOut := flag.String("metrics-out", "", "write the full metric snapshot as JSON to this file")
	traceOut := flag.String("trace-out", "", "write a Chrome trace-event JSON timeline to this file")
	flag.Parse()

	pol, err := core.ParsePolicy(strings.ToLower(*policy))
	if err != nil {
		log.Fatal(err)
	}
	prof, err := fault.Parse(*faultProfile)
	if err != nil {
		log.Fatal(err)
	}
	opts := runner.Options{
		Scale:        workloads.Scale(*scale),
		CUsPerGPU:    *cus,
		Policy:       pol,
		Lambda:       *lambda,
		Characterize: *characterize,
		NumGPUs:      *gpus,
		Topology:     fabric.Topology(*topology),
		RemoteCache:  *remoteCache,
		Trace:        *traceFlag || *traceOut != "",
		Seed:         *seed,
		Fault:        prof,
	}
	if err := opts.Validate(); err != nil {
		log.Fatal(err)
	}
	m, err := runner.Run(strings.ToUpper(*bench), opts)
	if err != nil {
		log.Fatal(err)
	}
	if *metricsOut != "" {
		if err := m.WriteMetricsFile(*metricsOut); err != nil {
			log.Fatal(err)
		}
	}
	if *traceOut != "" {
		if err := m.WriteTraceFile(*traceOut); err != nil {
			log.Fatal(err)
		}
	}

	fmt.Printf("benchmark          %s\n", m.Workload)
	fmt.Printf("policy             %s (λ=%g)\n", m.Policy, *lambda)
	fmt.Printf("exec time          %d cycles (%.3f ms @ 1 GHz)\n",
		m.ExecCycles, float64(m.ExecCycles)/1e6)
	fmt.Printf("fabric traffic     %d bytes\n", m.FabricBytes)
	fmt.Printf("remote reads       %s K (%d)\n", stats.FormatKilo(m.Traffic.RemoteReads), m.Traffic.RemoteReads)
	fmt.Printf("remote writes      %s K (%d)\n", stats.FormatKilo(m.Traffic.RemoteWrites), m.Traffic.RemoteWrites)
	fmt.Printf("payload entropy    %.3f (aggregate), %.3f (per-line mean)\n",
		m.Traffic.Entropy(), m.Traffic.MeanEntropy())
	fmt.Printf("compression ratio  %.2f (payload, achieved by the policy)\n", m.CompressionRatio())
	fmt.Printf("compressed lines   %d / %d\n", m.Traffic.CompressedLines, m.Traffic.Lines)
	fmt.Printf("remote read lat.   mean %.0f cy, p50 %.0f, p95 %.0f, max %.0f (%d reads)\n",
		m.ReadLatency.Mean(), m.ReadLatency.Percentile(50),
		m.ReadLatency.Percentile(95), m.ReadLatency.Max(), m.ReadLatency.Count())
	fmt.Printf("fabric energy      %.1f nJ\n", m.FabricEnergyPJ/1e3)
	fmt.Printf("codec energy       %.1f nJ\n", m.CodecEnergyPJ/1e3)

	if *characterize {
		fmt.Println("\nper-codec characterization (ratio over all transferred payloads):")
		for _, alg := range []comp.Algorithm{comp.BDI, comp.FPC, comp.CPackZ} {
			fmt.Printf("  %-9s ratio %.2f   top patterns: ", alg, m.CodecRatio(alg))
			for _, t := range m.PerCodec[alg].Patterns.Top(3) {
				fmt.Printf("(%d) %.1f%%  ", t.Pattern, t.Share*100)
			}
			fmt.Println()
		}
	}
	if *statsFlag {
		fmt.Println("\nhardware counters:")
		fmt.Print(m.Platform.String())
	}
	if *traceFlag && m.TraceLog != nil {
		fmt.Println()
		bin := sim.Time(m.ExecCycles/60 + 1)
		fmt.Print(m.TraceLog.Summary(bin, 8))
	}
	os.Exit(0)
}
