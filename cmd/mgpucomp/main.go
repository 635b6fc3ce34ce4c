// Command mgpucomp runs one benchmark on the simulated multi-GPU system (the
// paper's 4 GPUs unless -gpus says otherwise) under a chosen compression
// policy and prints the paper's metrics for the run.
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

	"mgpucompress/internal/cli"
	"mgpucompress/internal/comp"
	"mgpucompress/internal/core"
	"mgpucompress/internal/platform"
	"mgpucompress/internal/runner"
	"mgpucompress/internal/sim"
	"mgpucompress/internal/stats"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mgpucomp: ")
	if err := run(flag.CommandLine, os.Args[1:]); err != nil {
		log.Fatal(err)
	}
}

func run(fs *flag.FlagSet, args []string) error {
	bench := fs.String("bench", "MT", "benchmark: AES|BS|FIR|GD|KM|MT|SC")
	policy := fs.String("policy", "none", "compression policy: "+core.PolicyNames())
	lambda := fs.Float64("lambda", 6, "adaptive penalty λ (Eq. 1)")
	characterize := fs.Bool("characterize", false, "also run every codec on every transfer (Table V/VI columns)")
	remoteCache := fs.Bool("remote-cache", false, "enable the L1.5 remote-data cache extension")
	traceFlag := fs.Bool("trace", false, "print a fabric transfer timeline summary")
	statsFlag := fs.Bool("stats", false, "print the hardware counter report")
	f := cli.Bind(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	pol, err := core.ParsePolicy(strings.ToLower(*policy))
	if err != nil {
		return err
	}
	o, err := f.Options()
	if err != nil {
		return err
	}
	opts := o.Options()
	opts.Policy = pol
	opts.Lambda = *lambda
	opts.Characterize = *characterize
	opts.RemoteCache = *remoteCache
	opts.Trace = *traceFlag || f.TraceOut != ""
	if err := opts.Validate(); err != nil {
		return err
	}
	m, err := runner.Run(strings.ToUpper(*bench), opts)
	if err != nil {
		return err
	}
	if err := f.WriteOutputs(m); err != nil {
		return err
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
		fmt.Print(platform.StatsFromSnapshot(m.Snapshot).String())
	}
	if *traceFlag && m.TraceLog != nil {
		fmt.Println()
		bin := sim.Time(m.ExecCycles/60 + 1)
		fmt.Print(m.TraceLog.Summary(bin, 8))
	}
	return nil
}
