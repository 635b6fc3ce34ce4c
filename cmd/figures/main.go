// Command figures regenerates the paper's figures from simulation as data
// series / matrices:
//
//	figures -figure 1 -bench SC -n 500   compressed sizes + entropy per transfer
//	figures -figure 5                    normalized traffic & time, static codecs
//	figures -figure 6                    normalized traffic & time, adaptive λ sweep
//	figures -figure 7                    normalized energy
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"

	"mgpucompress/internal/comp"
	"mgpucompress/internal/fabric"
	"mgpucompress/internal/runner"
	"mgpucompress/internal/workloads"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("figures: ")

	figure := flag.Int("figure", 5, "figure number: 1, 5, 6 or 7")
	bench := flag.String("bench", "SC", "benchmark for figure 1 (paper uses SC and FIR)")
	n := flag.Int("n", 500, "number of consecutive transfers for figure 1")
	scale := flag.Int("scale", int(workloads.ScaleSmall), "input scale factor")
	cus := flag.Int("cus", 0, "CUs per GPU (0 = default)")
	gpus := flag.Int("gpus", 0, "GPU count (0 = the paper's 4)")
	topology := flag.String("topology", "", "fabric topology: bus (paper), crossbar, ring, mesh or tree")
	jobs := flag.Int("jobs", 0, "max concurrent simulations (0 = GOMAXPROCS)")
	csv := flag.Bool("csv", false, "emit machine-readable CSV instead of tables")
	metricsOut := flag.String("metrics-out", "", "write every job's metric snapshot as JSON to this file")
	traceOut := flag.String("trace-out", "", "write a Chrome trace-event JSON timeline of all jobs to this file")
	flag.Parse()

	opts := runner.ExpOptions{Scale: workloads.Scale(*scale), CUsPerGPU: *cus,
		Topology: fabric.Topology(*topology), NumGPUs: *gpus}
	sw := runner.NewSweep(runner.SweepConfig{Jobs: *jobs, Trace: *traceOut != ""})
	defer func() {
		if *metricsOut != "" {
			if err := sw.WriteMetricsFile(*metricsOut); err != nil {
				log.Fatal(err)
			}
		}
		if *traceOut != "" {
			if err := sw.WriteTraceFile(*traceOut); err != nil {
				log.Fatal(err)
			}
		}
	}()

	switch *figure {
	case 1:
		s, err := sw.Fig1(strings.ToUpper(*bench), *n, opts)
		if err != nil {
			log.Fatal(err)
		}
		if *csv {
			fmt.Println("xfer,entropy,fpc_bytes,bdi_bytes,cpackz_bytes")
			for _, smp := range s.Samples {
				fmt.Printf("%d,%.4f,%d,%d,%d\n", smp.Index, smp.Entropy,
					smp.Size[comp.FPC], smp.Size[comp.BDI], smp.Size[comp.CPackZ])
			}
			return
		}
		fmt.Print(runner.FormatFig1(strings.ToUpper(*bench), s))
		phases := runner.SummarizeFig1Phases(s)
		fmt.Println("\nphase summary (mean compressed bytes, first half vs second half):")
		for _, alg := range []comp.Algorithm{comp.FPC, comp.BDI, comp.CPackZ} {
			p := phases[alg]
			fmt.Printf("  %-9s %6.1f B -> %6.1f B\n", alg, p[0], p[1])
		}
	case 5:
		rows, err := sw.Fig5(opts)
		if err != nil {
			log.Fatal(err)
		}
		if *csv {
			printCSV(rows)
			return
		}
		fmt.Print(runner.FormatNormalized("Fig. 5: Static Compression", "traffic", rows))
		fmt.Println()
		fmt.Print(runner.FormatNormalized("Fig. 5: Static Compression", "time", rows))
	case 6:
		rows, err := sw.Fig6(opts)
		if err != nil {
			log.Fatal(err)
		}
		if *csv {
			printCSV(rows)
			return
		}
		fmt.Print(runner.FormatNormalized("Fig. 6: Adaptive Compression", "traffic", rows))
		fmt.Println()
		fmt.Print(runner.FormatNormalized("Fig. 6: Adaptive Compression", "time", rows))
	case 7:
		rows, err := sw.Fig7(opts)
		if err != nil {
			log.Fatal(err)
		}
		if *csv {
			printCSV(rows)
			return
		}
		fmt.Print(runner.FormatNormalized("Fig. 7: Energy Consumption", "energy", rows))
	default:
		log.Fatalf("unknown figure %d (want 1, 5, 6 or 7)", *figure)
	}
}

// printCSV emits normalized results as CSV for plotting.
func printCSV(rows []runner.NormalizedResult) {
	fmt.Println("benchmark,policy,traffic,exec_time,energy")
	for _, r := range rows {
		fmt.Printf("%s,%s,%.4f,%.4f,%.4f\n", r.Benchmark, r.Policy, r.Traffic, r.ExecTime, r.Energy)
	}
}
