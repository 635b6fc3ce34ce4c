// Command tables regenerates the paper's tables from simulation:
//
//	tables -table 1     pattern support matrix (Table I)
//	tables -table 3     codec cost parameters (Table III)
//	tables -table 5     inter-GPU data characteristics (Table V)
//	tables -table 6     top detected patterns (Table VI)
//	tables -area        Sec. VII-C area overhead
package main

import (
	"flag"
	"fmt"
	"log"

	"mgpucompress/internal/comp"
	"mgpucompress/internal/fabric"
	"mgpucompress/internal/runner"
	"mgpucompress/internal/workloads"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tables: ")

	table := flag.Int("table", 5, "table number: 1, 3, 5 or 6")
	area := flag.Bool("area", false, "print the Sec. VII-C area overhead instead")
	scale := flag.Int("scale", int(workloads.ScaleSmall), "input scale factor")
	cus := flag.Int("cus", 0, "CUs per GPU (0 = default)")
	gpus := flag.Int("gpus", 0, "GPU count (0 = the paper's 4)")
	topology := flag.String("topology", "", "fabric topology: bus (paper), crossbar, ring, mesh or tree")
	jobs := flag.Int("jobs", 0, "max concurrent simulations (0 = GOMAXPROCS)")
	metricsOut := flag.String("metrics-out", "", "write every job's metric snapshot as JSON to this file")
	traceOut := flag.String("trace-out", "", "write a Chrome trace-event JSON timeline of all jobs to this file")
	flag.Parse()

	if *area {
		fmt.Print(runner.FormatAreaOverhead())
		return
	}
	opts := runner.ExpOptions{Scale: workloads.Scale(*scale), CUsPerGPU: *cus,
		Topology: fabric.Topology(*topology), NumGPUs: *gpus}
	s := runner.NewSweep(runner.SweepConfig{Jobs: *jobs, Trace: *traceOut != ""})
	defer func() {
		if *metricsOut != "" {
			if err := s.WriteMetricsFile(*metricsOut); err != nil {
				log.Fatal(err)
			}
		}
		if *traceOut != "" {
			if err := s.WriteTraceFile(*traceOut); err != nil {
				log.Fatal(err)
			}
		}
	}()

	switch *table {
	case 1:
		printTableI()
	case 3:
		printTableIII()
	case 5:
		rows, err := s.TableV(opts)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(runner.FormatTableV(rows))
	case 6:
		rows, err := s.TableVI(opts)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(runner.FormatTableVI(rows))
	default:
		log.Fatalf("unknown table %d (want 1, 3, 5 or 6)", *table)
	}
}

func printTableI() {
	fmt.Println("TABLE I: Supported data patterns by different memory compression algorithms")
	fmt.Printf("%-20s %-8s %-8s %-10s\n", "Data Patterns", "FPC", "BDI", "C-PACK+Z")
	for _, p := range comp.AllDataPatterns() {
		fmt.Printf("%-20s %-8s %-8s %-10s\n", p,
			comp.SupportedPatterns(comp.FPC)[p],
			comp.SupportedPatterns(comp.BDI)[p],
			comp.SupportedPatterns(comp.CPackZ)[p])
	}
}

func printTableIII() {
	fmt.Println("TABLE III: Cost and overhead of memory compression algorithms (7nm, 1 GHz)")
	fmt.Printf("%-10s %10s %12s %10s %10s %12s %10s\n",
		"Scheme", "Comp(cyc)", "Decomp(cyc)", "Area(µm²)", "Comp(mW)", "Decomp(mW)", "Energy(pJ)")
	for _, alg := range []comp.Algorithm{comp.FPC, comp.BDI, comp.CPackZ} {
		c := comp.CostOf(alg)
		fmt.Printf("%-10s %10d %12d %10.0f %10.1f %12.1f %10.1f\n",
			alg, c.CompressionCycles, c.DecompressionCycles, c.AreaUM2,
			c.CompressorMW, c.DecompressorMW, c.BlockEnergyPJ())
	}
}
