// Quickstart: compress cache lines with the three hardware codecs and the
// paper's adaptive controller, then run one multi-GPU benchmark under
// adaptive compression and print the headline metrics.
//
//	go run ./examples/quickstart
package main

import (
	"encoding/binary"
	"flag"
	"fmt"
	"log"
	"math/rand"

	"mgpucompress/internal/comp"
	"mgpucompress/internal/core"
	"mgpucompress/internal/runner"
	"mgpucompress/internal/workloads"
)

func main() {
	log.SetFlags(0)
	metricsOut := flag.String("metrics-out", "", "write the adaptive run's metric snapshot as JSON to this file")
	flag.Parse()

	// --- 1. Compress single cache lines -----------------------------------
	lines := map[string][]byte{
		"zeros":             make([]byte, comp.LineSize),
		"low dynamic range": ldrLine(),
		"narrow words":      narrowLine(),
		"random":            randomLine(),
	}
	fmt.Println("compressed size in bits per 64-byte (512-bit) line:")
	fmt.Printf("%-18s %8s %8s %10s\n", "line", "FPC", "BDI", "C-Pack+Z")
	for _, name := range []string{"zeros", "low dynamic range", "narrow words", "random"} {
		line := lines[name]
		fmt.Printf("%-18s", name)
		for _, c := range comp.AllCompressors() {
			enc := c.Compress(line)
			// Round-trip to demonstrate the decoders.
			back, err := c.Decompress(enc)
			if err != nil || len(back) != comp.LineSize {
				log.Fatalf("%v round trip failed: %v", c.Algorithm(), err)
			}
			fmt.Printf(" %8d", enc.Bits)
		}
		fmt.Println()
	}

	// --- 2. The adaptive controller ---------------------------------------
	fmt.Println("\nadaptive controller (λ=6) over a phase change:")
	adaptive := core.NewAdaptive(core.Config{Lambda: 6, SampleCount: 7, RunLength: 20})
	feed := func(line []byte, n int) {
		for i := 0; i < n; i++ {
			adaptive.Process(nil, line)
		}
		alg, sampling := adaptive.Selected()
		fmt.Printf("  after %2d transfers: selected %-8v (sampling=%v)\n", n, alg, sampling)
	}
	feed(ldrLine(), 7)    // BDI territory
	feed(ldrLine(), 20)   // running phase
	feed(randomLine(), 7) // resample on incompressible data -> bypass
	feed(randomLine(), 20)

	// --- 3. A full multi-GPU simulation -----------------------------------
	fmt.Println("\nmatrix transpose on the simulated 4-GPU system:")
	for _, policy := range []core.PolicyID{core.PolicyNone, core.PolicyAdaptive} {
		m, err := runner.Run("MT", runner.Options{
			Scale:  workloads.ScaleTiny,
			Policy: policy,
			Lambda: 6,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-8s exec %8d cycles   fabric %8d bytes   ratio %.2f\n",
			policy, m.ExecCycles, m.FabricBytes, m.CompressionRatio())
		if *metricsOut != "" && policy == core.PolicyAdaptive {
			if err := m.WriteMetricsFile(*metricsOut); err != nil {
				log.Fatal(err)
			}
		}
	}
}

func ldrLine() []byte {
	line := make([]byte, comp.LineSize)
	for i := 0; i < 8; i++ {
		binary.LittleEndian.PutUint64(line[i*8:], 1<<42+uint64(i*5))
	}
	return line
}

func narrowLine() []byte {
	line := make([]byte, comp.LineSize)
	for i := 0; i < 16; i++ {
		binary.LittleEndian.PutUint32(line[i*4:], uint32(i%11))
	}
	return line
}

func randomLine() []byte {
	line := make([]byte, comp.LineSize)
	rand.New(rand.NewSource(1)).Read(line)
	return line
}
