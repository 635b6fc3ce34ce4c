// Trace replay: run a captured memory-access trace through the compressed
// multi-GPU system. Supply your own trace file, or let the example generate
// a synthetic producer/consumer trace to demonstrate the format:
//
//	go run ./examples/trace_replay                 # synthetic demo
//	go run ./examples/trace_replay -file app.trace # your own capture
//
// Trace format: one op per line — `G` starts a workgroup, `R <hexoff>`
// reads a 64-byte line, `W <hexoff> <hexbytes>` writes, `C <n>` computes.
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"strings"

	"mgpucompress/internal/core"
	"mgpucompress/internal/platform"
	"mgpucompress/internal/workloads"
)

func main() {
	log.SetFlags(0)
	file := flag.String("file", "", "trace file (empty = generate a demo trace)")
	flag.Parse()

	var traceText string
	if *file != "" {
		data, err := os.ReadFile(*file)
		if err != nil {
			log.Fatal(err)
		}
		traceText = string(data)
	} else {
		traceText = demoTrace()
		fmt.Println("generated a synthetic producer/consumer trace; first lines:")
		for i, l := range strings.SplitN(traceText, "\n", 8)[:7] {
			fmt.Printf("  %d: %s\n", i+1, l)
		}
		fmt.Println()
	}

	for _, policy := range []string{"none", "adaptive"} {
		rp, err := workloads.ParseTrace(strings.NewReader(traceText))
		if err != nil {
			log.Fatal(err)
		}
		cfg := platform.DefaultConfig()
		if policy != "none" {
			id, err := core.ParsePolicy(policy)
			if err != nil {
				log.Fatal(err)
			}
			newPolicy, err := core.PolicyFactory(id, 6)
			if err != nil {
				log.Fatal(err)
			}
			cfg.NewPolicy = func(int) core.Policy { return newPolicy() }
		}
		p, _ := platform.Build(cfg)
		if err := rp.Setup(p); err != nil {
			log.Fatal(err)
		}
		if err := rp.Run(p); err != nil {
			log.Fatal(err)
		}
		if err := rp.Verify(p); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-9s %d workgroups   exec %8d cycles   fabric %8d bytes\n",
			policy, rp.Workgroups(), p.ExecCycles(), p.Bus.TotalBytes())
		// The run-end audit drains leftover traffic, which moves counters,
		// so it runs after the numbers above are read.
		if err := p.CheckQuiescent(); err != nil {
			log.Fatal(err)
		}
	}
}

// demoTrace emits a producer/consumer pattern: each workgroup reads a chunk
// of "sensor" data and writes a compressible summary elsewhere.
func demoTrace() string {
	rng := rand.New(rand.NewSource(9))
	var sb strings.Builder
	for wg := 0; wg < 16; wg++ {
		fmt.Fprintln(&sb, "G")
		base := wg * 16 * 64
		for i := 0; i < 16; i++ {
			fmt.Fprintf(&sb, "R %x\n", base+i*64)
		}
		fmt.Fprintf(&sb, "C %d\n", 20+rng.Intn(10))
		// Summary line: small counters — highly compressible.
		var payload strings.Builder
		for i := 0; i < 16; i++ {
			fmt.Fprintf(&payload, "%02x000000", rng.Intn(64))
		}
		fmt.Fprintf(&sb, "W %x %s\n", 0x100000+wg*64, payload.String())
	}
	return sb.String()
}
