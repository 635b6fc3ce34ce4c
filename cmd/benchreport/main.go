// Command benchreport measures the hot paths and writes a machine-readable
// report: the zero-allocation codec/bitstream/event-queue microbenchmarks, a
// workload × policy macro table (simulated cycles, wall time, allocations
// per full run), and the topology table running the adaptive controller
// with per-link codec selection against a single global controller on every
// interconnect shape at 4, 8, 16 and 64 GPUs.
//
// The JSON also embeds the pre-optimization baseline encode numbers and the
// resulting speedups. Every number is a single sample; performance claims
// rest on the repository benchmark (bench/ and BENCHMARK.json), and the
// committed BENCH_PR*.json files are historical records of earlier reports.
//
// Usage:
//
//	go run ./cmd/benchreport [-out benchreport.json] [-short]
//
// BENCH_SCALE (default 1) selects the macro workload scale.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"testing"
	"time"

	"mgpucompress/internal/bitstream"
	"mgpucompress/internal/comp"
	"mgpucompress/internal/core"
	"mgpucompress/internal/fabric"
	"mgpucompress/internal/runner"
	"mgpucompress/internal/sim"
	"mgpucompress/internal/workloads"
)

// MicroResult is one microbenchmark measurement.
type MicroResult struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// MacroResult is one (workload, policy) end-to-end run.
type MacroResult struct {
	Workload    string  `json:"workload"`
	Policy      string  `json:"policy"`
	ExecCycles  uint64  `json:"exec_cycles"`
	FabricBytes uint64  `json:"fabric_bytes"`
	WallMs      float64 `json:"wall_ms"`
	Allocs      uint64  `json:"allocs"`
}

// Baseline holds the pre-PR encode-path numbers this PR is measured against
// (per-codec Compress on the low-dynamic-range patterned line, and the
// FPC+BDI+CPackZ sampling aggregate, i.e. the per-transfer cost of sizing
// one line under every paper codec).
type Baseline struct {
	Description       string             `json:"description"`
	EncodeNsPerOp     map[string]float64 `json:"encode_ns_per_op"`
	EncodeAllocsPerOp map[string]int64   `json:"encode_allocs_per_op"`
	SamplingTrioNs    float64            `json:"sampling_trio_ns_per_line"`
}

// TopoResult is one row of the topology table: a single workload on one
// interconnect shape, run uncompressed, under the paper's per-link adaptive
// controller, and under one shared global controller. The global controller
// sees every endpoint's traffic but can only pick one codec for the whole
// fabric — the counterpoint the paper's Sec. V design argues against — so
// per_link_fabric_bytes <= global_fabric_bytes measures exactly what
// per-link selection buys.
type TopoResult struct {
	Topology           string  `json:"topology"`
	GPUs               int     `json:"gpus"`
	Workload           string  `json:"workload"`
	BaseExecCycles     uint64  `json:"base_exec_cycles"`
	BaseFabricBytes    uint64  `json:"base_fabric_bytes"`
	PerLinkExecCycles  uint64  `json:"per_link_exec_cycles"`
	PerLinkFabricBytes uint64  `json:"per_link_fabric_bytes"`
	GlobalExecCycles   uint64  `json:"global_exec_cycles"`
	GlobalFabricBytes  uint64  `json:"global_fabric_bytes"`
	PerLinkSpeedup     float64 `json:"per_link_speedup"`
	GlobalSpeedup      float64 `json:"global_speedup"`
	PerLinkTraffic     float64 `json:"per_link_traffic_vs_base"`
	GlobalTraffic      float64 `json:"global_traffic_vs_base"`
	WallMs             float64 `json:"wall_ms"`
}

// Report is the benchmark-report JSON schema.
type Report struct {
	Generated     string             `json:"generated"`
	GoVersion     string             `json:"go_version"`
	GOARCH        string             `json:"goarch"`
	Scale         int                `json:"macro_scale"`
	Micro         []MicroResult      `json:"micro"`
	Baseline      Baseline           `json:"baseline_pre_pr"`
	EncodeSpeedup map[string]float64 `json:"encode_speedup_vs_baseline"`
	// SizeProbeSpeedup compares the size-only probe (CompressedBits) that
	// now backs sampling against the full encode it replaced.
	SizeProbeSpeedup map[string]float64 `json:"size_probe_speedup_vs_baseline"`
	SamplingTrio     struct {
		NsPerLine float64 `json:"ns_per_line"`
		Speedup   float64 `json:"speedup_vs_baseline"`
	} `json:"sampling_trio"`
	Macro      []MacroResult `json:"macro"`
	Topologies []TopoResult  `json:"topologies"`
}

// preBaseline is the recorded state of the encode hot path on the parent
// commit (go test -bench, same flags, patterned low-dynamic-range lines).
var preBaseline = Baseline{
	Description: "parent commit, BenchmarkCompress (allocating Compress) on patterned lines; " +
		"sampling trio = sum of FPC+BDI+CPackZ size probes per line",
	EncodeNsPerOp:     map[string]float64{"FPC": 182.9, "BDI": 611.6, "CPackZ": 434.8, "BPC": 1065},
	EncodeAllocsPerOp: map[string]int64{"FPC": 1, "BDI": 9, "CPackZ": 3, "BPC": 3},
	SamplingTrioNs:    1229,
}

func benchLines(grade string) [][]byte {
	rng := rand.New(rand.NewSource(42))
	lines := make([][]byte, 64)
	for i := range lines {
		line := make([]byte, comp.LineSize)
		switch grade {
		case "zero":
		case "patterned":
			base := uint64(1)<<40 + uint64(i)*96
			for w := 0; w < 8; w++ {
				v := base + uint64(w)*3
				for by := 0; by < 8; by++ {
					line[w*8+by] = byte(v >> (8 * by))
				}
			}
		default: // random
			rng.Read(line)
		}
		lines[i] = line
	}
	return lines
}

func micro(name string, fn func(b *testing.B)) MicroResult {
	r := testing.Benchmark(fn)
	return MicroResult{
		Name:        name,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
}

// codecKeys gives each algorithm a stable ASCII key shared between
// benchmark names and the baseline table ("C-Pack+Z" is awkward in both).
var codecKeys = map[comp.Algorithm]string{
	comp.FPC: "FPC", comp.BDI: "BDI", comp.CPackZ: "CPackZ", comp.BPC: "BPC",
}

func codecMicro(alg comp.Algorithm, grade string) (into, sizeOnly MicroResult) {
	lines := benchLines(grade)
	c := comp.NewCompressor(alg)
	key := codecKeys[alg]
	into = micro(fmt.Sprintf("comp/CompressInto/%s/%s", key, grade), func(b *testing.B) {
		var buf []byte
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			enc := c.CompressInto(buf[:0], lines[i%len(lines)])
			buf = enc.Data
		}
	})
	sizeOnly = micro(fmt.Sprintf("comp/CompressedBits/%s/%s", key, grade), func(b *testing.B) {
		var sink int
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink += c.CompressedBits(lines[i%len(lines)])
		}
		if sink < 0 {
			b.Fatal("impossible")
		}
	})
	return into, sizeOnly
}

func microSuite() []MicroResult {
	var out []MicroResult

	for _, alg := range []comp.Algorithm{comp.FPC, comp.BDI, comp.CPackZ, comp.BPC} {
		for _, grade := range []string{"zero", "patterned", "random"} {
			into, size := codecMicro(alg, grade)
			out = append(out, into, size)
		}
	}

	// The sampling trio: per-transfer cost of sizing one line under all
	// three paper codecs — the inner loop of the adaptive sampling phase.
	trio := []comp.Compressor{comp.NewFPC(), comp.NewBDI(), comp.NewCPackZ()}
	lines := benchLines("patterned")
	out = append(out, micro("comp/SamplingTrio/patterned", func(b *testing.B) {
		var sink int
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			line := lines[i%len(lines)]
			for _, c := range trio {
				sink += c.CompressedBits(line)
			}
		}
		if sink < 0 {
			b.Fatal("impossible")
		}
	}))

	// Bitstream word-level fast paths.
	out = append(out, micro("bitstream/WriteBits/w8", func(b *testing.B) {
		var w bitstream.Writer
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			w.Reset()
			for j := 0; j < 64; j++ {
				w.WriteBits(uint64(j), 8)
			}
		}
	}))
	payload := make([]byte, comp.LineSize)
	out = append(out, micro("bitstream/WriteBytesAligned/64B", func(b *testing.B) {
		var w bitstream.Writer
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			w.Reset()
			w.WriteBytes(payload)
		}
	}))

	// Event-queue churn through the allocation-free ScheduleTick path.
	out = append(out, micro("sim/ScheduleTickChurn", func(b *testing.B) {
		e := sim.NewEngine()
		p := e.Partition(0)
		h := tickSink{}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p.ScheduleTick(p.Now()+sim.Time(i%64), h)
			if i%1024 == 1023 {
				if err := e.Run(); err != nil {
					b.Fatal(err)
				}
			}
		}
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}))

	return out
}

type tickSink struct{}

func (tickSink) Handle(sim.Event) error { return nil }

func macroSuite(scale int, short bool) ([]MacroResult, error) {
	abbrevs := []string{"AES", "BS", "FIR", "GD", "KM", "MT", "SC"}
	policies := []core.PolicyID{
		core.PolicyNone, core.PolicyFPC, core.PolicyBDI, core.PolicyCPackZ, core.PolicyAdaptive,
	}
	if short {
		abbrevs = []string{"SC", "MT"}
		policies = []core.PolicyID{core.PolicyNone, core.PolicyAdaptive}
	}

	var out []MacroResult
	var ms0, ms1 runtime.MemStats
	for _, ab := range abbrevs {
		for _, pol := range policies {
			opts := runner.Options{Scale: workloads.Scale(scale), Policy: pol}
			if pol == core.PolicyAdaptive {
				opts.Lambda = core.DefaultLambda
			}
			runtime.GC()
			runtime.ReadMemStats(&ms0)
			start := time.Now()
			res, err := runner.Run(ab, opts)
			wall := time.Since(start)
			runtime.ReadMemStats(&ms1)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", ab, pol, err)
			}
			out = append(out, MacroResult{
				Workload:    ab,
				Policy:      pol.String(),
				ExecCycles:  res.ExecCycles,
				FabricBytes: res.FabricBytes,
				WallMs:      float64(wall.Nanoseconds()) / 1e6,
				Allocs:      ms1.Mallocs - ms0.Mallocs,
			})
		}
	}
	return out, nil
}

// topoSuite builds the topology table: one workload on every interconnect
// shape, comparing the paper's per-link adaptive controller against one
// global controller shared by all endpoints.
func topoSuite(scale int, short bool) ([]TopoResult, error) {
	type shape struct {
		topo fabric.Topology
		gpus int
	}
	shapes := []shape{
		{fabric.TopologyBus, 4}, {fabric.TopologyCrossbar, 4},
		{fabric.TopologyRing, 8}, {fabric.TopologyRing, 16}, {fabric.TopologyRing, 64},
		{fabric.TopologyMesh, 8}, {fabric.TopologyMesh, 16}, {fabric.TopologyMesh, 64},
		{fabric.TopologyTree, 8}, {fabric.TopologyTree, 16}, {fabric.TopologyTree, 64},
	}
	if short {
		shapes = []shape{
			{fabric.TopologyRing, 8}, {fabric.TopologyMesh, 8}, {fabric.TopologyTree, 8},
		}
	}
	const workload = "SC"
	var out []TopoResult
	for _, sh := range shapes {
		run := func(pol core.PolicyID) (*runner.Result, error) {
			opts := runner.Options{
				Scale:    workloads.Scale(scale),
				Policy:   pol,
				NumGPUs:  sh.gpus,
				Topology: sh.topo,
			}
			if pol != core.PolicyNone {
				opts.Lambda = core.DefaultLambda
			}
			return runner.Run(workload, opts)
		}
		start := time.Now()
		base, err := run(core.PolicyNone)
		if err != nil {
			return nil, fmt.Errorf("%s/%d/none: %w", sh.topo, sh.gpus, err)
		}
		perLink, err := run(core.PolicyAdaptive)
		if err != nil {
			return nil, fmt.Errorf("%s/%d/adaptive: %w", sh.topo, sh.gpus, err)
		}
		global, err := run(core.PolicyAdaptiveGlobal)
		if err != nil {
			return nil, fmt.Errorf("%s/%d/adaptive-global: %w", sh.topo, sh.gpus, err)
		}
		wall := time.Since(start)
		out = append(out, TopoResult{
			Topology:           string(sh.topo),
			GPUs:               sh.gpus,
			Workload:           workload,
			BaseExecCycles:     base.ExecCycles,
			BaseFabricBytes:    base.FabricBytes,
			PerLinkExecCycles:  perLink.ExecCycles,
			PerLinkFabricBytes: perLink.FabricBytes,
			GlobalExecCycles:   global.ExecCycles,
			GlobalFabricBytes:  global.FabricBytes,
			PerLinkSpeedup:     round2(float64(base.ExecCycles) / float64(perLink.ExecCycles)),
			GlobalSpeedup:      round2(float64(base.ExecCycles) / float64(global.ExecCycles)),
			PerLinkTraffic:     round2(float64(perLink.FabricBytes) / float64(base.FabricBytes)),
			GlobalTraffic:      round2(float64(global.FabricBytes) / float64(base.FabricBytes)),
			WallMs:             float64(wall.Nanoseconds()) / 1e6,
		})
	}
	return out, nil
}

func main() {
	outPath := flag.String("out", "benchreport.json", "output JSON path")
	short := flag.Bool("short", false, "smoke mode: 2 workloads × 2 policies, skip nothing else")
	flag.Parse()

	scale := 1
	if s := os.Getenv("BENCH_SCALE"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			scale = v
		}
	}

	rep := Report{
		Generated: time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		GOARCH:    runtime.GOARCH,
		Scale:     scale,
		Baseline:  preBaseline,
	}

	fmt.Fprintln(os.Stderr, "benchreport: running microbenchmarks...")
	rep.Micro = microSuite()

	rep.EncodeSpeedup = map[string]float64{}
	rep.SizeProbeSpeedup = map[string]float64{}
	for _, m := range rep.Micro {
		for alg, base := range preBaseline.EncodeNsPerOp {
			if m.Name == "comp/CompressInto/"+alg+"/patterned" && m.NsPerOp > 0 {
				rep.EncodeSpeedup[alg] = round2(base / m.NsPerOp)
			}
			if m.Name == "comp/CompressedBits/"+alg+"/patterned" && m.NsPerOp > 0 {
				rep.SizeProbeSpeedup[alg] = round2(base / m.NsPerOp)
			}
		}
		if m.Name == "comp/SamplingTrio/patterned" && m.NsPerOp > 0 {
			rep.SamplingTrio.NsPerLine = m.NsPerOp
			rep.SamplingTrio.Speedup = round2(preBaseline.SamplingTrioNs / m.NsPerOp)
		}
	}

	fmt.Fprintln(os.Stderr, "benchreport: running workload × policy macro table...")
	macro, err := macroSuite(scale, *short)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchreport:", err)
		os.Exit(1)
	}
	rep.Macro = macro

	fmt.Fprintln(os.Stderr, "benchreport: running topology × codec-selection table...")
	topos, err := topoSuite(scale, *short)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchreport:", err)
		os.Exit(1)
	}
	rep.Topologies = topos

	data, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchreport:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*outPath, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchreport:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchreport: wrote %s (%d micro, %d macro entries)\n",
		*outPath, len(rep.Micro), len(rep.Macro))
}

func round2(v float64) float64 { return float64(int(v*100+0.5)) / 100 }
