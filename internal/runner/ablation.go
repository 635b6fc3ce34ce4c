package runner

import (
	"fmt"
	"strings"

	"mgpucompress/internal/comp"
	"mgpucompress/internal/core"
	"mgpucompress/internal/energy"
	"mgpucompress/internal/fabric"
	"mgpucompress/internal/sweep"
)

// This file holds ablation studies for the design choices the paper makes
// but does not sweep (the sampling-phase geometry of 7 samples per
// 300-transfer running phase, the single-codec on/off degenerate mode of
// Sec. V, the fabric integration level of Sec. II) and for the extensions.
// Each study has a key function that lists its jobs up front; the study
// method fans them out across the worker pool in one batch and assembles
// rows in canonical order, so studies sharing runs (e.g. the uncompressed
// baseline) simulate them once per Sweep. Ablations wraps every study as an
// artifact whose Keys is that same key function.

// ablationBench is the benchmark of the single-benchmark studies.
const ablationBench = "SC"

// Ablations lists every ablation artifact in writing order. They are not
// part of the paper's Artifacts, so a default reproduction never runs them;
// reproduce -only selects them by name.
func Ablations() []Artifact {
	onOff := []string{"AES", "MT"}
	topology := []string{"BS", "MT", "SC"}
	remoteCache := []string{"SC", "MT", "AES"}
	gpuCounts := []int{2, 4, 8}
	widths := []int{5, 10, 20, 40, 80, 160}
	return []Artifact{
		{"ablation_sampling",
			func(o ExpOptions) []sweep.JobKey { return samplingKeys(ablationBench, o) },
			func(s *Sweep, o ExpOptions) (string, error) {
				rows, err := s.SamplingAblation(ablationBench, o)
				return FormatSamplingAblation(ablationBench, rows), err
			}},
		{"ablation_onoff",
			func(o ExpOptions) []sweep.JobKey { return onOffKeys(onOff, o) },
			func(s *Sweep, o ExpOptions) (string, error) {
				rows, err := s.OnOffAblation(onOff, o)
				return FormatOnOffAblation(rows), err
			}},
		{"ablation_link",
			func(o ExpOptions) []sweep.JobKey { return linkClassKeys(ablationBench, o) },
			func(s *Sweep, o ExpOptions) (string, error) {
				rows, err := s.LinkClassAblation(ablationBench, o)
				return FormatLinkClassAblation(ablationBench, rows), err
			}},
		{"ablation_extensions",
			func(o ExpOptions) []sweep.JobKey { return extensionKeys(Benchmarks(), o) },
			func(s *Sweep, o ExpOptions) (string, error) {
				rows, err := s.ExtensionAblation(Benchmarks(), o)
				return FormatExtensionAblation(rows), err
			}},
		{"ablation_topology",
			func(o ExpOptions) []sweep.JobKey { return topologyKeys(topology, o) },
			func(s *Sweep, o ExpOptions) (string, error) {
				rows, err := s.TopologyAblation(topology, o)
				return FormatTopologyAblation(rows), err
			}},
		{"ablation_l15",
			func(o ExpOptions) []sweep.JobKey { return remoteCacheKeys(remoteCache, o) },
			func(s *Sweep, o ExpOptions) (string, error) {
				rows, err := s.RemoteCacheAblation(remoteCache, o)
				return FormatRemoteCacheAblation(rows), err
			}},
		{"ablation_scale",
			func(o ExpOptions) []sweep.JobKey { return scalabilityKeys(ablationBench, o, gpuCounts) },
			func(s *Sweep, o ExpOptions) (string, error) {
				rows, err := s.ScalabilityAblation(ablationBench, o, gpuCounts)
				return FormatScalabilityAblation(rows), err
			}},
		{"ablation_bandwidth",
			func(o ExpOptions) []sweep.JobKey { return bandwidthKeys(ablationBench, o, widths) },
			func(s *Sweep, o ExpOptions) (string, error) {
				rows, err := s.BandwidthAblation(ablationBench, o, widths)
				return FormatBandwidthAblation(ablationBench, rows), err
			}},
	}
}

// customAdaptiveKey builds the job key for a custom adaptive configuration.
func customAdaptiveKey(bench string, o ExpOptions, cfg core.Config) sweep.JobKey {
	opts := o.Options()
	opts.Adaptive = &cfg
	return Key(bench, opts)
}

// adaptiveKey is the paper's adaptive controller at λ=6 under extra options.
func adaptiveKey(bench string, opts Options) sweep.JobKey {
	opts.Policy = core.PolicyAdaptive
	opts.Lambda = core.DefaultLambda
	return Key(bench, opts)
}

// SamplingAblationRow measures one (sampleCount, runLength) configuration.
type SamplingAblationRow struct {
	SampleCount int
	RunLength   int
	Traffic     float64 // normalized to no compression
	ExecTime    float64
}

// samplingGeometries is the swept (sampleCount, runLength) grid.
var samplingGeometries = func() [][2]int {
	var g [][2]int
	for _, sc := range []int{3, 7, 15} {
		for _, rl := range []int{100, 300, 1000} {
			g = append(g, [2]int{sc, rl})
		}
	}
	return g
}()

// SamplingAblation sweeps the sampling-phase geometry on one benchmark,
// normalized to the uncompressed baseline. The paper fixes 7 samples per
// 300 transfers "achieving a balance between sampling accuracy and
// efficiency" (Sec. V); this quantifies that balance.
func (s *Sweep) SamplingAblation(bench string, o ExpOptions) ([]SamplingAblationRow, error) {
	ms, err := s.All(samplingKeys(bench, o))
	if err != nil {
		return nil, err
	}
	base := ms[0]
	rows := make([]SamplingAblationRow, 0, len(samplingGeometries))
	for i, g := range samplingGeometries {
		m := ms[1+i]
		rows = append(rows, SamplingAblationRow{
			SampleCount: g[0],
			RunLength:   g[1],
			Traffic:     float64(m.FabricBytes) / float64(base.FabricBytes),
			ExecTime:    float64(m.ExecCycles) / float64(base.ExecCycles),
		})
	}
	return rows, nil
}

// samplingKeys lists the baseline, then one run per sampling geometry.
func samplingKeys(bench string, o ExpOptions) []sweep.JobKey {
	keys := []sweep.JobKey{Key(bench, o.Options())}
	for _, g := range samplingGeometries {
		keys = append(keys, customAdaptiveKey(bench, o, core.Config{
			Lambda:      core.DefaultLambda,
			SampleCount: g[0],
			RunLength:   g[1],
		}))
	}
	return keys
}

// FormatSamplingAblation renders the sweep.
func FormatSamplingAblation(bench string, rows []SamplingAblationRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Sampling-phase ablation on %s (normalized to no compression)\n", bench)
	fmt.Fprintf(&sb, "%8s %8s %10s %10s\n", "samples", "run", "traffic", "time")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%8d %8d %10.3f %10.3f\n", r.SampleCount, r.RunLength, r.Traffic, r.ExecTime)
	}
	return sb.String()
}

// OnOffAblationRow compares one codec used statically versus under the
// single-candidate adaptive ("on/off") controller of Sec. V.
type OnOffAblationRow struct {
	Benchmark      string
	Alg            comp.Algorithm
	StaticTime     float64 // normalized exec time
	OnOffTime      float64
	StaticEnergyPJ float64 // codec energy, absolute
	OnOffEnergyPJ  float64
}

var onOffAlgs = []comp.Algorithm{comp.FPC, comp.BDI, comp.CPackZ}

// OnOffAblation shows that even with a single codec integrated, the
// adaptive scheme pays for itself by switching the circuit off on
// incompressible phases.
func (s *Sweep) OnOffAblation(benches []string, o ExpOptions) ([]OnOffAblationRow, error) {
	ms, err := s.All(onOffKeys(benches, o))
	if err != nil {
		return nil, err
	}
	stride := 1 + 2*len(onOffAlgs)
	var rows []OnOffAblationRow
	for i, b := range benches {
		group := ms[i*stride : (i+1)*stride]
		base := group[0]
		for j, alg := range onOffAlgs {
			st, oo := group[1+2*j], group[2+2*j]
			rows = append(rows, OnOffAblationRow{
				Benchmark:      b,
				Alg:            alg,
				StaticTime:     float64(st.ExecCycles) / float64(base.ExecCycles),
				OnOffTime:      float64(oo.ExecCycles) / float64(base.ExecCycles),
				StaticEnergyPJ: st.CodecEnergyPJ,
				OnOffEnergyPJ:  oo.CodecEnergyPJ,
			})
		}
	}
	return rows, nil
}

// onOffKeys lists, per benchmark, the baseline and then each codec's static
// and single-candidate adaptive runs: stride 1+2*len(onOffAlgs).
func onOffKeys(benches []string, o ExpOptions) []sweep.JobKey {
	var keys []sweep.JobKey
	for _, b := range benches {
		keys = append(keys, Key(b, o.Options()))
		for _, alg := range onOffAlgs {
			staticOpts := o.Options()
			switch alg {
			case comp.FPC:
				staticOpts.Policy = core.PolicyFPC
			case comp.BDI:
				staticOpts.Policy = core.PolicyBDI
			case comp.CPackZ:
				staticOpts.Policy = core.PolicyCPackZ
			}
			keys = append(keys, Key(b, staticOpts))
			keys = append(keys, customAdaptiveKey(b, o, core.Config{
				Lambda:     core.DefaultLambda,
				Candidates: []comp.Compressor{comp.NewCompressor(alg)},
			}))
		}
	}
	return keys
}

// FormatOnOffAblation renders the on/off comparison.
func FormatOnOffAblation(rows []OnOffAblationRow) string {
	var sb strings.Builder
	sb.WriteString("Single-codec on/off ablation (Sec. V): static vs adaptive single-candidate\n")
	fmt.Fprintf(&sb, "%-6s %-9s %12s %12s %16s %16s\n",
		"Bench", "Codec", "static time", "on/off time", "static codec pJ", "on/off codec pJ")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-6s %-9s %12.3f %12.3f %16.0f %16.0f\n",
			r.Benchmark, r.Alg, r.StaticTime, r.OnOffTime, r.StaticEnergyPJ, r.OnOffEnergyPJ)
	}
	return sb.String()
}

// LinkClassRow reports adaptive λ=6 energy savings for one fabric class.
type LinkClassRow struct {
	Link          energy.LinkClass
	BaselinePJ    float64
	CompressedPJ  float64
	SavingPercent float64
}

// LinkClassAblation recomputes Fig. 7's energy saving across the
// integration levels of Sec. II: the fabric transfer energy scales with
// pJ/b while the codec overhead stays fixed, so savings grow with distance.
func (s *Sweep) LinkClassAblation(bench string, o ExpOptions) ([]LinkClassRow, error) {
	ms, err := s.All(linkClassKeys(bench, o))
	if err != nil {
		return nil, err
	}
	rows := make([]LinkClassRow, 0, len(linkClasses))
	for i, link := range linkClasses {
		base, m := ms[2*i], ms[2*i+1]
		rows = append(rows, LinkClassRow{
			Link:          link,
			BaselinePJ:    base.TotalEnergyPJ(),
			CompressedPJ:  m.TotalEnergyPJ(),
			SavingPercent: 100 * (1 - m.TotalEnergyPJ()/base.TotalEnergyPJ()),
		})
	}
	return rows, nil
}

// linkClasses are the swept fabric integration levels.
var linkClasses = []energy.LinkClass{energy.MCM, energy.Board, energy.Node}

// linkClassKeys lists the baseline and adaptive run per link class.
func linkClassKeys(bench string, o ExpOptions) []sweep.JobKey {
	var keys []sweep.JobKey
	for _, link := range linkClasses {
		opts := o.Options()
		opts.Link = link
		keys = append(keys, Key(bench, opts), adaptiveKey(bench, opts))
	}
	return keys
}

// FormatLinkClassAblation renders the link-class sweep.
func FormatLinkClassAblation(bench string, rows []LinkClassRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Fabric-class ablation on %s (adaptive λ=6)\n", bench)
	fmt.Fprintf(&sb, "%-22s %14s %14s %10s\n", "link", "baseline nJ", "adaptive nJ", "saving")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-22s %14.1f %14.1f %9.1f%%\n",
			r.Link, r.BaselinePJ/1e3, r.CompressedPJ/1e3, r.SavingPercent)
	}
	return sb.String()
}

// ExtensionRow compares the paper's adaptive controller against the two
// extensions: the BPC-augmented candidate set (related work, Kim et al.)
// and congestion-driven dynamic λ (the dynamic selection Sec. V leaves
// out).
type ExtensionRow struct {
	Benchmark       string
	AdaptiveTraffic float64
	BPCTraffic      float64
	DynamicTraffic  float64
	AdaptiveTime    float64
	BPCTime         float64
	DynamicTime     float64
}

// ExtensionAblation measures the extensions on the given benchmarks.
func (s *Sweep) ExtensionAblation(benches []string, o ExpOptions) ([]ExtensionRow, error) {
	ms, err := s.All(extensionKeys(benches, o))
	if err != nil {
		return nil, err
	}
	const stride = 4
	rows := make([]ExtensionRow, 0, len(benches))
	for i, b := range benches {
		group := ms[i*stride : (i+1)*stride]
		base := group[0]
		norm := func(m *Result) (float64, float64) {
			return float64(m.FabricBytes) / float64(base.FabricBytes),
				float64(m.ExecCycles) / float64(base.ExecCycles)
		}
		row := ExtensionRow{Benchmark: b}
		row.AdaptiveTraffic, row.AdaptiveTime = norm(group[1])
		row.BPCTraffic, row.BPCTime = norm(group[2])
		row.DynamicTraffic, row.DynamicTime = norm(group[3])
		rows = append(rows, row)
	}
	return rows, nil
}

// extensionKeys lists, per benchmark, the baseline, adaptive λ=6, the
// BPC-augmented candidate set and dynamic λ: stride 4.
func extensionKeys(benches []string, o ExpOptions) []sweep.JobKey {
	var keys []sweep.JobKey
	for _, b := range benches {
		keys = append(keys, Key(b, o.Options()))
		keys = append(keys, adaptiveKey(b, o.Options()))
		keys = append(keys, customAdaptiveKey(b, o, core.Config{
			Lambda:     core.DefaultLambda,
			Candidates: comp.ExtendedCompressors(),
		}))
		dynOpts := o.Options()
		dynOpts.Policy = core.PolicyDynamic
		keys = append(keys, Key(b, dynOpts))
	}
	return keys
}

// FormatExtensionAblation renders the extension comparison.
func FormatExtensionAblation(rows []ExtensionRow) string {
	var sb strings.Builder
	sb.WriteString("Extension ablation: adaptive λ=6 vs +BPC candidate vs dynamic λ\n")
	fmt.Fprintf(&sb, "%-6s | %9s %9s %9s | %9s %9s %9s\n",
		"Bench", "adpt trf", "+BPC trf", "dyn trf", "adpt t", "+BPC t", "dyn t")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-6s | %9.3f %9.3f %9.3f | %9.3f %9.3f %9.3f\n",
			r.Benchmark, r.AdaptiveTraffic, r.BPCTraffic, r.DynamicTraffic,
			r.AdaptiveTime, r.BPCTime, r.DynamicTime)
	}
	return sb.String()
}

// TopologyRow compares one interconnect (bus, crossbar, ring, mesh or
// tree) uncompressed, under the paper's per-link adaptive controller
// (every link's compressor picks its own codec, Sec. V), and under
// adaptive-global, one controller shared by every endpoint that picks a
// single codec for the whole fabric. Both controllers run at λ=6.
type TopologyRow struct {
	Benchmark string
	Topology  fabric.Topology
	// Cycles without compression, with per-link and with global selection.
	BaseCycles     uint64
	AdaptiveCycles uint64
	GlobalCycles   uint64
	// Speedups over the uncompressed run on this topology.
	CompressionSpeedup float64
	GlobalSpeedup      float64
	// Fabric bytes of the per-link and global runs, normalized to the
	// uncompressed run's.
	AdaptiveTraffic float64
	GlobalTraffic   float64
}

// TopologyAblation quantifies how much of compression's win comes from
// relieving fabric contention: on the richer crossbar, the same traffic
// reduction buys less time, while the switched topologies (ring, mesh,
// tree) add multi-hop serialization that compression relieves at every hop.
// Each topology also runs the shared global controller next to the per-link
// one, so the rows compare the two codec-selection scopes.
func (s *Sweep) TopologyAblation(benches []string, o ExpOptions) ([]TopologyRow, error) {
	ms, err := s.All(topologyKeys(benches, o))
	if err != nil {
		return nil, err
	}
	const stride = 3
	topos := fabric.Topologies()
	var rows []TopologyRow
	for i, b := range benches {
		for j, topo := range topos {
			group := ms[(i*len(topos)+j)*stride:]
			base, m, g := group[0], group[1], group[2]
			rows = append(rows, TopologyRow{
				Benchmark:          b,
				Topology:           topo,
				BaseCycles:         base.ExecCycles,
				AdaptiveCycles:     m.ExecCycles,
				GlobalCycles:       g.ExecCycles,
				CompressionSpeedup: float64(base.ExecCycles) / float64(m.ExecCycles),
				GlobalSpeedup:      float64(base.ExecCycles) / float64(g.ExecCycles),
				AdaptiveTraffic:    float64(m.FabricBytes) / float64(base.FabricBytes),
				GlobalTraffic:      float64(g.FabricBytes) / float64(base.FabricBytes),
			})
		}
	}
	return rows, nil
}

// topologyKeys lists, per benchmark and topology, the baseline, per-link
// adaptive and adaptive-global runs: stride 3.
func topologyKeys(benches []string, o ExpOptions) []sweep.JobKey {
	var keys []sweep.JobKey
	for _, b := range benches {
		for _, topo := range fabric.Topologies() {
			opts := o.Options()
			opts.Topology = topo
			global := opts
			global.Policy = core.PolicyAdaptiveGlobal
			global.Lambda = core.DefaultLambda
			keys = append(keys, Key(b, opts), adaptiveKey(b, opts), Key(b, global))
		}
	}
	return keys
}

// FormatTopologyAblation renders the topology comparison.
func FormatTopologyAblation(rows []TopologyRow) string {
	var sb strings.Builder
	sb.WriteString("Topology ablation: per-link vs global adaptive λ=6 per interconnect " +
		"(traffic normalized to no compression)\n")
	fmt.Fprintf(&sb, "%-6s %-10s %12s %12s %12s | %8s %8s | %8s %8s\n",
		"Bench", "topology", "base cyc", "per-link cyc", "global cyc",
		"per-link", "global", "pl trf", "gl trf")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-6s %-10s %12d %12d %12d | %7.2fx %7.2fx | %8.3f %8.3f\n",
			r.Benchmark, r.Topology, r.BaseCycles, r.AdaptiveCycles, r.GlobalCycles,
			r.CompressionSpeedup, r.GlobalSpeedup, r.AdaptiveTraffic, r.GlobalTraffic)
	}
	return sb.String()
}

// RemoteCacheRow compares four configurations of one benchmark: the paper's
// baseline, compression alone (adaptive λ=6), the L1.5 remote cache alone
// (Arunkumar et al.), and both combined.
type RemoteCacheRow struct {
	Benchmark string
	// Normalized execution time (1.00 = neither mechanism).
	Compression float64
	RemoteCache float64
	Both        float64
	// Normalized fabric traffic.
	CompressionTraffic float64
	RemoteCacheTraffic float64
	BothTraffic        float64
}

// RemoteCacheAblation quantifies how the two bandwidth mechanisms compose:
// the remote cache removes repeat transfers, compression shrinks the rest.
func (s *Sweep) RemoteCacheAblation(benches []string, o ExpOptions) ([]RemoteCacheRow, error) {
	ms, err := s.All(remoteCacheKeys(benches, o))
	if err != nil {
		return nil, err
	}
	const stride = 4
	rows := make([]RemoteCacheRow, 0, len(benches))
	for i, b := range benches {
		group := ms[i*stride : (i+1)*stride]
		base := group[0]
		norm := func(m *Result) (float64, float64) {
			return float64(m.ExecCycles) / float64(base.ExecCycles),
				float64(m.FabricBytes) / float64(base.FabricBytes)
		}
		row := RemoteCacheRow{Benchmark: b}
		row.Compression, row.CompressionTraffic = norm(group[1])
		row.RemoteCache, row.RemoteCacheTraffic = norm(group[2])
		row.Both, row.BothTraffic = norm(group[3])
		rows = append(rows, row)
	}
	return rows, nil
}

// remoteCacheKeys lists, per benchmark, neither mechanism, compression,
// the remote cache and both: stride 4.
func remoteCacheKeys(benches []string, o ExpOptions) []sweep.JobKey {
	variantKey := func(b string, policy core.PolicyID, rc bool) sweep.JobKey {
		opts := o.Options()
		opts.Policy = policy
		opts.Lambda = core.DefaultLambda
		opts.RemoteCache = rc
		return Key(b, opts)
	}
	var keys []sweep.JobKey
	for _, b := range benches {
		keys = append(keys,
			variantKey(b, core.PolicyNone, false),
			variantKey(b, core.PolicyAdaptive, false),
			variantKey(b, core.PolicyNone, true),
			variantKey(b, core.PolicyAdaptive, true))
	}
	return keys
}

// FormatRemoteCacheAblation renders the composition study.
func FormatRemoteCacheAblation(rows []RemoteCacheRow) string {
	var sb strings.Builder
	sb.WriteString("Remote-cache (L1.5) × compression ablation (normalized, 1.00 = neither)\n")
	fmt.Fprintf(&sb, "%-6s | %9s %9s %9s | %9s %9s %9s\n",
		"Bench", "compr t", "cache t", "both t", "compr trf", "cache trf", "both trf")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-6s | %9.3f %9.3f %9.3f | %9.3f %9.3f %9.3f\n",
			r.Benchmark, r.Compression, r.RemoteCache, r.Both,
			r.CompressionTraffic, r.RemoteCacheTraffic, r.BothTraffic)
	}
	return sb.String()
}

// ScalabilityRow measures one GPU-count configuration.
type ScalabilityRow struct {
	Benchmark string
	NumGPUs   int
	// Speedup of adaptive λ=6 compression over no compression at this
	// GPU count.
	CompressionSpeedup float64
	// TrafficReduction is 1 − (compressed / baseline fabric bytes).
	TrafficReduction float64
}

// ScalabilityAblation sweeps the GPU count: more GPUs mean a larger remote
// fraction on the same shared bus, so compression's leverage grows.
func (s *Sweep) ScalabilityAblation(bench string, o ExpOptions, gpuCounts []int) ([]ScalabilityRow, error) {
	ms, err := s.All(scalabilityKeys(bench, o, gpuCounts))
	if err != nil {
		return nil, err
	}
	rows := make([]ScalabilityRow, 0, len(gpuCounts))
	for i, n := range gpuCounts {
		base, m := ms[2*i], ms[2*i+1]
		rows = append(rows, ScalabilityRow{
			Benchmark:          bench,
			NumGPUs:            n,
			CompressionSpeedup: float64(base.ExecCycles) / float64(m.ExecCycles),
			TrafficReduction:   1 - float64(m.FabricBytes)/float64(base.FabricBytes),
		})
	}
	return rows, nil
}

// scalabilityKeys lists the baseline and adaptive run per GPU count.
func scalabilityKeys(bench string, o ExpOptions, gpuCounts []int) []sweep.JobKey {
	var keys []sweep.JobKey
	for _, n := range gpuCounts {
		opts := o.Options()
		opts.NumGPUs = n
		keys = append(keys, Key(bench, opts), adaptiveKey(bench, opts))
	}
	return keys
}

// FormatScalabilityAblation renders the GPU-count sweep.
func FormatScalabilityAblation(rows []ScalabilityRow) string {
	var sb strings.Builder
	sb.WriteString("Scalability ablation: adaptive compression vs GPU count\n")
	fmt.Fprintf(&sb, "%-6s %8s %12s %16s\n", "Bench", "GPUs", "speedup", "traffic saved")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-6s %8d %11.2fx %15.1f%%\n",
			r.Benchmark, r.NumGPUs, r.CompressionSpeedup, 100*r.TrafficReduction)
	}
	return sb.String()
}

// BandwidthRow measures compression's value at one link width.
type BandwidthRow struct {
	BytesPerCycle int
	GbPerSec      float64
	// Normalized to the uncompressed baseline at the SAME link width.
	Speedup          float64
	TrafficReduction float64
	// BaseBusUtilization shows whether the link was the bottleneck.
	BaseCycles uint64
}

// BandwidthAblation sweeps the inter-GPU link width. The Sec. II taxonomy
// spans 12.5 GB/s InfiniBand to TB/s on-die links; this quantifies where
// along that range link compression stops buying execution time (it always
// buys energy).
func (s *Sweep) BandwidthAblation(bench string, o ExpOptions, widths []int) ([]BandwidthRow, error) {
	ms, err := s.All(bandwidthKeys(bench, o, widths))
	if err != nil {
		return nil, err
	}
	rows := make([]BandwidthRow, 0, len(widths))
	for i, w := range widths {
		base, m := ms[2*i], ms[2*i+1]
		rows = append(rows, BandwidthRow{
			BytesPerCycle:    w,
			GbPerSec:         float64(w) * 8, // at 1 GHz
			Speedup:          float64(base.ExecCycles) / float64(m.ExecCycles),
			TrafficReduction: 1 - float64(m.FabricBytes)/float64(base.FabricBytes),
			BaseCycles:       base.ExecCycles,
		})
	}
	return rows, nil
}

// bandwidthKeys lists the baseline and adaptive run per link width.
func bandwidthKeys(bench string, o ExpOptions, widths []int) []sweep.JobKey {
	var keys []sweep.JobKey
	for _, w := range widths {
		opts := o.Options()
		opts.FabricBytesPerCycle = w
		keys = append(keys, Key(bench, opts), adaptiveKey(bench, opts))
	}
	return keys
}

// FormatBandwidthAblation renders the link-width sweep.
func FormatBandwidthAblation(bench string, rows []BandwidthRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Link-bandwidth ablation on %s (adaptive λ=6 vs none at each width)\n", bench)
	fmt.Fprintf(&sb, "%10s %10s %12s %16s %14s\n", "B/cycle", "Gb/s", "speedup", "traffic saved", "base cycles")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%10d %10.0f %11.2fx %15.1f%% %14d\n",
			r.BytesPerCycle, r.GbPerSec, r.Speedup, 100*r.TrafficReduction, r.BaseCycles)
	}
	return sb.String()
}
