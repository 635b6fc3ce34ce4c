package runner

import (
	"strings"
	"testing"

	"mgpucompress/internal/comp"
	"mgpucompress/internal/core"
	"mgpucompress/internal/energy"
	"mgpucompress/internal/fabric"
	"mgpucompress/internal/workloads"
)

func TestSamplingAblation(t *testing.T) {
	rows, err := NewSweep(SweepConfig{}).SamplingAblation("MT", tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 {
		t.Fatalf("got %d rows, want 9", len(rows))
	}
	for _, r := range rows {
		if r.Traffic <= 0 || r.Traffic > 1.2 {
			t.Errorf("samples=%d run=%d traffic=%.3f out of range", r.SampleCount, r.RunLength, r.Traffic)
		}
		// MT is uniformly compressible: every configuration must help.
		if r.Traffic > 0.9 {
			t.Errorf("samples=%d run=%d traffic=%.3f: no reduction on MT", r.SampleCount, r.RunLength, r.Traffic)
		}
	}
	out := FormatSamplingAblation("MT", rows)
	if !strings.Contains(out, "Sampling-phase ablation") {
		t.Error("format malformed")
	}
}

func TestOnOffAblation(t *testing.T) {
	rows, err := NewSweep(SweepConfig{}).OnOffAblation([]string{"AES"}, tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	for _, r := range rows {
		// On incompressible AES, the on/off controller must spend (much)
		// less codec energy than the always-on static configuration, which
		// compresses every line in vain.
		if r.OnOffEnergyPJ >= r.StaticEnergyPJ {
			t.Errorf("%v: on/off codec energy %.0f pJ not below static %.0f pJ",
				r.Alg, r.OnOffEnergyPJ, r.StaticEnergyPJ)
		}
		if r.OnOffEnergyPJ > 0.25*r.StaticEnergyPJ {
			t.Errorf("%v: on/off energy %.0f pJ should be a small fraction of static %.0f pJ",
				r.Alg, r.OnOffEnergyPJ, r.StaticEnergyPJ)
		}
		if r.OnOffTime > 1.05 {
			t.Errorf("%v: on/off exec time %.3f should stay ≈1 on AES", r.Alg, r.OnOffTime)
		}
	}
	out := FormatOnOffAblation(rows)
	if !strings.Contains(out, "on/off") {
		t.Error("format malformed")
	}
	// sanity on codec set
	algs := map[comp.Algorithm]bool{}
	for _, r := range rows {
		algs[r.Alg] = true
	}
	if len(algs) != 3 {
		t.Error("ablation missing codecs")
	}
}

func TestLinkClassAblation(t *testing.T) {
	rows, err := NewSweep(SweepConfig{}).LinkClassAblation("MT", tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	// Savings must grow (or at least not shrink) with link distance: the
	// codec-energy overhead is fixed while the transfer energy scales.
	for i := 1; i < len(rows); i++ {
		if rows[i].SavingPercent < rows[i-1].SavingPercent-0.5 {
			t.Errorf("saving on %v (%.1f%%) below %v (%.1f%%)",
				rows[i].Link, rows[i].SavingPercent, rows[i-1].Link, rows[i-1].SavingPercent)
		}
	}
	for _, r := range rows {
		if r.SavingPercent < 5 {
			t.Errorf("%v saving %.1f%%: MT should save plenty", r.Link, r.SavingPercent)
		}
		if r.BaselinePJ <= r.CompressedPJ {
			t.Errorf("%v: no absolute energy saving", r.Link)
		}
	}
	if rows[0].Link != energy.MCM {
		t.Error("first row should be the paper's MCM class")
	}
	out := FormatLinkClassAblation("MT", rows)
	if !strings.Contains(out, "Fabric-class") {
		t.Error("format malformed")
	}
}

func TestExtensionAblation(t *testing.T) {
	rows, err := NewSweep(SweepConfig{}).ExtensionAblation([]string{"MT", "AES"}, tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		for name, v := range map[string]float64{
			"adaptive traffic": r.AdaptiveTraffic, "bpc traffic": r.BPCTraffic,
			"dynamic traffic": r.DynamicTraffic, "adaptive time": r.AdaptiveTime,
			"bpc time": r.BPCTime, "dynamic time": r.DynamicTime,
		} {
			if v <= 0 || v > 1.3 {
				t.Errorf("%s %s = %.3f out of range", r.Benchmark, name, v)
			}
		}
	}
	// MT is uniformly compressible: every variant must reduce traffic.
	for _, r := range rows {
		if r.Benchmark != "MT" {
			continue
		}
		if r.AdaptiveTraffic > 0.9 || r.BPCTraffic > 0.9 || r.DynamicTraffic > 0.9 {
			t.Errorf("MT extension traffic not reduced: %+v", r)
		}
		// BPC's delta/bit-plane transform excels on MT's byte-range pixel
		// data: the extended candidate set must not do worse than the
		// paper's set.
		if r.BPCTraffic > r.AdaptiveTraffic+0.02 {
			t.Errorf("MT: +BPC traffic %.3f worse than adaptive %.3f", r.BPCTraffic, r.AdaptiveTraffic)
		}
	}
	out := FormatExtensionAblation(rows)
	if !strings.Contains(out, "Extension ablation") {
		t.Error("format malformed")
	}
}

func TestDynamicPolicyEndToEnd(t *testing.T) {
	for _, b := range []string{"MT", "AES"} {
		opts := Options{Scale: workloads.ScaleTiny, CUsPerGPU: 2, Policy: core.PolicyDynamic}
		m, err := Run(b, opts)
		if err != nil {
			t.Fatalf("%s: %v", b, err)
		}
		if m.ExecCycles == 0 {
			t.Errorf("%s: empty metrics", b)
		}
	}
}

func TestTopologyAblation(t *testing.T) {
	rows, err := NewSweep(SweepConfig{}).TopologyAblation([]string{"MT"}, tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if want := len(fabric.Topologies()); len(rows) != want {
		t.Fatalf("got %d rows, want one per topology (%d)", len(rows), want)
	}
	var bus, xbar TopologyRow
	for _, r := range rows {
		switch r.Topology {
		case fabric.TopologyBus:
			bus = r
		case fabric.TopologyCrossbar:
			xbar = r
		}
		if r.BaseCycles == 0 {
			t.Errorf("%s: empty base run", r.Topology)
		}
		if r.GlobalCycles == 0 || r.GlobalTraffic == 0 {
			t.Errorf("%s: empty global run (cycles %d, traffic %.3f)", r.Topology, r.GlobalCycles, r.GlobalTraffic)
		}
	}
	// The global columns come from the shared adaptive-global controller,
	// not from a reused per-link run.
	opts := tinyOpts().Options()
	opts.Topology = fabric.TopologyBus
	base, err := Run("MT", opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Policy = core.PolicyAdaptiveGlobal
	opts.Lambda = core.DefaultLambda
	global, err := Run("MT", opts)
	if err != nil {
		t.Fatal(err)
	}
	if bus.GlobalCycles != global.ExecCycles {
		t.Errorf("bus global cycles %d, direct adaptive-global run %d", bus.GlobalCycles, global.ExecCycles)
	}
	if want := float64(global.FabricBytes) / float64(base.FabricBytes); bus.GlobalTraffic != want {
		t.Errorf("bus global traffic %.4f, direct adaptive-global run %.4f", bus.GlobalTraffic, want)
	}
	// The crossbar itself must be faster than the bus.
	if xbar.BaseCycles >= bus.BaseCycles {
		t.Errorf("crossbar base %d not faster than bus %d", xbar.BaseCycles, bus.BaseCycles)
	}
	// Compression must help on the bus, and help less (relatively) on the
	// contention-free crossbar.
	if bus.CompressionSpeedup <= 1.05 {
		t.Errorf("bus compression speedup = %.2f, want >1.05", bus.CompressionSpeedup)
	}
	if xbar.CompressionSpeedup > bus.CompressionSpeedup+0.02 {
		t.Errorf("crossbar speedup %.2f exceeds bus speedup %.2f: contention story broken",
			xbar.CompressionSpeedup, bus.CompressionSpeedup)
	}
	out := FormatTopologyAblation(rows)
	if !strings.Contains(out, "Topology ablation") {
		t.Error("format malformed")
	}
}

func TestRemoteCacheAblation(t *testing.T) {
	rows, err := NewSweep(SweepConfig{}).RemoteCacheAblation([]string{"SC"}, tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("got %d rows", len(rows))
	}
	r := rows[0]
	// SC re-reads halo lines heavily: the remote cache must cut traffic,
	// and so must compression; the combination must not be worse than the
	// better single mechanism (they compose).
	if r.RemoteCacheTraffic >= 0.95 {
		t.Errorf("remote cache traffic = %.3f: no absorption on SC", r.RemoteCacheTraffic)
	}
	if r.CompressionTraffic >= 0.95 {
		t.Errorf("compression traffic = %.3f: no reduction on SC", r.CompressionTraffic)
	}
	best := r.RemoteCacheTraffic
	if r.CompressionTraffic < best {
		best = r.CompressionTraffic
	}
	if r.BothTraffic > best+0.05 {
		t.Errorf("combined traffic %.3f worse than best single %.3f", r.BothTraffic, best)
	}
	out := FormatRemoteCacheAblation(rows)
	if !strings.Contains(out, "Remote-cache") {
		t.Error("format malformed")
	}
}

func TestScalabilityAblation(t *testing.T) {
	rows, err := NewSweep(SweepConfig{}).ScalabilityAblation("MT", tinyOpts(), []int{2, 4, 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.CompressionSpeedup < 1.0 {
			t.Errorf("%d GPUs: compression slowdown %.2f", r.NumGPUs, r.CompressionSpeedup)
		}
		if r.TrafficReduction <= 0 {
			t.Errorf("%d GPUs: no traffic reduction", r.NumGPUs)
		}
	}
	out := FormatScalabilityAblation(rows)
	if !strings.Contains(out, "Scalability") {
		t.Error("format malformed")
	}
}

func TestBandwidthAblation(t *testing.T) {
	rows, err := NewSweep(SweepConfig{}).BandwidthAblation("MT", tinyOpts(), []int{5, 20, 160})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	// Traffic reduction is width-independent (same bytes either way).
	for _, r := range rows {
		if r.TrafficReduction < 0.2 {
			t.Errorf("%d B/cy: traffic reduction %.2f too small", r.BytesPerCycle, r.TrafficReduction)
		}
	}
	// Compression's speedup must shrink as the link widens: on a slow link
	// (5 B/cy) it is large; on an ultra-wide 160 B/cy link, ≈none.
	if !(rows[0].Speedup > rows[1].Speedup && rows[1].Speedup > rows[2].Speedup-0.02) {
		t.Errorf("speedups %v not decreasing with link width",
			[]float64{rows[0].Speedup, rows[1].Speedup, rows[2].Speedup})
	}
	if rows[0].Speedup < 1.3 {
		t.Errorf("slow-link speedup %.2f too small", rows[0].Speedup)
	}
	if rows[2].Speedup > 1.25 {
		t.Errorf("fast-link speedup %.2f too large (link no longer bottleneck)", rows[2].Speedup)
	}
	out := FormatBandwidthAblation("MT", rows)
	if !strings.Contains(out, "Link-bandwidth") {
		t.Error("format malformed")
	}
}
