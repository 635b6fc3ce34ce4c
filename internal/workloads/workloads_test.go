package workloads

import (
	"testing"

	"mgpucompress/internal/comp"
	"mgpucompress/internal/core"
	"mgpucompress/internal/platform"
	"mgpucompress/internal/stats"
)

func adaptivePolicyFactory() func(int) core.Policy {
	return func(int) core.Policy { return core.NewAdaptive(core.Config{Lambda: 6}) }
}

func testPlatform(newPolicy func(int) core.Policy) *platform.Platform {
	cfg := platform.DefaultConfig()
	cfg.CUsPerGPU = 2
	cfg.NewPolicy = newPolicy
	p, _ := platform.Build(cfg)
	return p
}

// runAndVerify executes a workload end to end and checks its output.
func runAndVerify(t *testing.T, w Workload, newPolicy func(int) core.Policy) *platform.Platform {
	t.Helper()
	p := testPlatform(newPolicy)
	if err := w.Setup(p); err != nil {
		t.Fatalf("%s setup: %v", w.Abbrev(), err)
	}
	if err := w.Run(p); err != nil {
		t.Fatalf("%s run: %v", w.Abbrev(), err)
	}
	if err := w.Verify(p); err != nil {
		t.Fatalf("%s verify: %v", w.Abbrev(), err)
	}
	return p
}

func TestAllWorkloadsRunAndVerifyUncompressed(t *testing.T) {
	for _, w := range All(ScaleTiny) {
		w := w
		t.Run(w.Abbrev(), func(t *testing.T) {
			p := runAndVerify(t, w, nil)
			if p.Bus.TotalBytes() == 0 {
				t.Error("no fabric traffic")
			}
			if p.ExecCycles() == 0 {
				t.Error("zero execution time")
			}
		})
	}
}

// Compression must never change results: run every workload under every
// static codec and the adaptive policy and verify outputs.
func TestAllWorkloadsCorrectUnderEveryPolicy(t *testing.T) {
	policies := map[string]func(int) core.Policy{
		"FPC":      func(int) core.Policy { return core.NewStatic(comp.FPC) },
		"BDI":      func(int) core.Policy { return core.NewStatic(comp.BDI) },
		"CPackZ":   func(int) core.Policy { return core.NewStatic(comp.CPackZ) },
		"Adaptive": func(int) core.Policy { return core.NewAdaptive(core.Config{Lambda: 6}) },
	}
	for name, newPolicy := range policies {
		name, newPolicy := name, newPolicy
		t.Run(name, func(t *testing.T) {
			for _, w := range All(ScaleTiny) {
				w := w
				t.Run(w.Abbrev(), func(t *testing.T) {
					runAndVerify(t, w, newPolicy)
				})
			}
		})
	}
}

func TestWorkloadMetadata(t *testing.T) {
	all := All(ScaleTiny)
	if len(all) != 7 {
		t.Fatalf("expected 7 benchmarks, got %d", len(all))
	}
	wantOrder := []string{"AES", "BS", "FIR", "GD", "KM", "MT", "SC"}
	for i, w := range all {
		if w.Abbrev() != wantOrder[i] {
			t.Errorf("benchmark %d = %s, want %s", i, w.Abbrev(), wantOrder[i])
		}
		if w.Name() == "" || w.Description() == "" {
			t.Errorf("%s missing metadata", w.Abbrev())
		}
	}
	if _, err := ByAbbrev("KM", ScaleTiny); err != nil {
		t.Error(err)
	}
	if _, err := ByAbbrev("NOPE", ScaleTiny); err == nil {
		t.Error("unknown abbreviation accepted")
	}
}

func TestBSLaunchesManyKernels(t *testing.T) {
	// The paper singles out BS for its very large kernel count
	// (log²n stages).
	bs := NewBS(ScaleTiny)
	p := testPlatform(nil)
	if err := bs.Setup(p); err != nil {
		t.Fatal(err)
	}
	if err := bs.Run(p); err != nil {
		t.Fatal(err)
	}
	if bs.KernelCount() < 50 {
		t.Errorf("BS launched %d kernels, want ≥50 (log²n)", bs.KernelCount())
	}
	other := NewMT(ScaleTiny)
	p2 := testPlatform(nil)
	if err := other.Setup(p2); err != nil {
		t.Fatal(err)
	}
	if err := other.Run(p2); err != nil {
		t.Fatal(err)
	}
	if got := p2.Driver.KernelsLaunched; got != 1 {
		t.Errorf("MT launched %d kernels, want 1", got)
	}
}

// runTraffic runs w to completion and returns the traffic the RDMA engines
// put on the fabric.
func runTraffic(t *testing.T, w Workload) stats.Traffic {
	t.Helper()
	cfg := platform.DefaultConfig()
	cfg.CUsPerGPU = 2
	p, _ := platform.Build(cfg)
	if err := w.Setup(p); err != nil {
		t.Fatal(err)
	}
	if err := w.Run(p); err != nil {
		t.Fatal(err)
	}
	if err := w.Verify(p); err != nil {
		t.Fatal(err)
	}
	return p.Traffic()
}

// The entropy ordering of Table V: BS < KM < MT < GD/FIR/SC < AES.
func TestWorkloadEntropyOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("entropy characterization is slow")
	}
	entropy := map[string]float64{}
	for _, abbrev := range []string{"AES", "BS", "MT"} {
		w, err := ByAbbrev(abbrev, ScaleTiny)
		if err != nil {
			t.Fatal(err)
		}
		traffic := runTraffic(t, w)
		entropy[abbrev] = traffic.Entropy()
	}
	if entropy["AES"] < 0.8 {
		t.Errorf("AES entropy = %.2f, want ≈1 (paper: 0.96)", entropy["AES"])
	}
	if entropy["BS"] > 0.2 {
		t.Errorf("BS entropy = %.2f, want ≈0 (paper: 0.02)", entropy["BS"])
	}
	if !(entropy["BS"] < entropy["MT"] && entropy["MT"] < entropy["AES"]) {
		t.Errorf("entropy ordering violated: %v", entropy)
	}
}

// Reads must dominate writes for the read-heavy benchmarks, and be roughly
// equal for MT (Table V).
func TestWorkloadReadWriteShape(t *testing.T) {
	if testing.Short() {
		t.Skip("characterization is slow")
	}
	aes := runTraffic(t, NewAES(ScaleTiny))
	if aes.RemoteReads < 5*aes.RemoteWrites {
		t.Errorf("AES reads/writes = %d/%d, want read-dominated",
			aes.RemoteReads, aes.RemoteWrites)
	}
	mt := runTraffic(t, NewMT(ScaleTiny))
	ratio := float64(mt.RemoteReads) / float64(mt.RemoteWrites)
	if ratio < 0.7 || ratio > 1.4 {
		t.Errorf("MT reads/writes = %d/%d, want ≈1",
			mt.RemoteReads, mt.RemoteWrites)
	}
}
