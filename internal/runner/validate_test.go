package runner

import (
	"math"
	"testing"

	"mgpucompress/internal/platform"

	"mgpucompress/internal/core"
	"mgpucompress/internal/energy"
	"mgpucompress/internal/fabric"
	"mgpucompress/internal/fault"
)

func TestOptionsValidate(t *testing.T) {
	for _, tc := range []struct {
		name    string
		opts    Options
		wantErr bool
	}{
		{"zero value", Options{}, false},
		{"full valid", Options{
			Policy: core.PolicyAdaptive, Lambda: 6, CUsPerGPU: 8, NumGPUs: 8,
			Topology: fabric.TopologyCrossbar, Link: energy.Node,
			SeriesLimit: 500, FabricBytesPerCycle: 40,
		}, false},
		{"adaptive config with matching policy", Options{
			Policy: core.PolicyAdaptive, Adaptive: &core.Config{Lambda: 6},
		}, false},
		{"adaptive config with none policy", Options{
			Adaptive: &core.Config{Lambda: 6},
		}, false},
		{"negative scale", Options{Scale: -1}, true},
		{"invalid policy", Options{Policy: core.PolicyID(99)}, true},
		{"negative policy", Options{Policy: core.PolicyID(-1)}, true},
		{"negative lambda", Options{Lambda: -0.5}, true},
		{"NaN lambda", Options{Policy: core.PolicyAdaptive, Lambda: math.NaN()}, true},
		{"+Inf lambda", Options{Policy: core.PolicyAdaptive, Lambda: math.Inf(1)}, true},
		{"-Inf lambda", Options{Policy: core.PolicyAdaptive, Lambda: math.Inf(-1)}, true},
		{"huge finite lambda", Options{Policy: core.PolicyAdaptive, Lambda: 1e18}, false},
		{"adaptive config with negative lambda", Options{
			Policy: core.PolicyAdaptive, Adaptive: &core.Config{Lambda: -1},
		}, true},
		{"adaptive config with NaN lambda", Options{
			Policy: core.PolicyAdaptive, Adaptive: &core.Config{Lambda: math.NaN()},
		}, true},
		{"adaptive config with +Inf lambda", Options{
			Policy: core.PolicyAdaptive, Adaptive: &core.Config{Lambda: math.Inf(1)},
		}, true},
		{"negative CUs", Options{CUsPerGPU: -2}, true},
		{"single GPU", Options{NumGPUs: 1}, true},
		{"negative series limit", Options{SeriesLimit: -1}, true},
		{"negative link width", Options{FabricBytesPerCycle: -20}, true},
		{"unknown topology", Options{Topology: "torus"}, true},
		{"invalid link class", Options{Link: energy.Node + 1}, true},
		{"adaptive config conflicts with static policy", Options{
			Policy: core.PolicyBDI, Adaptive: &core.Config{Lambda: 6},
		}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.opts.Validate()
			if (err != nil) != tc.wantErr {
				t.Errorf("Validate() = %v, wantErr %v", err, tc.wantErr)
			}
		})
	}
}

// TestOptionsValidateMatchesBuild: the config Validate checks is the config
// Run builds, and the platform's shape check is the only one. Over every
// topology and a grid of GPU counts, CU counts and link widths (zero keeps
// the default), Validate accepts and Build constructs exactly the shapes of
// a multi-GPU system: at least two GPUs, a power of two of them on the
// mesh, and no negative CU count or link width.
func TestOptionsValidateMatchesBuild(t *testing.T) {
	builds := func(o Options) (ok bool) {
		defer func() { ok = recover() == nil }()
		platform.Build(o.platformConfig())
		return true
	}
	topologies := append([]fabric.Topology{""}, fabric.Topologies()...)
	for _, topo := range topologies {
		for _, gpus := range []int{0, 1, 2, 3, 4, 6, 8, 16} {
			for _, cus := range []int{-1, 0, 1} {
				for _, width := range []int{-1, 0, 20} {
					o := Options{Topology: topo, NumGPUs: gpus, CUsPerGPU: cus, FabricBytesPerCycle: width}
					want := gpus != 1 && cus >= 0 && width >= 0 &&
						(topo != fabric.TopologyMesh || gpus&(gpus-1) == 0)
					err := o.Validate()
					if built := builds(o); (err == nil) != want || built != want {
						t.Errorf("%q, %d GPUs, %d CUs, width %d: Validate() = %v, Build ok = %v, want ok = %v",
							topo, gpus, cus, width, err, built, want)
					}
				}
			}
		}
	}
}

func TestExpOptionsValidate(t *testing.T) {
	for _, tc := range []struct {
		name    string
		opts    ExpOptions
		wantErr bool
	}{
		{"zero value", ExpOptions{}, false},
		{"full valid", ExpOptions{Scale: 2, CUsPerGPU: 8, Seed: 7, NumGPUs: 16,
			Topology: fabric.TopologyMesh}, false},
		{"negative scale", ExpOptions{Scale: -1}, true},
		{"negative CUs", ExpOptions{CUsPerGPU: -1}, true},
		{"single GPU", ExpOptions{NumGPUs: 1}, true},
		{"unknown topology", ExpOptions{Topology: "bogus"}, true},
		{"mesh needs a power of two", ExpOptions{Topology: fabric.TopologyMesh, NumGPUs: 6}, true},
		{"invalid fault profile", ExpOptions{Fault: fault.Profile{CorruptRate: 2}}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.opts.Validate()
			if (err != nil) != tc.wantErr {
				t.Errorf("Validate() = %v, wantErr %v", err, tc.wantErr)
			}
		})
	}
}

func TestRunRejectsInvalidOptions(t *testing.T) {
	if _, err := Run("MT", Options{NumGPUs: 1}); err == nil {
		t.Error("Run accepted a single-GPU system")
	}
	if _, err := Run("MT", Options{Policy: core.PolicyID(42)}); err == nil {
		t.Error("Run accepted an invalid policy ID")
	}
}
