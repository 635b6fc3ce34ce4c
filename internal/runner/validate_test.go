package runner

import (
	"math"
	"testing"

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
