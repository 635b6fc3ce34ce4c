package fabric

import (
	"strings"
	"testing"

	"mgpucompress/internal/energy"
	"mgpucompress/internal/sim"
)

// TestConfigValidate is the satellite-task rejection table: every invalid
// configuration that used to be silently normalized (or silently replaced by
// platform.Build's wholesale fallback) must now produce a descriptive error,
// and every supported shape must pass.
func TestConfigValidate(t *testing.T) {
	valid := func(mut func(*Config)) Config {
		c := DefaultConfig()
		if mut != nil {
			mut(&c)
		}
		return c
	}
	cases := []struct {
		name    string
		cfg     Config
		wantErr string // substring; "" = must pass
	}{
		{"default bus", valid(nil), ""},
		{"empty topology", valid(func(c *Config) { c.Topology = "" }), ""},
		{"crossbar", valid(func(c *Config) { c.Topology = TopologyCrossbar }), ""},
		{"ring 8", valid(func(c *Config) { c.Topology = TopologyRing; c.Nodes = 8 }), ""},
		{"mesh 16", valid(func(c *Config) { c.Topology = TopologyMesh; c.Nodes = 16 }), ""},
		{"tree 64", valid(func(c *Config) { c.Topology = TopologyTree; c.Nodes = 64 }), ""},
		{"zero bytes per cycle", valid(func(c *Config) { c.BytesPerCycle = 0 }), "BytesPerCycle"},
		{"negative bytes per cycle", valid(func(c *Config) { c.BytesPerCycle = -3 }), "BytesPerCycle"},
		{"zero link latency", valid(func(c *Config) { c.LinkLatency = 0 }), "latency floor"},
		{"negative out buffer", valid(func(c *Config) { c.OutBufferBytes = -1 }), "OutBufferBytes"},
		{"unknown topology", valid(func(c *Config) { c.Topology = "torus" }), "unknown topology"},
		{"mesh without nodes", valid(func(c *Config) { c.Topology = TopologyMesh }), "power-of-two"},
		{"mesh non-power-of-two", valid(func(c *Config) { c.Topology = TopologyMesh; c.Nodes = 6 }), "power-of-two"},
		{"mesh single node", valid(func(c *Config) { c.Topology = TopologyMesh; c.Nodes = 1 }), "power-of-two"},
		{"ring without nodes", valid(func(c *Config) { c.Topology = TopologyRing }), "Nodes >= 2"},
		{"tree single node", valid(func(c *Config) { c.Topology = TopologyTree; c.Nodes = 1 }), "Nodes >= 2"},
		{"invalid link class", valid(func(c *Config) { c.BaseClass = energy.Node + 1 }), "energy class"},
	}
	for _, tc := range cases {
		err := tc.cfg.Validate()
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("%s: unexpected error: %v", tc.name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: error containing %q, got nil", tc.name, tc.wantErr)
		} else if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %q does not contain %q", tc.name, err, tc.wantErr)
		}
	}
}

// TestMeshDims pins the grid factorization the mesh topology and its tests
// share.
func TestMeshDims(t *testing.T) {
	for _, tc := range []struct{ n, w, h int }{
		{2, 2, 1}, {4, 2, 2}, {8, 4, 2}, {16, 4, 4}, {32, 8, 4}, {64, 8, 8},
	} {
		w, h, err := MeshDims(tc.n)
		if err != nil || w != tc.w || h != tc.h {
			t.Errorf("MeshDims(%d) = (%d, %d, %v), want (%d, %d, nil)", tc.n, w, h, err, tc.w, tc.h)
		}
	}
	for _, n := range []int{0, 1, 3, 6, 12, 63} {
		if _, _, err := MeshDims(n); err == nil {
			t.Errorf("MeshDims(%d): expected error", n)
		}
	}
}

// TestNewFabricRejectsInvalidConfig: every constructor enforces Validate
// instead of normalizing the configuration.
func TestNewFabricRejectsInvalidConfig(t *testing.T) {
	zeroLatency := DefaultConfig()
	zeroLatency.LinkLatency = 0
	badMesh := DefaultConfig()
	badMesh.Topology = TopologyMesh
	badMesh.Nodes = 6
	for _, tc := range []struct {
		name string
		cfg  Config
		ctor func(string, *sim.Partition, Config)
	}{
		{"bus", zeroLatency, func(n string, p *sim.Partition, c Config) { NewBus(n, p, c) }},
		{"crossbar", zeroLatency, func(n string, p *sim.Partition, c Config) { NewCrossbar(n, p, c) }},
		{"switched", badMesh, func(n string, p *sim.Partition, c Config) { NewSwitchFabric(n, p, c) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("constructor accepted an invalid config: %v", tc.cfg.Validate())
				}
			}()
			tc.ctor("bad", nil, tc.cfg)
		})
	}
}
