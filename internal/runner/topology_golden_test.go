package runner

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"mgpucompress/internal/core"
	"mgpucompress/internal/fabric"
	"mgpucompress/internal/workloads"
)

var updateTopologyGolden = flag.Bool("update", false, "rewrite the per-topology golden digests")

// goldenOptions is the pinned workload behind the committed digests: the
// quickstart-scale SC run with a fixed input seed, adaptive λ=6, 8 GPUs.
// Everything that reaches the metric snapshot is pinned, so the digests
// only move when simulated behaviour moves.
func goldenOptions(topo fabric.Topology) Options {
	return Options{
		Scale:     workloads.ScaleTiny,
		CUsPerGPU: 2,
		NumGPUs:   8,
		Policy:    core.PolicyAdaptive,
		Lambda:    6,
		Seed:      42,
		Topology:  topo,
	}
}

func snapshotDigest(t *testing.T, name string, opts Options) string {
	t.Helper()
	res, err := Run("SC", opts)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if opts.Policy == core.PolicyDynamic {
		// The dynamic digests pin λ recalibration and, under faults, the
		// controller's graceful degradation: both must actually happen.
		if n := res.Snapshot.SumMatch("ctrl*/recalibrations"); n == 0 {
			t.Errorf("%s: no λ recalibration", name)
		}
		if n := res.Snapshot.SumMatch("ctrl*/degraded_phases"); opts.Fault.Enabled() && n == 0 {
			t.Errorf("%s: no degraded phase under faults", name)
		}
	}
	var buf bytes.Buffer
	if err := res.Snapshot.WriteJSON(&buf); err != nil {
		t.Fatalf("%s: serializing snapshot: %v", name, err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

// TestTopologyGoldenDigests pins the full metric snapshot of one seed-pinned
// workload on every topology, under the per-link adaptive policy (keyed by
// topology), under the shared adaptive-global controller (keyed
// "<topology>/adaptive-global") and under the dynamic-λ controller, fault-free
// and with the aggressive fault profile (keyed "<topology>/dynamic" and
// "<topology>/dynamic-aggressive"). adaptive-global is the one policy whose
// results depend on the order partitions execute inside a window, so its
// digests pin the window schedule itself. A digest moving means simulated
// behaviour changed on that interconnect — which must be an intentional,
// reviewed change. Regenerate with:
//
//	go test ./internal/runner -run TestTopologyGoldenDigests -update
func TestTopologyGoldenDigests(t *testing.T) {
	golden := filepath.Join("testdata", "topology_digests.json")

	got := map[string]string{}
	for _, topo := range fabric.Topologies() {
		got[string(topo)] = snapshotDigest(t, string(topo), goldenOptions(topo))
		global := goldenOptions(topo)
		global.Policy = core.PolicyAdaptiveGlobal
		name := string(topo) + "/adaptive-global"
		got[name] = snapshotDigest(t, name, global)

		dynamic := goldenOptions(topo)
		dynamic.Policy = core.PolicyDynamic
		name = string(topo) + "/dynamic"
		got[name] = snapshotDigest(t, name, dynamic)
		dynamic.Fault = mustParseProfile(t, "aggressive")
		name = string(topo) + "/dynamic-aggressive"
		got[name] = snapshotDigest(t, name, dynamic)
	}

	if *updateTopologyGolden {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", golden)
		return
	}

	data, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden digests (run with -update): %v", err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("parsing %s: %v", golden, err)
	}

	var topos []string
	for k := range want {
		topos = append(topos, k)
	}
	sort.Strings(topos)
	if len(want) != len(got) {
		t.Errorf("golden file has %d topologies, run produced %d (run with -update?)", len(want), len(got))
	}
	for _, topo := range topos {
		if got[topo] != want[topo] {
			t.Errorf("%s: snapshot digest %s, golden %s — simulated behaviour changed on this topology (run with -update if intentional)",
				topo, got[topo], want[topo])
		}
	}
}

// TestSwitchedTopologiesAcrossGPUCounts: the switched fabrics must build and
// complete a verified workload at every target platform size, including the
// 64-GPU hierarchical configurations.
func TestSwitchedTopologiesAcrossGPUCounts(t *testing.T) {
	counts := []int{8, 16, 64}
	if testing.Short() {
		counts = []int{8, 16}
	}
	for _, topo := range []fabric.Topology{fabric.TopologyRing, fabric.TopologyMesh, fabric.TopologyTree} {
		for _, n := range counts {
			opts := goldenOptions(topo)
			opts.NumGPUs = n
			if _, err := Run("SC", opts); err != nil {
				t.Errorf("%s at %d GPUs: %v", topo, n, err)
			}
		}
	}
}
