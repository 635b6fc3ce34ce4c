package runner

import (
	"fmt"
	"testing"

	"mgpucompress/internal/core"
	"mgpucompress/internal/fabric"
	"mgpucompress/internal/workloads"
)

// TestHugeLambdaMatchesNone is a metamorphic check that needs no oracle:
// with a λ so large that any codec's latency outweighs every saved bit, the
// adaptive controller ships every line raw, so without faults its fabric
// bytes and payload bytes equal the uncompressed run's. λ is finite on
// purpose: an infinite λ is rejected by Options.Validate, because it makes
// every penalty NaN.
func TestHugeLambdaMatchesNone(t *testing.T) {
	for _, topo := range fabric.Topologies() {
		for i, bench := range Benchmarks() {
			t.Run(fmt.Sprintf("%s/%s", topo, bench), func(t *testing.T) {
				opts := Options{
					Scale:     workloads.ScaleTiny,
					CUsPerGPU: 2,
					NumGPUs:   8,
					Topology:  topo,
					Seed:      int64(i + 1),
				}
				none, err := Run(bench, opts)
				if err != nil {
					t.Fatal(err)
				}
				opts.Policy, opts.Lambda = core.PolicyAdaptive, 1e18
				huge, err := Run(bench, opts)
				if err != nil {
					t.Fatal(err)
				}
				for _, path := range []string{"fabric/bytes", "traffic/payload_bytes"} {
					n, a := none.Snapshot.Value(path), huge.Snapshot.Value(path)
					if n == 0 || a != n {
						t.Errorf("%s: none %g, adaptive λ=1e18 %g; want equal and nonzero", path, n, a)
					}
				}
			})
		}
	}
}
