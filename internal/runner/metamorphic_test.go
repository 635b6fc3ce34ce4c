package runner

import (
	"fmt"
	"testing"

	"mgpucompress/internal/comp"
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

// TestLedgerMatchesObserver ties the RDMA engines' traffic ledger to the
// runner's characterization observer, two separate code paths over the same
// payloads. Under a static codec every payload is one line run through that
// codec, so the bytes the engines shipped equal the bytes characterization
// charges the codec, and both equal the snapshot's traffic/payload_bytes.
func TestLedgerMatchesObserver(t *testing.T) {
	statics := []struct {
		pol core.PolicyID
		alg comp.Algorithm
	}{{core.PolicyFPC, comp.FPC}, {core.PolicyBDI, comp.BDI}, {core.PolicyCPackZ, comp.CPackZ}}
	i := 0
	for _, topo := range fabric.Topologies() {
		for _, st := range statics {
			bench := Benchmarks()[i%len(Benchmarks())]
			i++
			opts := Options{
				Scale:        workloads.ScaleTiny,
				CUsPerGPU:    2,
				Topology:     topo,
				Policy:       st.pol,
				Seed:         int64(i),
				Characterize: true,
			}
			t.Run(fmt.Sprintf("%s/%v/%s", topo, st.pol, bench), func(t *testing.T) {
				res, err := Run(bench, opts)
				if err != nil {
					t.Fatal(err)
				}
				tr := res.Traffic
				if tr.Lines == 0 || tr.UncompressedPayloadBytes != comp.LineSize*tr.Lines {
					t.Fatalf("%d lines carry %d uncompressed bytes; want whole lines",
						tr.Lines, tr.UncompressedPayloadBytes)
				}
				observed := res.PerCodec[st.alg].CompressedBytes
				snap := uint64(res.Snapshot.Value("traffic/payload_bytes"))
				if observed != tr.PayloadBytes || snap != tr.PayloadBytes {
					t.Errorf("%v payload bytes: observer %d, ledger %d, snapshot %d; want equal",
						st.alg, observed, tr.PayloadBytes, snap)
				}
			})
		}
	}
}
