//go:build !race

package rdma

import (
	"testing"

	"mgpucompress/internal/comp"
	"mgpucompress/internal/core"
	"mgpucompress/internal/fault"
	"mgpucompress/internal/mem"
	"mgpucompress/internal/sim"
)

// TestRemoteRoundTripAllocationFree pins the wire path: once the pools and
// queues are warm, a remote read and a remote write round trip between two
// engines allocate nothing, wire messages and their payloads included,
// under every kind of policy and with the guard off and on. The race
// detector instruments allocations, so the file is excluded under -race.
func TestRemoteRoundTripAllocationFree(t *testing.T) {
	if sim.Poison {
		t.Skip("poison builds quarantine released messages instead of reusing them")
	}
	policies := []struct {
		name string
		new  func(int) core.Policy
	}{
		{"none", func(int) core.Policy { return core.Uncompressed{} }},
		{"bdi", func(int) core.Policy { return core.NewStatic(comp.BDI) }},
		{"adaptive", func(int) core.Policy { return core.NewAdaptive(core.Config{Lambda: core.DefaultLambda}) }},
	}
	for _, pol := range policies {
		for _, guard := range []bool{false, true} {
			name := pol.name
			if guard {
				name += "/guard"
			}
			t.Run(name, func(t *testing.T) {
				var tb *testbed
				if guard {
					tb = newGuardedTestbed(t, pol.new, fault.Profile{}, 0)
				} else {
					tb = newTestbed(t, pol.new)
				}
				msgs := mem.PoolOf(tb.part)
				for g := range tb.rdmas {
					tb.rdmas[g].Rec = NopRecorder{}
					tb.l1s[g].discard = msgs
				}
				addr := remoteAddr(tb.space)
				tb.space.Write(addr, compressibleLine())
				line := compressibleLine()
				round := func() {
					tb.read(0, addr)
					tb.write(0, addr+comp.LineSize, line)
					if err := tb.engine.Run(); err != nil {
						t.Fatal(err)
					}
				}
				for i := 0; i < 8; i++ {
					round()
				}
				if got := testing.AllocsPerRun(50, round); got != 0 {
					t.Errorf("%v allocs per read and write round trip, want 0", got)
				}
				if want := 2 * (8 + 51); tb.l1s[0].got != want {
					t.Errorf("L1 got %d responses, want %d", tb.l1s[0].got, want)
				}
				tb.checkQuiescent(t)
				if err := msgs.CheckQuiescent(); err != nil {
					t.Error(err)
				}
			})
		}
	}
}
