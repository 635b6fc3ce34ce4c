//go:build !race

package fabric

import "testing"

// TestBusRoundTripAllocationFree pins the fabric's share of the message path
// at zero allocations: after a warm-up round trip has grown the partitions'
// slabs and the endpoint rings, a send crossing the bus and its credits
// coming back allocate nothing. The race detector instruments allocations,
// so the file is excluded under -race.
func TestBusRoundTripAllocationFree(t *testing.T) {
	rt := newBusRoundTrip()
	got := testing.AllocsPerRun(20, func() {
		if err := rt.run(); err != nil {
			t.Fatal(err)
		}
	})
	if got != 0 {
		t.Errorf("%v allocs per round trip, want 0", got)
	}
	if rt.dst.received != 21 || rt.src.freed != 21 {
		t.Fatalf("dst received %d, src saw %d output credits; want 21 each", rt.dst.received, rt.src.freed)
	}
	if rt.dst.port.Buffered() != 0 || rt.eng.Pending() != 0 {
		t.Fatal("round trip left messages or events behind")
	}
}

// TestRoundTripAllocationFreeOnEveryTopology extends the bus pin to every
// topology built through New: after the warm-up, a round trip allocates
// nothing, and the fabric ends it quiescent.
func TestRoundTripAllocationFreeOnEveryTopology(t *testing.T) {
	for _, topo := range Topologies() {
		t.Run(string(topo), func(t *testing.T) {
			rt := newRoundTrip(topo)
			got := testing.AllocsPerRun(20, func() {
				if err := rt.run(); err != nil {
					t.Fatal(err)
				}
			})
			if got != 0 {
				t.Errorf("%v allocs per round trip, want 0", got)
			}
			if rt.dst.received != 21 || rt.src.freed != 21 {
				t.Fatalf("dst received %d, src saw %d output credits; want 21 each", rt.dst.received, rt.src.freed)
			}
			if err := rt.fabric.CheckQuiescent(); err != nil {
				t.Error(err)
			}
		})
	}
}
