package fabric

import (
	"testing"

	"mgpucompress/internal/sim"
)

// endpointComp is a minimal fabric endpoint: on a tick it sends its packet
// (if it has one), and it drains its port as messages arrive, so input
// credits flow back to the hub.
type endpointComp struct {
	sim.ComponentBase
	port     *sim.Port
	out      *packet
	received int
	freed    int
}

func (c *endpointComp) Handle(e *sim.Event) error {
	if !c.port.Send(e.Time(), c.out) {
		panic("round trip: output buffer full")
	}
	return nil
}

func (c *endpointComp) NotifyRecv(now sim.Time, p *sim.Port) {
	for p.Retrieve(now) != nil {
		c.received++
	}
}

func (c *endpointComp) NotifyPortFree(sim.Time, *sim.Port) { c.freed++ }

// roundTrip is a fabric with a sender and a receiver, each in its own
// partition, so every hop crosses a sim.Remote the way platform.Build wires
// it. On the switched topologies the sender hangs off GPU switch 1 and the
// receiver off the host switch, so the message crosses inter-switch links.
type roundTrip struct {
	eng      *sim.Engine
	fabric   Fabric
	src, dst *endpointComp
}

func newBusRoundTrip() *roundTrip { return newRoundTrip(TopologyBus) }

func newRoundTrip(topo Topology) *roundTrip {
	eng := sim.NewEngine(sim.WithPartitions(3))
	cfg := DefaultConfig()
	cfg.Topology, cfg.Nodes = topo, 2
	rt := &roundTrip{eng: eng, fabric: New(string(topo), eng.Partition(0), cfg)}
	for i, c := range []**endpointComp{&rt.src, &rt.dst} {
		ep := &endpointComp{ComponentBase: sim.NewComponentBase("ep")}
		ep.port = sim.NewPort(ep, "ep.port", 4*1024)
		rt.fabric.Attach(ep.port, eng.Partition(i+1))
		*c = ep
	}
	rt.src.out = pkt(rt.dst.port, 72, 0)
	return rt
}

// run moves one packet from src to dst and back to quiescence: the send
// crosses to the hub, the fabric arbitrates and transmits, the delivery crosses
// to dst, and the output and input credits return. The send starts at the
// engine's time, which no partition has passed.
func (rt *roundTrip) run() error {
	rt.eng.Partition(1).ScheduleTick(rt.eng.Now(), rt.src)
	return rt.eng.Run()
}

// BenchmarkBusRoundTrip measures one bus round trip — send, ingress,
// arbitration, transfer, delivery, credits back — through the records and
// rings of the message path. Must be 0 allocs/op in steady state.
func BenchmarkBusRoundTrip(b *testing.B) {
	rt := newBusRoundTrip()
	if err := rt.run(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := rt.run(); err != nil {
			b.Fatal(err)
		}
	}
}
