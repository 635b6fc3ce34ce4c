package fabric

import (
	"fmt"

	"mgpucompress/internal/metrics"
	"mgpucompress/internal/sim"
)

// Fabric abstracts the inter-GPU interconnect so the platform can swap the
// paper's shared bus for richer topologies. The crossbar below exists for
// the topology ablation: the paper's intro notes that "the design of the
// inter-GPU network can impact performance significantly", and comparing
// compression gains across topologies quantifies how much of the benefit
// comes from relieving bus contention.
type Fabric interface {
	// Attach connects an endpoint port, owned by a component living in
	// partition owner, to the fabric. Must be called before the simulation
	// starts; it wires the port's connection and the cross-partition links.
	Attach(p *sim.Port, owner *sim.Partition)
	// TotalBytes is everything delivered, headers and control included.
	TotalBytes() uint64
	// TotalMessages is the number of messages delivered.
	TotalMessages() uint64
	// Utilization is busy time over elapsed time, averaged over the
	// serializing links (one for the bus).
	Utilization(now sim.Time) float64
	// EnergyPJ is the accumulated link transfer energy: bits moved times
	// the pJ/bit of the link class each hop crossed. Single-hop fabrics
	// (bus, crossbar) price everything at Config.BaseClass; switched
	// topologies additionally charge Board/Node tiers per inter-switch hop.
	EnergyPJ() float64
	// RegisterMetrics exposes the fabric counters under prefix
	// (conventionally "fabric"): bytes, messages, busy_cycles, links.
	// Switched topologies add hops and switches.
	RegisterMetrics(reg *metrics.Registry, prefix string)
	// CheckQuiescent reports an error unless the drained fabric is back in
	// its initial state: no message queued or in flight, every input and
	// output credit returned.
	CheckQuiescent() error
}

// Topology names a fabric implementation.
type Topology string

// Supported topologies.
const (
	TopologyBus      Topology = "bus"      // the paper's shared bus
	TopologyCrossbar Topology = "crossbar" // extension: full crossbar
	TopologyRing     Topology = "ring"     // switched: bidirectional ring, one switch per GPU
	TopologyMesh     Topology = "mesh"     // switched: 2D mesh, dimension-ordered routing
	TopologyTree     Topology = "tree"     // switched: radix-4 hierarchical switch fabric
)

// Topologies lists every supported topology in presentation order.
func Topologies() []Topology {
	return []Topology{TopologyBus, TopologyCrossbar, TopologyRing, TopologyMesh, TopologyTree}
}

// Switched reports whether t is one of the multi-hop switch topologies.
func (t Topology) Switched() bool {
	return t == TopologyRing || t == TopologyMesh || t == TopologyTree
}

// New builds the fabric selected by cfg.Topology (default: the paper's bus)
// as a component of the hub partition part.
func New(name string, part *sim.Partition, cfg Config) Fabric {
	switch cfg.Topology {
	case TopologyCrossbar:
		return NewCrossbar(name, part, cfg)
	case TopologyRing, TopologyMesh, TopologyTree:
		return NewSwitchFabric(name, part, cfg)
	case TopologyBus, "":
		return NewBus(name, part, cfg)
	default:
		panic(fmt.Sprintf("fabric: unknown topology %q", cfg.Topology))
	}
}

// Crossbar is a non-blocking switch: every endpoint owns an input and an
// output link of BytesPerCycle each, and transfers between disjoint
// endpoint pairs proceed concurrently. A message occupies its source's
// output link and its destination's input link for the same integral
// number of cycles the bus would charge.
type Crossbar struct {
	hub
}

// NewCrossbar creates the switch on the hub partition part. The
// configuration must pass Validate; violations are wiring bugs and panic.
func NewCrossbar(name string, part *sim.Partition, cfg Config) *Crossbar {
	c := &Crossbar{hub: newHub(name, part, cfg)}
	c.arb = c
	return c
}

// xbarDone completes one transfer: the record carries the message and, in
// Arg, the cycle its transmission started.
type xbarDone struct{ c *Crossbar }

func (r xbarDone) Handle(e *sim.Event) error {
	r.c.deliver(e.Time(), sim.Time(e.Arg()), e.Msg())
	r.c.schedule(e.Time())
	return nil
}

func (c *Crossbar) admit(now sim.Time, _ *endpoint) { c.schedule(now) }
func (c *Crossbar) refunded(now sim.Time)           { c.schedule(now) }

// linkCount implements arbiter: one output link per endpoint.
func (c *Crossbar) linkCount() int { return len(c.all.eps) }

// inNetwork implements arbiter: transfers on the links are not counted.
func (c *Crossbar) inNetwork() int { return 0 }

// schedule starts every transfer whose source output link and destination
// input link are both free, scanning sources round-robin.
func (c *Crossbar) schedule(now sim.Time) {
	for {
		ep, msg := c.pick(now, &c.all)
		if ep == nil {
			return
		}
		bytes := msg.Meta().Bytes
		done := now + c.transmit(bytes)
		ep.outBusy = done
		c.endpointOf(msg.Meta().Dst).inBusy = done
		c.part.Schedule(done, xbarDone{c}, msg, int(now))
		c.outCredit(now, ep, bytes)
	}
}
