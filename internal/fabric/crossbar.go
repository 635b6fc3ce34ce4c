package fabric

import (
	"fmt"

	"mgpucompress/internal/metrics"
	"mgpucompress/internal/sim"
	"mgpucompress/internal/trace"
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
	// Utilization is busy time over elapsed time (for a crossbar, averaged
	// over the output links).
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
	outBusy map[*endpoint]sim.Time
	inBusy  map[*sim.Port]sim.Time
	nextRR  int

	messagesSent uint64
	bytesSent    uint64
	busyCycles   uint64 // summed over output links
}

// NewCrossbar creates the switch on the hub partition part. The
// configuration must pass Validate; violations are wiring bugs and panic.
func NewCrossbar(name string, part *sim.Partition, cfg Config) *Crossbar {
	c := &Crossbar{
		hub:     newHub(name, part, cfg),
		outBusy: make(map[*endpoint]sim.Time),
		inBusy:  make(map[*sim.Port]sim.Time),
	}
	c.arb = c
	return c
}

// xbarDeliverEvent completes one transfer.
type xbarDeliverEvent struct {
	sim.EventBase
	msg   sim.Msg
	start sim.Time
}

// Handle implements sim.Handler for the hub-side events.
func (c *Crossbar) Handle(e sim.Event) error {
	switch evt := e.(type) {
	case *sim.TickEvent:
		c.schedule(e.Time())
		return nil
	case linkIngressEvent:
		evt.ep.queue = append(evt.ep.queue, evt.msg)
		c.schedule(e.Time())
		return nil
	case inCreditEvent:
		evt.ep.refund(evt.bytes)
		c.schedule(e.Time())
		return nil
	case xbarDeliverEvent:
		c.messagesSent++
		c.bytesSent += uint64(evt.msg.Meta().Bytes)
		if c.cfg.Trace != nil {
			c.cfg.Trace.Record(trace.Transfer{
				Start: evt.start,
				End:   e.Time(),
				Src:   evt.msg.Meta().Src.Name(),
				Dst:   evt.msg.Meta().Dst.Name(),
				Bytes: evt.msg.Meta().Bytes,
				Kind:  fmt.Sprintf("%T", evt.msg),
			})
		}
		c.finish(e.Time(), evt.msg)
		c.schedule(e.Time())
		return nil
	case faultDeliverEvent:
		c.pendingFaults--
		c.handOff(e.Time(), evt.msg)
		return nil
	default:
		return fmt.Errorf("fabric %s: unexpected event %T", c.Name(), e)
	}
}

// schedule starts every transfer whose source output link and destination
// input link are both free, scanning sources round-robin.
func (c *Crossbar) schedule(now sim.Time) {
	n := len(c.endpoints)
	if n == 0 {
		return
	}
	started := true
	for started {
		started = false
		for i := 0; i < n; i++ {
			ep := c.endpoints[(c.nextRR+i)%n]
			if len(ep.queue) == 0 {
				continue
			}
			msg := ep.queue[0]
			dst := msg.Meta().Dst
			if c.outBusy[ep] > now || c.inBusy[dst] > now {
				continue
			}
			bytes := msg.Meta().Bytes
			if !c.byPort[dst].reserve(bytes) {
				continue
			}
			ep.queue = ep.queue[1:]
			cycles := c.cycles(bytes)
			done := now + cycles
			c.outBusy[ep] = done
			c.inBusy[dst] = done
			c.busyCycles += uint64(cycles)
			c.part.Schedule(xbarDeliverEvent{
				EventBase: sim.NewEventBase(done, c),
				msg:       msg,
				start:     now,
			})
			c.outCredit(now, ep, bytes)
			c.nextRR = (c.nextRR + i + 1) % n
			started = true
			break
		}
	}
}

// RegisterMetrics implements Fabric. The links gauge reads len(endpoints)
// lazily, so registering before Attach still reports the final endpoint
// count.
func (c *Crossbar) RegisterMetrics(reg *metrics.Registry, prefix string) {
	reg.CounterFunc(prefix+"/bytes", func() uint64 { return c.bytesSent })
	reg.CounterFunc(prefix+"/messages", func() uint64 { return c.messagesSent })
	reg.CounterFunc(prefix+"/busy_cycles", func() uint64 { return c.busyCycles })
	reg.GaugeFunc(prefix+"/links", func() float64 { return float64(len(c.endpoints)) })
}

// TotalBytes implements Fabric.
func (c *Crossbar) TotalBytes() uint64 { return c.bytesSent }

// TotalMessages implements Fabric.
func (c *Crossbar) TotalMessages() uint64 { return c.messagesSent }

// EnergyPJ implements Fabric: every crossbar transfer crosses one link of
// the configured base class.
func (c *Crossbar) EnergyPJ() float64 {
	return float64(c.bytesSent*8) * c.cfg.BaseClass.PJPerBit()
}

// Utilization implements Fabric: mean output-link utilization.
func (c *Crossbar) Utilization(now sim.Time) float64 {
	if now == 0 || len(c.endpoints) == 0 {
		return 0
	}
	return float64(c.busyCycles) / float64(now) / float64(len(c.endpoints))
}

// QueuedMessages returns pending messages across endpoints (tests).
func (c *Crossbar) QueuedMessages() int {
	n := 0
	for _, ep := range c.endpoints {
		n += len(ep.queue)
	}
	return n
}
