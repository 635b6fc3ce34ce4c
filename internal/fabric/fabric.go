// Package fabric models the PCIe-like inter-GPU communication fabric of
// Sec. VI-B: a shared bus moving 20 bytes per cycle at 1 GHz (160 Gb/s,
// Table VII) on which only one message transmits at a time, each message
// occupying an integral number of cycles. Endpoints (the CPU and the four
// GPUs) arbitrate round-robin and own 4 KB output and input buffers so a
// stalled endpoint does not block the bus.
//
// The fabric is the seam between simulation partitions: arbitration runs as
// a component of the hub partition, every attached endpoint keeps a small
// link shim in its own partition, and the LinkLatency separating the two is
// the explicit minimum latency that floors the engine's adaptive window
// scheduler. While a transfer occupies the bus, the arbiter also
// publishes next-send bounds on its hub-to-owner links (see arbitrate),
// letting the engine widen windows past the busy stretch.
package fabric

import (
	"fmt"

	"mgpucompress/internal/energy"
	"mgpucompress/internal/fault"
	"mgpucompress/internal/sim"
	"mgpucompress/internal/trace"
)

// Config parameterizes the fabric.
type Config struct {
	// BytesPerCycle is the link width (paper: 20 B/cycle at 1 GHz).
	BytesPerCycle int
	// OutBufferBytes bounds each endpoint's output queue (paper: 4 KB).
	// Zero means unbounded.
	OutBufferBytes int
	// LinkLatency is the one-way wire latency, in cycles, between an
	// endpoint and the fabric arbiter (and, for switched topologies,
	// between adjacent switches). It is declared at construction and is the
	// latency floor under the engine's adaptive windows, so it
	// must be at least 1 (Validate rejects smaller values).
	LinkLatency sim.Time
	// Topology selects the implementation: TopologyBus (paper, default),
	// TopologyCrossbar, or one of the switched topologies TopologyRing,
	// TopologyMesh, TopologyTree.
	Topology Topology
	// Nodes is the number of GPU endpoints the switched topologies size
	// their switch graph for: one switch per GPU for ring and mesh, radix-4
	// leaf grouping for the tree. Endpoints owned by partitions with index
	// >= Nodes (the host) attach to a dedicated host switch. Ignored by bus
	// and crossbar; platform.Build sets it to NumGPUs.
	Nodes int
	// BaseClass is the energy class of the endpoint egress links (the
	// switch-to-GPU wires), and the class of every transfer on the
	// single-hop bus and crossbar fabrics (DefaultConfig: the paper's MCM
	// class); switched topologies price their long inter-switch hops at
	// Board/Node tiers on top of this (see SwitchFabric).
	BaseClass energy.LinkClass
	// Trace, when non-nil, records every completed transfer for offline
	// timeline analysis.
	Trace *trace.Log
	// Fault, when non-nil, is consulted at every delivery and may drop,
	// delay, or corrupt injectable messages. Transfer accounting (bytes,
	// messages, busy cycles, trace records) always reflects the transmission
	// as sent: a dropped message still burned its bus cycles.
	Fault *fault.Injector
}

// DefaultConfig returns the Table VII fabric (shared bus).
func DefaultConfig() Config {
	return Config{BytesPerCycle: 20, OutBufferBytes: 4 * 1024, LinkLatency: 2,
		Topology: TopologyBus, BaseClass: energy.MCM}
}

// Validate reports the first configuration error. It replaces the silent
// normalization the constructors used to apply (LinkLatency below the
// engine's one-cycle latency floor, unknown topologies falling back
// to the bus at higher layers): platform.Config.Validate calls it, so a
// partially-set Config is rejected loudly instead of being quietly
// replaced, and every fabric constructor panics on its error.
func (c Config) Validate() error {
	switch c.Topology {
	case "", TopologyBus, TopologyCrossbar:
	case TopologyRing, TopologyTree:
		if c.Nodes < 2 {
			return fmt.Errorf("fabric: topology %q needs Nodes >= 2, got %d", c.Topology, c.Nodes)
		}
	case TopologyMesh:
		if _, _, err := MeshDims(c.Nodes); err != nil {
			return err
		}
	default:
		return fmt.Errorf("fabric: unknown topology %q", c.Topology)
	}
	if c.BytesPerCycle <= 0 {
		return fmt.Errorf("fabric: BytesPerCycle must be positive, got %d", c.BytesPerCycle)
	}
	if c.OutBufferBytes < 0 {
		return fmt.Errorf("fabric: negative OutBufferBytes %d", c.OutBufferBytes)
	}
	if c.LinkLatency < 1 {
		return fmt.Errorf("fabric: LinkLatency %d is below the engine's one-cycle latency floor", c.LinkLatency)
	}
	if c.BaseClass < energy.OnChip || c.BaseClass > energy.Node {
		return fmt.Errorf("fabric: invalid link energy class %d", c.BaseClass)
	}
	return nil
}

// MeshDims returns the 2D grid dimensions (width >= height) the mesh
// topology uses for a power-of-two GPU count: 4 -> 2x2, 8 -> 4x2, 16 -> 4x4,
// 64 -> 8x8. Non-power-of-two counts have no rectangular power-of-two
// factorization and are rejected.
func MeshDims(nodes int) (w, h int, err error) {
	if nodes < 2 || nodes&(nodes-1) != 0 {
		return 0, 0, fmt.Errorf("fabric: mesh needs a power-of-two GPU count >= 2, got %d", nodes)
	}
	w = 1
	for w*w < nodes {
		w <<= 1
	}
	return w, nodes / w, nil
}

// Bus is the shared fabric arbiter; it lives in the hub partition and talks
// to its endpoints through per-attachment links. Its one wire carries one
// transmission at a time.
type Bus struct {
	hub
	busy bool
}

// NewBus creates the fabric on the hub partition part. The configuration
// must pass Validate; violations are wiring bugs and panic.
func NewBus(name string, part *sim.Partition, cfg Config) *Bus {
	b := &Bus{hub: newHub(name, part, cfg)}
	b.arb = b
	return b
}

// busDone completes the bus's transmission of the record's message, which
// started at cycle Arg.
type busDone struct{ b *Bus }

func (r busDone) Handle(e *sim.Event) error {
	b, now := r.b, e.Time()
	b.busy = false
	b.deliver(now, sim.Time(e.Arg()), e.Msg())
	b.arbitrate(now)
	return nil
}

func (b *Bus) admit(now sim.Time, _ *endpoint) { b.arbitrate(now) }
func (b *Bus) refunded(now sim.Time)           { b.arbitrate(now) }

// linkCount implements arbiter: the bus is a single shared link.
func (b *Bus) linkCount() int { return 1 }

// inNetwork implements arbiter: the transmission on the wire, if any.
func (b *Bus) inNetwork() int {
	if b.busy {
		return 1
	}
	return 0
}

// arbitrate starts the next transmission if the bus is idle.
func (b *Bus) arbitrate(now sim.Time) {
	if b.busy {
		return
	}
	ep, msg := b.pick(now, &b.all)
	if ep == nil {
		return
	}
	b.busy = true
	bytes := msg.Meta().Bytes
	done := now + b.transmit(bytes)
	b.part.Schedule(done, busDone{b}, msg, int(now))
	// Output space freed: credit the sender's link.
	b.outCredit(now, ep, bytes)
	// The wire is committed through done: arbitrate is a no-op while a
	// transfer is in flight, so after this claim's own credit (just emitted,
	// entry now+latency) nothing leaves the hub before the transfer
	// completes. Publish that horizon as the next-send bound of every egress
	// link — the engine widens its window past the hub's head events up to
	// it. The completing transfer's delivery and the next claim's credit both
	// land at exactly done+latency, so the bound is tight. Suppressed while a
	// fault-delayed delivery is outstanding, since it may land inside the
	// horizon.
	if b.pendingFaults == 0 {
		horizon := done + b.cfg.LinkLatency
		for _, other := range b.all.eps {
			other.toOwner.SetNextSend(horizon)
		}
	}
}
