package fabric

import (
	"fmt"

	"mgpucompress/internal/energy"
	"mgpucompress/internal/metrics"
	"mgpucompress/internal/sim"
	"mgpucompress/internal/trace"
)

// SwitchFabric is the multi-hop interconnect family: a graph of per-hop
// switches (ring, 2D mesh, or radix-4 tree) living entirely on the hub
// partition, so switch-to-switch hops are ordinary hub-local events and only
// the endpoint<->switch edges cross partitions. Each GPU endpoint attaches to
// the switch of its owner partition's node; host endpoints (owner partition
// index >= Config.Nodes) attach to a dedicated host switch hanging off the
// anchor (switch 0 for ring and mesh, the root for the tree).
//
// Model:
//   - Injection: round-robin arbitration over the endpoints of each switch,
//     like the bus. A message claims its *destination's* input credit
//     end-to-end at injection, so intermediate hops never block on credits
//     and the in-network queues cannot deadlock. Output-buffer credit is
//     returned to the source at injection time over the endpoint's dedicated
//     credit link.
//   - Hops: every inter-switch link transmits one message at a time at
//     BytesPerCycle, FIFO per link; disjoint links proceed concurrently.
//     Routing is table-driven: shortest direction for the ring (ties go
//     clockwise), dimension-ordered X-then-Y for the mesh, up-to-the-common-
//     ancestor-then-down for the tree.
//   - Egress: the switch-to-owner wire of the destination endpoint is a
//     serializing link too. While a transmission occupies it, the fabric
//     publishes a next-send promise (done + LinkLatency) on that endpoint's
//     delivery link — the PR 9 promise plumbing extended to switch egress —
//     letting the engine widen windows past the busy stretch.
//     Promises are suppressed while fault-delayed deliveries are
//     outstanding, exactly like the bus.
//   - Energy: each hop charges bits moved times the pJ/bit of the link's
//     class — egress wires at Config.BaseClass, ring/mesh/host links at the
//     Board tier, tree links at Board (leaf level) or Node (upper levels) —
//     so long hops on big machines are priced accordingly.
type SwitchFabric struct {
	hub
	topo     Topology
	gpuNodes int
	anchor   int // switch the host switch hangs off
	hostSw   int
	sws      []*swNode
	links    []*swLink
	next     [][]int // next[s][d] = next switch on the route from s to d
	swOf     []int   // GPU node -> switch
	parent   []int   // tree only: switch -> parent switch (-1 at the root)

	messagesSent uint64
	bytesSent    uint64
	busyCycles   uint64 // summed over inter-switch and egress links
	hopCount     uint64 // inter-switch transmissions
	bytesByClass [energy.Node + 1]uint64
}

// swNode is one switch: its attached endpoints (injection arbitration state)
// and its outgoing links keyed by neighbor switch.
type swNode struct {
	id     int
	out    map[int]*swLink
	eps    []*endpoint
	nextRR int
}

// swLink is one directed inter-switch link: FIFO queue, single transmission
// at a time.
type swLink struct {
	from, to  int
	class     energy.LinkClass
	busyUntil sim.Time
	queue     []sim.Msg
}

// NewSwitchFabric creates the switched interconnect on the hub partition.
// The configuration must pass Validate (in particular Nodes must be set);
// violations are wiring bugs and panic.
func NewSwitchFabric(name string, part *sim.Partition, cfg Config) *SwitchFabric {
	if !cfg.Topology.Switched() {
		panic(fmt.Sprintf("fabric: NewSwitchFabric called with topology %q", cfg.Topology))
	}
	s := &SwitchFabric{
		hub:      newHub(name, part, cfg),
		topo:     cfg.Topology,
		gpuNodes: cfg.Nodes,
	}
	s.arb = s
	s.build()
	return s
}

// build constructs the switch graph, the node-to-switch map and the routing
// tables.
func (s *SwitchFabric) build() {
	n := s.gpuNodes
	s.swOf = make([]int, n)
	var count int // switches before the host switch
	switch s.topo {
	case TopologyRing, TopologyMesh:
		count = n
		for i := range s.swOf {
			s.swOf[i] = i
		}
		s.anchor = 0
	case TopologyTree:
		// Radix-4 grouping: leaves host 4 GPUs each, parents 4 children,
		// up to a single root (which is the anchor).
		for g := range s.swOf {
			s.swOf[g] = g / 4
		}
		levels := []int{(n + 3) / 4}
		for levels[len(levels)-1] > 1 {
			levels = append(levels, (levels[len(levels)-1]+3)/4)
		}
		for _, c := range levels {
			count += c
		}
		s.anchor = count - 1 // the root is numbered last
		s.parent = make([]int, count)
		start := 0
		for l := 0; l < len(levels); l++ {
			next := start + levels[l]
			for j := 0; j < levels[l]; j++ {
				if l == len(levels)-1 {
					s.parent[start+j] = -1
				} else {
					s.parent[start+j] = next + j/4
				}
			}
			start = next
		}
	}
	s.hostSw = count
	total := count + 1
	s.sws = make([]*swNode, total)
	for i := range s.sws {
		s.sws[i] = &swNode{id: i, out: make(map[int]*swLink)}
	}

	switch s.topo {
	case TopologyRing:
		if n == 2 {
			s.connect(0, 1, energy.Board)
		} else {
			for i := 0; i < n; i++ {
				s.connect(i, (i+1)%n, energy.Board)
			}
		}
	case TopologyMesh:
		w, h, _ := MeshDims(n)
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				if x+1 < w {
					s.connect(y*w+x, y*w+x+1, energy.Board)
				}
				if y+1 < h {
					s.connect(y*w+x, (y+1)*w+x, energy.Board)
				}
			}
		}
	case TopologyTree:
		leafCount := (n + 3) / 4
		for c, p := range s.parent {
			if p < 0 {
				continue
			}
			// Leaf uplinks stay on the board; links between upper switch
			// levels cross the node tier.
			class := energy.Board
			if c >= leafCount {
				class = energy.Node
			}
			s.connect(c, p, class)
		}
	}
	// The host switch hangs off the anchor over a board-class link.
	s.connect(s.hostSw, s.anchor, energy.Board)

	s.next = make([][]int, total)
	for a := 0; a < total; a++ {
		s.next[a] = make([]int, total)
		for d := 0; d < total; d++ {
			s.next[a][d] = s.hop(a, d)
		}
	}
}

// connect wires a bidirectional pair of links between switches a and b.
func (s *SwitchFabric) connect(a, b int, class energy.LinkClass) {
	ab := &swLink{from: a, to: b, class: class}
	ba := &swLink{from: b, to: a, class: class}
	s.sws[a].out[b] = ab
	s.sws[b].out[a] = ba
	s.links = append(s.links, ab, ba)
}

// hop computes the next switch on the route from a to d (-1 when a == d).
func (s *SwitchFabric) hop(a, d int) int {
	if a == d {
		return -1
	}
	if a == s.hostSw {
		return s.anchor
	}
	if d == s.hostSw {
		if a == s.anchor {
			return s.hostSw
		}
		d = s.anchor
	}
	switch s.topo {
	case TopologyRing:
		n := s.gpuNodes
		cw := (d - a + n) % n
		if cw <= n-cw {
			return (a + 1) % n // ties go clockwise
		}
		return (a - 1 + n) % n
	case TopologyMesh:
		w, _, _ := MeshDims(s.gpuNodes)
		ax, ay := a%w, a/w
		dx, dy := d%w, d/w
		switch { // dimension-ordered: resolve X before Y
		case ax < dx:
			return a + 1
		case ax > dx:
			return a - 1
		case ay < dy:
			return a + w
		default:
			return a - w
		}
	case TopologyTree:
		// If a is an ancestor of d, step down toward d; otherwise step up.
		prev := d
		for p := s.parent[d]; p >= 0; prev, p = p, s.parent[p] {
			if p == a {
				return prev
			}
		}
		return s.parent[a]
	}
	panic("unreachable")
}

// Attach implements Fabric. On top of the shared hub attachment it creates
// the endpoint's dedicated credit link and binds the endpoint to its switch.
func (s *SwitchFabric) Attach(p *sim.Port, owner *sim.Partition) {
	s.hub.Attach(p, owner)
	ep := s.byPort[p]
	ep.creditOut = s.part.Engine().Link(s.part, owner, s.cfg.LinkLatency)
	node := owner.Index()
	if owner == s.part || node >= s.gpuNodes {
		ep.sw = s.hostSw
	} else {
		ep.sw = s.swOf[node]
	}
	s.sws[ep.sw].eps = append(s.sws[ep.sw].eps, ep)
}

// Handle implements sim.Handler for the hub-side events.
func (s *SwitchFabric) Handle(e sim.Event) error {
	switch evt := e.(type) {
	case *sim.TickEvent:
		s.injectAll(e.Time())
		return nil
	case linkIngressEvent:
		evt.ep.queue = append(evt.ep.queue, evt.msg)
		s.inject(e.Time(), s.sws[evt.ep.sw])
		return nil
	case inCreditEvent:
		evt.ep.refund(evt.bytes)
		// A refund can unblock a head-of-line message at any switch.
		s.injectAll(e.Time())
		return nil
	case hopDoneEvent:
		s.pumpLink(e.Time(), evt.link)
		s.forward(e.Time(), evt.link.to, evt.msg)
		return nil
	case egressDoneEvent:
		s.egressDone(e.Time(), evt)
		return nil
	case faultDeliverEvent:
		s.pendingFaults--
		s.handOff(e.Time(), evt.msg)
		return nil
	default:
		return fmt.Errorf("fabric %s: unexpected event %T", s.Name(), e)
	}
}

// injectAll runs injection arbitration on every switch, in switch order.
func (s *SwitchFabric) injectAll(now sim.Time) {
	for _, sw := range s.sws {
		s.inject(now, sw)
	}
}

// inject admits queued messages into the network: round-robin over the
// switch's endpoints, end-to-end destination credit reserved up front,
// output credit returned to the source immediately. Injection itself is
// instantaneous — contention is modelled at the link level.
func (s *SwitchFabric) inject(now sim.Time, sw *swNode) {
	n := len(sw.eps)
	if n == 0 {
		return
	}
	for progress := true; progress; {
		progress = false
		for i := 0; i < n; i++ {
			ep := sw.eps[(sw.nextRR+i)%n]
			if len(ep.queue) == 0 {
				continue
			}
			msg := ep.queue[0]
			bytes := msg.Meta().Bytes
			if !s.byPort[msg.Meta().Dst].reserve(bytes) {
				continue // head-of-line blocked; try another endpoint
			}
			ep.queue = ep.queue[1:]
			sw.nextRR = (sw.nextRR + i + 1) % n
			s.outCredit(now, ep, bytes)
			s.forward(now, sw.id, msg)
			progress = true
			break
		}
	}
}

// forward moves a message one step: onto the next inter-switch link toward
// its destination switch, or onto the destination endpoint's egress wire.
func (s *SwitchFabric) forward(now sim.Time, at int, msg sim.Msg) {
	dst := s.byPort[msg.Meta().Dst]
	if dst.sw == at {
		dst.egrQueue = append(dst.egrQueue, msg)
		s.pumpEgress(now, dst)
		return
	}
	l := s.sws[at].out[s.next[at][dst.sw]]
	l.queue = append(l.queue, msg)
	s.pumpLink(now, l)
}

// pumpLink starts the next transmission on an idle inter-switch link. The
// message arrives at the far switch when the transmission completes (store
// and forward; the hop occupies the link for the full serialization time).
func (s *SwitchFabric) pumpLink(now sim.Time, l *swLink) {
	if l.busyUntil > now || len(l.queue) == 0 {
		return
	}
	msg := l.queue[0]
	l.queue = l.queue[1:]
	cycles := s.cycles(msg.Meta().Bytes)
	l.busyUntil = now + cycles
	s.busyCycles += uint64(cycles)
	s.hopCount++
	s.bytesByClass[l.class] += uint64(msg.Meta().Bytes)
	s.part.Schedule(hopDoneEvent{
		EventBase: sim.NewEventBase(l.busyUntil, s),
		link:      l,
		msg:       msg,
	})
}

// pumpEgress starts the next transmission on an idle egress wire and, while
// it is committed, publishes the next-send horizon on the endpoint's
// delivery link: the in-flight delivery lands at exactly done+LinkLatency
// (finish hands off at done), so the bound is tight. Suppressed while a
// fault-delayed delivery is outstanding, since it may land inside the
// horizon of a later transmission.
func (s *SwitchFabric) pumpEgress(now sim.Time, ep *endpoint) {
	if ep.egrInFlight || len(ep.egrQueue) == 0 {
		return
	}
	msg := ep.egrQueue[0]
	ep.egrQueue = ep.egrQueue[1:]
	cycles := s.cycles(msg.Meta().Bytes)
	done := now + cycles
	ep.egrInFlight = true
	s.busyCycles += uint64(cycles)
	s.bytesByClass[s.cfg.BaseClass] += uint64(msg.Meta().Bytes)
	if s.pendingFaults == 0 {
		ep.toOwner.SetNextSend(done + s.cfg.LinkLatency)
	}
	s.part.Schedule(egressDoneEvent{
		EventBase: sim.NewEventBase(done, s),
		ep:        ep,
		msg:       msg,
		start:     now,
	})
}

// egressDone completes one delivery: accounting, trace, fault routing and
// the hand-off to the destination partition.
func (s *SwitchFabric) egressDone(now sim.Time, evt egressDoneEvent) {
	msg := evt.msg
	s.messagesSent++
	s.bytesSent += uint64(msg.Meta().Bytes)
	if s.cfg.Trace != nil {
		s.cfg.Trace.Record(trace.Transfer{
			Start: evt.start,
			End:   now,
			Src:   msg.Meta().Src.Name(),
			Dst:   msg.Meta().Dst.Name(),
			Bytes: msg.Meta().Bytes,
			Kind:  fmt.Sprintf("%T", msg),
		})
	}
	s.finish(now, msg)
	evt.ep.egrInFlight = false
	s.pumpEgress(now, evt.ep)
}

// hopDoneEvent releases an inter-switch link and forwards its message.
type hopDoneEvent struct {
	sim.EventBase
	link *swLink
	msg  sim.Msg
}

// egressDoneEvent completes a transmission on an endpoint's egress wire.
type egressDoneEvent struct {
	sim.EventBase
	ep    *endpoint
	msg   sim.Msg
	start sim.Time
}

// Hops returns the number of inter-switch hops between GPU nodes a and b
// (endpoint ingress/egress wires excluded) under the fabric's routing.
func (s *SwitchFabric) Hops(a, b int) int {
	from, to := s.swOf[a], s.swOf[b]
	h := 0
	for from != to {
		from = s.next[from][to]
		h++
	}
	return h
}

// Switches returns the switch count, host switch included.
func (s *SwitchFabric) Switches() int { return len(s.sws) }

// QueuedMessages returns messages buffered anywhere in the fabric (tests).
func (s *SwitchFabric) QueuedMessages() int {
	n := 0
	for _, ep := range s.endpoints {
		n += len(ep.queue) + len(ep.egrQueue)
	}
	for _, l := range s.links {
		n += len(l.queue)
	}
	return n
}

// TotalBytes implements Fabric: bytes delivered, each message counted once
// regardless of hop count, so totals are comparable across topologies.
func (s *SwitchFabric) TotalBytes() uint64 { return s.bytesSent }

// TotalMessages implements Fabric.
func (s *SwitchFabric) TotalMessages() uint64 { return s.messagesSent }

// EnergyPJ implements Fabric: per-hop bytes priced by the class of the link
// they crossed, in fixed class order (deterministic float sum).
func (s *SwitchFabric) EnergyPJ() float64 {
	e := 0.0
	for c, b := range s.bytesByClass {
		e += float64(b*8) * energy.LinkClass(c).PJPerBit()
	}
	return e
}

// Utilization implements Fabric: mean utilization across every serializing
// link (inter-switch links plus the endpoint egress wires).
func (s *SwitchFabric) Utilization(now sim.Time) float64 {
	total := len(s.links) + len(s.endpoints)
	if now == 0 || total == 0 {
		return 0
	}
	return float64(s.busyCycles) / float64(now) / float64(total)
}

// RegisterMetrics implements Fabric: the shared counters plus the
// switched-only hops and switches paths (new topologies register new paths;
// bus and crossbar snapshots stay byte-identical).
func (s *SwitchFabric) RegisterMetrics(reg *metrics.Registry, prefix string) {
	reg.CounterFunc(prefix+"/bytes", func() uint64 { return s.bytesSent })
	reg.CounterFunc(prefix+"/messages", func() uint64 { return s.messagesSent })
	reg.CounterFunc(prefix+"/busy_cycles", func() uint64 { return s.busyCycles })
	reg.GaugeFunc(prefix+"/links", func() float64 { return float64(len(s.links) + len(s.endpoints)) })
	reg.CounterFunc(prefix+"/hops", func() uint64 { return s.hopCount })
	reg.GaugeFunc(prefix+"/switches", func() float64 { return float64(len(s.sws)) })
}
