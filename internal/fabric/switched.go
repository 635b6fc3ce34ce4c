package fabric

import (
	"fmt"

	"mgpucompress/internal/energy"
	"mgpucompress/internal/metrics"
	"mgpucompress/internal/sim"
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
//     returned to the source at injection time over the endpoint's
//     hub-to-owner link.
//   - Hops: every inter-switch link transmits one message at a time at
//     BytesPerCycle, FIFO per link; disjoint links proceed concurrently.
//     Routing is table-driven: shortest direction for the ring (ties go
//     clockwise), dimension-ordered X-then-Y for the mesh, up-to-the-common-
//     ancestor-then-down for the tree.
//   - Egress: the switch-to-owner wire of the destination endpoint is a
//     serializing link too. It promises no next-send bound: output credits
//     leave on the same hub-to-owner link at any time.
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
	sws      []rrGroup // switch -> the injection group of its endpoints
	links    []*swLink
	route    [][]*swLink // route[s][d] = link out of s toward d (nil when s == d)
	swOf     []int       // GPU node -> switch
	parent   []int       // tree only: switch -> parent switch (-1 at the root)

	hopCount     uint64 // inter-switch transmissions
	bytesByClass [energy.Node + 1]uint64
}

// swLink is one directed inter-switch link: FIFO queue, single transmission
// at a time. idx is its position in SwitchFabric.links.
type swLink struct {
	idx       int
	from, to  int
	class     energy.LinkClass
	busyUntil sim.Time
	queue     sim.FIFO[sim.Msg]
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
	s.sws = make([]rrGroup, total)

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

	s.route = make([][]*swLink, total)
	for a := range s.route {
		s.route[a] = make([]*swLink, total)
	}
	for _, l := range s.links {
		for d := 0; d < total; d++ {
			if s.hop(l.from, d) == l.to {
				s.route[l.from][d] = l
			}
		}
	}
}

// connect wires a bidirectional pair of links between switches a and b.
func (s *SwitchFabric) connect(a, b int, class energy.LinkClass) {
	ab := &swLink{idx: len(s.links), from: a, to: b, class: class}
	ba := &swLink{idx: len(s.links) + 1, from: b, to: a, class: class}
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

// Attach implements Fabric. On top of the shared hub attachment it binds
// the endpoint to its switch, whose injection group it arbitrates in.
func (s *SwitchFabric) Attach(p *sim.Port, owner *sim.Partition) {
	s.hub.Attach(p, owner)
	ep := s.endpointOf(p)
	node := owner.Index()
	if owner == s.part || node >= s.gpuNodes {
		ep.sw = s.hostSw
	} else {
		ep.sw = s.swOf[node]
	}
	s.sws[ep.sw].join(ep)
}

func (s *SwitchFabric) admit(now sim.Time, ep *endpoint) { s.inject(now, ep.sw) }

// refunded re-runs injection on every switch with queued messages, in
// switch order: a refund can unblock a head-of-line message at any switch.
// Poison builds visit the idle switches too, so pick checks their queues.
func (s *SwitchFabric) refunded(now sim.Time) {
	for sw := range s.sws {
		if s.sws[sw].queued != 0 || sim.Poison {
			s.inject(now, sw)
		}
	}
}

// linkCount implements arbiter: the inter-switch links plus the endpoint
// egress wires.
func (s *SwitchFabric) linkCount() int { return len(s.links) + len(s.all.eps) }

// inNetwork implements arbiter: messages queued on inter-switch links.
func (s *SwitchFabric) inNetwork() int {
	n := 0
	for _, l := range s.links {
		n += l.queue.Len()
	}
	return n
}

// inject admits queued messages into the network: round-robin over the
// switch's endpoints, end-to-end destination credit reserved up front,
// output credit returned to the source immediately. Injection itself is
// instantaneous — contention is modelled at the link level.
func (s *SwitchFabric) inject(now sim.Time, sw int) {
	for {
		ep, msg := s.pick(now, &s.sws[sw])
		if ep == nil {
			return
		}
		s.outCredit(now, ep, msg.Meta().Bytes)
		s.forward(now, sw, msg)
	}
}

// forward moves a message one step: onto the next inter-switch link toward
// its destination switch, or onto the destination endpoint's egress wire.
func (s *SwitchFabric) forward(now sim.Time, at int, msg sim.Msg) {
	dst := s.endpointOf(msg.Meta().Dst)
	if dst.sw == at {
		dst.egrQueue.Push(msg)
		s.pumpEgress(now, dst)
		return
	}
	l := s.route[at][dst.sw]
	l.queue.Push(msg)
	s.pumpLink(now, l)
}

// pumpLink starts the next transmission on an idle inter-switch link. The
// message arrives at the far switch when the transmission completes (store
// and forward; the hop occupies the link for the full serialization time).
func (s *SwitchFabric) pumpLink(now sim.Time, l *swLink) {
	if l.busyUntil > now || l.queue.Len() == 0 {
		return
	}
	msg := l.queue.Pop()
	l.busyUntil = now + s.transmit(msg.Meta().Bytes)
	s.hopCount++
	s.bytesByClass[l.class] += uint64(msg.Meta().Bytes)
	s.part.Schedule(l.busyUntil, hopDone{s}, msg, l.idx)
}

// pumpEgress starts the next transmission on an idle egress wire.
func (s *SwitchFabric) pumpEgress(now sim.Time, ep *endpoint) {
	if ep.egrInFlight || ep.egrQueue.Len() == 0 {
		return
	}
	msg := ep.egrQueue.Pop()
	done := now + s.transmit(msg.Meta().Bytes)
	ep.egrInFlight = true
	s.bytesByClass[s.cfg.BaseClass] += uint64(msg.Meta().Bytes)
	s.part.Schedule(done, egressDone{s}, msg, int(now))
}

// hopDone releases the inter-switch link s.links[Arg] and forwards the
// record's message to the link's far switch.
type hopDone struct{ s *SwitchFabric }

func (r hopDone) Handle(e *sim.Event) error {
	l := r.s.links[e.Arg()]
	r.s.pumpLink(e.Time(), l)
	r.s.forward(e.Time(), l.to, e.Msg())
	return nil
}

// egressDone completes one delivery on the destination endpoint's egress
// wire, whose transmission started at cycle Arg, and starts the wire's next
// transmission.
type egressDone struct{ s *SwitchFabric }

func (r egressDone) Handle(e *sim.Event) error {
	s, msg, now := r.s, e.Msg(), e.Time()
	ep := s.endpointOf(msg.Meta().Dst)
	s.deliver(now, sim.Time(e.Arg()), msg)
	ep.egrInFlight = false
	s.pumpEgress(now, ep)
	return nil
}

// Hops returns the number of inter-switch hops between GPU nodes a and b
// (endpoint ingress/egress wires excluded) under the fabric's routing.
func (s *SwitchFabric) Hops(a, b int) int {
	from, to := s.swOf[a], s.swOf[b]
	h := 0
	for from != to {
		from = s.route[from][to].to
		h++
	}
	return h
}

// EnergyPJ implements Fabric: per-hop bytes priced by the class of the link
// they crossed, in fixed class order (deterministic float sum).
func (s *SwitchFabric) EnergyPJ() float64 {
	e := 0.0
	for c, b := range s.bytesByClass {
		e += float64(b*8) * energy.LinkClass(c).PJPerBit()
	}
	return e
}

// RegisterMetrics implements Fabric: the shared counters plus the
// switched-only hops and switches paths (new topologies register new paths;
// bus and crossbar snapshots stay byte-identical).
func (s *SwitchFabric) RegisterMetrics(reg *metrics.Registry, prefix string) {
	s.hub.RegisterMetrics(reg, prefix)
	reg.CounterFunc(prefix+"/hops", func() uint64 { return s.hopCount })
	reg.GaugeFunc(prefix+"/switches", func() float64 { return float64(len(s.sws)) })
}
