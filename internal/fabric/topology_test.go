package fabric

import (
	"math/rand"
	"testing"

	"mgpucompress/internal/sim"
)

// buildSwitched constructs a switched fabric with one endpoint per GPU node,
// returning the fabric and the endpoint ports in node order.
func buildSwitched(t *testing.T, topo Topology, nodes int) (*sim.Engine, *SwitchFabric, []*talker) {
	t.Helper()
	engine := sim.NewEngine(sim.WithPartitions(nodes + 1))
	hub := engine.Partition(nodes)
	cfg := DefaultConfig()
	cfg.Topology = topo
	cfg.Nodes = nodes
	f := New("fabric", hub, cfg).(*SwitchFabric)
	ends := make([]*talker, nodes)
	for i := range ends {
		ends[i] = newTalker("t"+string(rune('A'+i)), engine.Partition(i))
		f.Attach(ends[i].port, engine.Partition(i))
	}
	return engine, f, ends
}

// switchedTopologies is the ISSUE 10 test matrix: every switched topology at
// 4, 8 and 16 GPUs.
var switchedTopologies = []struct {
	topo  Topology
	nodes []int
}{
	{TopologyRing, []int{4, 8, 16}},
	{TopologyMesh, []int{4, 8, 16}},
	{TopologyTree, []int{4, 8, 16}},
}

// analyticHops returns the hop count the topology's routing must produce
// between GPU nodes a and b: ring shortest arc, mesh Manhattan distance,
// tree twice the levels climbed to the lowest common ancestor.
func analyticHops(topo Topology, n, a, b int) int {
	switch topo {
	case TopologyRing:
		cw := (b - a + n) % n
		if cw < n-cw {
			return cw
		}
		return n - cw
	case TopologyMesh:
		w, _, _ := MeshDims(n)
		ax, ay := a%w, a/w
		bx, by := b%w, b/w
		dx, dy := ax-bx, ay-by
		if dx < 0 {
			dx = -dx
		}
		if dy < 0 {
			dy = -dy
		}
		return dx + dy
	case TopologyTree:
		sa, sb := a/4, b/4
		up := 0
		for sa != sb {
			sa, sb = sa/4, sb/4
			up++
		}
		return 2 * up
	}
	panic("unknown topology")
}

// worstHops is the analytic worst case: ring floor(n/2), mesh (w-1)+(h-1),
// tree 2*depth.
func worstHops(topo Topology, n int) int {
	switch topo {
	case TopologyRing:
		return n / 2
	case TopologyMesh:
		w, h, _ := MeshDims(n)
		return (w - 1) + (h - 1)
	case TopologyTree:
		depth := 0
		for c := (n + 3) / 4; c > 1; c = (c + 3) / 4 {
			depth++
		}
		return 2 * depth
	}
	panic("unknown topology")
}

// TestTopologyHops checks all-pairs reachability and the analytic hop-count
// formulas on the full topology matrix.
func TestTopologyHops(t *testing.T) {
	for _, tc := range switchedTopologies {
		for _, n := range tc.nodes {
			_, f, _ := buildSwitched(t, tc.topo, n)
			worst := 0
			for a := 0; a < n; a++ {
				for b := 0; b < n; b++ {
					got := f.Hops(a, b)
					if a == b {
						if got != 0 {
							t.Errorf("%s/%d: Hops(%d,%d) = %d, want 0", tc.topo, n, a, b, got)
						}
						continue
					}
					if want := analyticHops(tc.topo, n, a, b); got != want {
						t.Errorf("%s/%d: Hops(%d,%d) = %d, want %d", tc.topo, n, a, b, got, want)
					}
					if got > worst {
						worst = got
					}
				}
			}
			if want := worstHops(tc.topo, n); worst != want {
				t.Errorf("%s/%d: worst-case hops = %d, want %d", tc.topo, n, worst, want)
			}
		}
	}
}

// talker replays a preplanned send list (retrying on output-buffer
// backpressure) and counts everything it receives.
type talker struct {
	sim.ComponentBase
	part     *sim.Partition
	port     *sim.Port
	plan     []*packet
	next     int
	received int
	rxBytes  uint64
}

func newTalker(name string, part *sim.Partition) *talker {
	c := &talker{ComponentBase: sim.NewComponentBase(name), part: part}
	c.port = sim.NewPort(c, name+".port", 4*1024)
	return c
}

func (c *talker) Handle(e *sim.Event) error {
	c.drain(e.Time())
	return nil
}

func (c *talker) drain(now sim.Time) {
	for c.next < len(c.plan) {
		if !c.port.Send(now, c.plan[c.next]) {
			return // output buffer full; retry on NotifyPortFree
		}
		c.next++
	}
}

func (c *talker) NotifyRecv(now sim.Time, p *sim.Port) {
	for {
		m := p.Retrieve(now)
		if m == nil {
			return
		}
		c.received++
		c.rxBytes += uint64(m.Meta().Bytes)
	}
}

func (c *talker) NotifyPortFree(now sim.Time, _ *sim.Port) { c.drain(now) }

// TestTopologyRandomTrafficNoLoss floods every topology with seeded random
// traffic and checks that every injected message is delivered: per-receiver
// counts match the plan, the fabric's own counters agree, and nothing is
// left queued in the network when the event horizon drains.
func TestTopologyRandomTrafficNoLoss(t *testing.T) {
	const msgsPerNode = 40
	for _, tc := range switchedTopologies {
		for _, n := range tc.nodes {
			engine, f, ends := buildSwitched(t, tc.topo, n)
			rng := rand.New(rand.NewSource(int64(n)*1000 + int64(len(tc.topo))))
			wantRecv := make([]int, n)
			var wantBytes uint64
			total := 0
			for i, e := range ends {
				for k := 0; k < msgsPerNode; k++ {
					dst := rng.Intn(n - 1)
					if dst >= i {
						dst++ // never self
					}
					bytes := 1 + rng.Intn(200)
					e.plan = append(e.plan, pkt(ends[dst].port, bytes, k))
					wantRecv[dst]++
					wantBytes += uint64(bytes)
					total++
				}
				e.part.ScheduleTick(sim.Time(rng.Intn(32)), e)
			}
			if err := engine.Run(); err != nil {
				t.Fatalf("%s/%d: %v", tc.topo, n, err)
			}
			for i, e := range ends {
				if e.next != len(e.plan) {
					t.Errorf("%s/%d: node %d sent %d of %d planned messages", tc.topo, n, i, e.next, len(e.plan))
				}
				if e.received != wantRecv[i] {
					t.Errorf("%s/%d: node %d received %d messages, want %d", tc.topo, n, i, e.received, wantRecv[i])
				}
			}
			if got := f.TotalMessages(); got != uint64(total) {
				t.Errorf("%s/%d: fabric delivered %d messages, want %d", tc.topo, n, got, total)
			}
			if got := f.TotalBytes(); got != wantBytes {
				t.Errorf("%s/%d: fabric delivered %d bytes, want %d", tc.topo, n, got, wantBytes)
			}
			if q := f.QueuedMessages(); q != 0 {
				t.Errorf("%s/%d: %d messages still queued in the fabric", tc.topo, n, q)
			}
			if f.EnergyPJ() <= 0 {
				t.Errorf("%s/%d: no transfer energy accumulated", tc.topo, n)
			}
		}
	}
}
