package fabric

import (
	"math/rand"
	"testing"

	"mgpucompress/internal/sim"
)

// sluggish sends its plan as fast as its output buffer allows but drains
// its small input port only on its own ticks, every period cycles, so
// destination credit runs out, heads block, and refunds arrive in bursts.
type sluggish struct {
	sim.ComponentBase
	part     *sim.Partition
	port     *sim.Port
	plan     []*packet
	next     int
	period   sim.Time
	want     int
	received int
}

func (c *sluggish) Handle(e *sim.Event) error {
	now := e.Time()
	for m := c.port.Retrieve(now); m != nil; m = c.port.Retrieve(now) {
		c.received++
	}
	c.send(now)
	if c.next < len(c.plan) || c.received < c.want {
		c.part.ScheduleTick(now+c.period, c)
	}
	return nil
}

func (c *sluggish) send(now sim.Time) {
	for c.next < len(c.plan) && c.port.Send(now, c.plan[c.next]) {
		c.next++
	}
}

func (c *sluggish) NotifyRecv(sim.Time, *sim.Port)           {}
func (c *sluggish) NotifyPortFree(now sim.Time, _ *sim.Port) { c.send(now) }

// queuedChecker runs on the hub partition every cycle while traffic is
// outstanding and compares each injection group's queued count with the sum
// of its endpoints' ingress queue lengths. Every hub event is atomic, so
// between any two of them the two must agree.
type queuedChecker struct {
	t      *testing.T
	part   *sim.Partition
	name   string
	groups []*rrGroup
	sinks  []*sluggish
	peak   int
}

func (c *queuedChecker) Handle(e *sim.Event) error {
	for i, g := range c.groups {
		sum := 0
		for _, ep := range g.eps {
			sum += ep.queue.Len()
		}
		if g.queued != sum {
			c.t.Fatalf("%s: cycle %d: group %d counts %d queued, its queues hold %d", c.name, e.Time(), i, g.queued, sum)
		}
		c.peak = max(c.peak, sum)
	}
	for _, s := range c.sinks {
		if s.received < s.want {
			c.part.ScheduleTick(e.Time()+1, c)
			return nil
		}
	}
	return nil
}

// TestInjectionGroupCountsQueuedMessages drives random traffic into slow
// receivers on every fabric and requires each round-robin group's queued
// count to equal the sum of its endpoints' queue lengths after every cycle
// of admissions, picks and credit refunds, and to be zero at the end.
func TestInjectionGroupCountsQueuedMessages(t *testing.T) {
	const nodes, msgsPerNode = 8, 60
	for _, topo := range Topologies() {
		engine := sim.NewEngine(sim.WithPartitions(nodes + 1))
		hub := engine.Partition(nodes)
		cfg := DefaultConfig()
		cfg.Topology, cfg.Nodes = topo, nodes
		f := New("fabric", hub, cfg)
		rng := rand.New(rand.NewSource(int64(len(topo))))
		sinks := make([]*sluggish, nodes)
		for i := range sinks {
			part := engine.Partition(i)
			s := &sluggish{ComponentBase: sim.NewComponentBase(string(topo)), part: part,
				period: sim.Time(5 + rng.Intn(40))}
			s.port = sim.NewPort(s, s.Name()+".port", 256)
			f.Attach(s.port, part)
			sinks[i] = s
		}
		for i, s := range sinks {
			for k := 0; k < msgsPerNode; k++ {
				dst := rng.Intn(nodes - 1)
				if dst >= i {
					dst++
				}
				s.plan = append(s.plan, pkt(sinks[dst].port, 1+rng.Intn(256), k))
				sinks[dst].want++
			}
			s.part.ScheduleTick(sim.Time(rng.Intn(16)), s)
		}
		var groups []*rrGroup
		switch f := f.(type) {
		case *SwitchFabric:
			for i := range f.sws {
				groups = append(groups, &f.sws[i])
			}
		case *Bus:
			groups = append(groups, &f.all)
		case *Crossbar:
			groups = append(groups, &f.all)
		}
		check := &queuedChecker{t: t, part: hub, name: string(topo), groups: groups, sinks: sinks}
		hub.ScheduleTick(0, check)
		if err := engine.Run(); err != nil {
			t.Fatalf("%s: %v", topo, err)
		}
		for i, g := range groups {
			if g.queued != 0 {
				t.Errorf("%s: group %d ends with %d queued", topo, i, g.queued)
			}
		}
		for i, s := range sinks {
			if s.next != len(s.plan) || s.received != s.want {
				t.Errorf("%s: node %d sent %d of %d, received %d of %d", topo, i, s.next, len(s.plan), s.received, s.want)
			}
		}
		if check.peak < 2 {
			t.Errorf("%s: at most %d messages ever waited in one group; the traffic does not exercise the count", topo, check.peak)
		}
		if err := f.CheckQuiescent(); err != nil {
			t.Errorf("%s: %v", topo, err)
		}
	}
}
