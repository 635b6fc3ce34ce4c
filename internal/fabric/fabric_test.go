package fabric

import (
	"fmt"
	"strings"
	"testing"

	"mgpucompress/internal/sim"
)

type node struct {
	sim.ComponentBase
	port     *sim.Port
	received []sim.Msg
	times    []sim.Time
	freed    int
	// drain=false leaves messages in the input buffer to test back-pressure
	drain bool
}

func newNode(name string, bufBytes int, drain bool) *node {
	n := &node{ComponentBase: sim.NewComponentBase(name), drain: drain}
	n.port = sim.NewPort(n, name+".port", bufBytes)
	return n
}

func (n *node) Handle(*sim.Event) error { return nil }

func (n *node) NotifyRecv(now sim.Time, p *sim.Port) {
	if !n.drain {
		return
	}
	for {
		m := p.Retrieve(now)
		if m == nil {
			return
		}
		n.received = append(n.received, m)
		n.times = append(n.times, now)
	}
}

func (n *node) NotifyPortFree(sim.Time, *sim.Port) { n.freed++ }

func (n *node) drainAll(now sim.Time) {
	for {
		m := n.port.Retrieve(now)
		if m == nil {
			return
		}
		n.received = append(n.received, m)
		n.times = append(n.times, now)
	}
}

type packet struct {
	sim.MsgMeta
	tag int
}

func (p *packet) Meta() *sim.MsgMeta { return &p.MsgMeta }

func pkt(dst *sim.Port, bytes, tag int) *packet {
	p := &packet{tag: tag}
	p.Dst, p.Bytes = dst, bytes
	return p
}

func setup(t *testing.T, nNodes int, cfg Config, drain bool) (*sim.Engine, *Bus, []*node) {
	t.Helper()
	engine := sim.NewEngine()
	hub := engine.Partition(0)
	bus := NewBus("bus", hub, cfg)
	nodes := make([]*node, nNodes)
	for i := range nodes {
		nodes[i] = newNode("n"+string(rune('0'+i)), 4*1024, drain)
		bus.Attach(nodes[i].port, hub)
	}
	return engine, bus, nodes
}

func TestBusTransfersTakeIntegralCycles(t *testing.T) {
	cfg := DefaultConfig()
	engine, bus, nodes := setup(t, 2, cfg, true)
	L := cfg.LinkLatency
	// Paper's example: a 62-byte message on a 20 B/cycle bus takes 4
	// cycles; the next message starts at cycle 5. Each message additionally
	// crosses the ingress and egress wire, one LinkLatency each way.
	m1 := pkt(nodes[1].port, 62, 1)
	m2 := pkt(nodes[1].port, 20, 2)
	nodes[0].port.Send(0, m1)
	nodes[0].port.Send(0, m2)
	if err := engine.Run(); err != nil {
		t.Fatal(err)
	}
	if len(nodes[1].received) != 2 {
		t.Fatalf("delivered %d messages", len(nodes[1].received))
	}
	if nodes[1].times[0] != 2*L+4 {
		t.Errorf("first message delivered at %d, want %d", nodes[1].times[0], 2*L+4)
	}
	if nodes[1].times[1] != 2*L+5 {
		t.Errorf("second message delivered at %d, want %d (starts one bus cycle later)", nodes[1].times[1], 2*L+5)
	}
	if bus.TotalMessages() != 2 || bus.TotalBytes() != 82 {
		t.Errorf("stats = %d msgs / %d bytes", bus.TotalMessages(), bus.TotalBytes())
	}
}

func TestBusSerializesConcurrentSenders(t *testing.T) {
	engine, _, nodes := setup(t, 3, DefaultConfig(), true)
	// Two senders each send a 20-byte (1-cycle) message at t=0; they
	// cannot share a cycle.
	nodes[0].port.Send(0, pkt(nodes[2].port, 20, 1))
	nodes[1].port.Send(0, pkt(nodes[2].port, 20, 2))
	if err := engine.Run(); err != nil {
		t.Fatal(err)
	}
	if len(nodes[2].received) != 2 {
		t.Fatalf("delivered %d", len(nodes[2].received))
	}
	if nodes[2].times[0] == nodes[2].times[1] {
		t.Errorf("two messages delivered in the same cycle %d", nodes[2].times[0])
	}
}

func TestBusRoundRobinFairness(t *testing.T) {
	engine, _, nodes := setup(t, 3, DefaultConfig(), true)
	// Senders 0 and 1 each queue 10 messages for node 2. Round-robin must
	// alternate them rather than draining one queue first.
	for i := 0; i < 10; i++ {
		nodes[0].port.Send(0, pkt(nodes[2].port, 20, 0))
		nodes[1].port.Send(0, pkt(nodes[2].port, 20, 100))
	}
	if err := engine.Run(); err != nil {
		t.Fatal(err)
	}
	if len(nodes[2].received) != 20 {
		t.Fatalf("delivered %d", len(nodes[2].received))
	}
	// Check strict alternation over the first 10 deliveries.
	for i := 1; i < 10; i++ {
		a := nodes[2].received[i-1].(*packet).tag
		b := nodes[2].received[i].(*packet).tag
		if a == b {
			t.Fatalf("deliveries %d and %d both from sender tag %d (not round-robin)", i-1, i, a)
		}
	}
}

func TestBusOutputBufferBackpressure(t *testing.T) {
	cfg := Config{BytesPerCycle: 20, OutBufferBytes: 100, LinkLatency: 1}
	engine, _, nodes := setup(t, 2, cfg, true)
	ok1 := nodes[0].port.Send(0, pkt(nodes[1].port, 60, 1))
	ok2 := nodes[0].port.Send(0, pkt(nodes[1].port, 40, 2))
	ok3 := nodes[0].port.Send(0, pkt(nodes[1].port, 10, 3))
	if !ok1 || !ok2 {
		t.Fatal("sends within buffer capacity rejected")
	}
	if ok3 {
		t.Fatal("send beyond output buffer accepted")
	}
	if err := engine.Run(); err != nil {
		t.Fatal(err)
	}
	if nodes[0].freed == 0 {
		t.Error("sender never notified of freed space")
	}
	// Retry after drain succeeds.
	if !nodes[0].port.Send(engine.Now(), pkt(nodes[1].port, 10, 3)) {
		t.Error("retry after drain rejected")
	}
	if err := engine.Run(); err != nil {
		t.Fatal(err)
	}
	if len(nodes[1].received) != 3 {
		t.Errorf("delivered %d, want 3", len(nodes[1].received))
	}
}

func TestBusHeadOfLineSkipsBlockedDestination(t *testing.T) {
	cfg := DefaultConfig()
	engine := sim.NewEngine()
	hub := engine.Partition(0)
	bus := NewBus("bus", hub, cfg)
	sender := newNode("s", 4096, true)
	blocked := newNode("b", 64, false) // tiny input buffer, no drain
	open := newNode("o", 4096, true)
	other := newNode("x", 4096, true)
	for _, n := range []*node{sender, blocked, open, other} {
		bus.Attach(n.port, hub)
	}
	// Fill blocked's input buffer with one message, then queue another for
	// it, then one for the open node from a different endpoint.
	sender.port.Send(0, pkt(blocked.port, 64, 1))
	sender.port.Send(0, pkt(blocked.port, 64, 2)) // will block
	other.port.Send(0, pkt(open.port, 20, 3))     // must still get through
	if err := engine.Run(); err != nil {
		t.Fatal(err)
	}
	if len(open.received) != 1 {
		t.Fatal("open destination starved by a blocked endpoint")
	}
	if len(blocked.received) != 0 && blocked.port.Buffered() == 0 {
		t.Fatal("test setup wrong: blocked node drained")
	}
	// Unblock: drain the input buffer; the parked message must now flow.
	blocked.drainAll(engine.Now())
	if err := engine.Run(); err != nil {
		t.Fatal(err)
	}
	blocked.drainAll(engine.Now())
	if len(blocked.received) != 2 {
		t.Errorf("blocked node eventually received %d, want 2", len(blocked.received))
	}
}

func TestBusUtilization(t *testing.T) {
	engine, bus, nodes := setup(t, 2, DefaultConfig(), true)
	nodes[0].port.Send(0, pkt(nodes[1].port, 200, 1)) // 10 cycles
	if err := engine.Run(); err != nil {
		t.Fatal(err)
	}
	if bus.busyCycles != 10 {
		t.Errorf("busy cycles = %d, want 10 for a single 200-byte transfer", bus.busyCycles)
	}
	want := float64(bus.busyCycles) / float64(engine.Now())
	if u := bus.Utilization(engine.Now()); u != want {
		t.Errorf("utilization = %v, want busy/elapsed = %v", u, want)
	}
}

func TestBusZeroSizeMessagePanics(t *testing.T) {
	_, _, nodes := setup(t, 2, DefaultConfig(), true)
	defer func() {
		if recover() == nil {
			t.Error("zero-size message did not panic")
		}
	}()
	nodes[0].port.Send(0, pkt(nodes[1].port, 0, 1))
}

func TestBusUnpluggedPanics(t *testing.T) {
	_, _, nodes := setup(t, 2, DefaultConfig(), true)
	stranger := newNode("z", 0, true)
	defer func() {
		if recover() == nil {
			t.Error("unplugged destination did not panic")
		}
	}()
	nodes[0].port.Send(0, pkt(stranger.port, 20, 1))
}

// TestBusRejectsPortOfAnotherFabric: a port attached to a different fabric
// instance is not attached to this one, so sending to it panics.
func TestBusRejectsPortOfAnotherFabric(t *testing.T) {
	engine, _, nodes := setup(t, 2, DefaultConfig(), true)
	other := NewBus("other", engine.Partition(0), DefaultConfig())
	stranger := newNode("z", 4*1024, true)
	other.Attach(stranger.port, engine.Partition(0))
	defer func() {
		r := recover()
		if r == nil || !strings.Contains(fmt.Sprint(r), "not attached") {
			t.Errorf("send to another fabric's port: recovered %v, want a \"not attached\" panic", r)
		}
	}()
	nodes[0].port.Send(0, pkt(stranger.port, 20, 1))
}

func TestBusAccessors(t *testing.T) {
	cfg := DefaultConfig()
	engine, bus, nodes := setup(t, 2, cfg, true)
	if bus.QueuedMessages() != 0 {
		t.Error("fresh bus has queued messages")
	}
	nodes[0].port.Send(0, pkt(nodes[1].port, 40, 1))
	// The message reaches the arbiter once it crosses the ingress wire.
	if err := engine.RunUntil(cfg.LinkLatency); err != nil {
		t.Fatal(err)
	}
	if bus.QueuedMessages() != 1 {
		t.Errorf("queued = %d, want 1", bus.QueuedMessages())
	}
	if err := engine.Run(); err != nil {
		t.Fatal(err)
	}
	if bus.TotalBytes() != 40 || bus.TotalMessages() != 1 {
		t.Errorf("accessors = %d B / %d msgs", bus.TotalBytes(), bus.TotalMessages())
	}
	if bus.Utilization(0) != 0 {
		t.Error("utilization at t=0 not zero")
	}
	var xb Crossbar
	if xb.Utilization(0) != 0 {
		t.Error("crossbar utilization at t=0 not zero")
	}
}

func TestCrossbarQueuedMessages(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Topology = TopologyCrossbar
	engine := sim.NewEngine()
	hub := engine.Partition(0)
	xbar := NewCrossbar("x", hub, cfg)
	a := newNode("a", 4096, true)
	b := newNode("b", 64, false) // blocked destination
	xbar.Attach(a.port, hub)
	xbar.Attach(b.port, hub)
	a.port.Send(0, pkt(b.port, 64, 1))
	a.port.Send(0, pkt(b.port, 64, 2))
	if err := engine.Run(); err != nil {
		t.Fatal(err)
	}
	if xbar.QueuedMessages() != 1 {
		t.Errorf("queued = %d, want 1 (second blocked)", xbar.QueuedMessages())
	}
}

// TestFabricCheckQuiescent: on every topology the run-end check fails while
// a delivered message sits undrained in its destination's buffer (its input
// credit still claimed) and a second one waits at the hub for that credit,
// and passes once the destination drains and the credits flow back.
func TestFabricCheckQuiescent(t *testing.T) {
	for _, topo := range Topologies() {
		cfg := DefaultConfig()
		cfg.Topology, cfg.Nodes = topo, 2
		engine := sim.NewEngine()
		hub := engine.Partition(0)
		f := New(string(topo), hub, cfg)
		a := newNode("a", 4096, true)
		b := newNode("b", 64, false) // blocked destination
		f.Attach(a.port, hub)
		f.Attach(b.port, hub)
		a.port.Send(0, pkt(b.port, 64, 1))
		a.port.Send(0, pkt(b.port, 64, 2))
		if err := engine.Run(); err != nil {
			t.Fatal(err)
		}
		err := f.CheckQuiescent()
		if err == nil || !strings.Contains(err.Error(), "1 messages still queued") ||
			!strings.Contains(err.Error(), "input credit") {
			t.Errorf("%s: blocked fabric: CheckQuiescent() = %v", topo, err)
		}
		for i := 0; i < 2; i++ {
			b.drainAll(engine.Now())
			if err := engine.Run(); err != nil {
				t.Fatal(err)
			}
		}
		if len(b.received) != 2 {
			t.Fatalf("%s: destination received %d messages, want 2", topo, len(b.received))
		}
		if err := f.CheckQuiescent(); err != nil {
			t.Errorf("%s: drained fabric: %v", topo, err)
		}
	}
}
