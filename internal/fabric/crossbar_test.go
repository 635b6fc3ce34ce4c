package fabric

import (
	"testing"

	"mgpucompress/internal/sim"
)

func setupXbar(t *testing.T, nNodes int, cfg Config, drain bool) (*sim.Engine, *Crossbar, []*node) {
	t.Helper()
	engine := sim.NewEngine()
	hub := engine.Partition(0)
	xbar := NewCrossbar("xbar", hub, cfg)
	nodes := make([]*node, nNodes)
	for i := range nodes {
		nodes[i] = newNode("n"+string(rune('0'+i)), 4*1024, drain)
		xbar.Attach(nodes[i].port, hub)
	}
	return engine, xbar, nodes
}

func TestCrossbarDisjointPairsTransferConcurrently(t *testing.T) {
	cfg := DefaultConfig()
	engine, _, nodes := setupXbar(t, 4, cfg, true)
	L := cfg.LinkLatency
	// 0→1 and 2→3 are disjoint: both 100-byte (5-cycle) messages must
	// finish together after the two wire hops, which a shared bus cannot do.
	nodes[0].port.Send(0, pkt(nodes[1].port, 100, 1))
	nodes[2].port.Send(0, pkt(nodes[3].port, 100, 2))
	if err := engine.Run(); err != nil {
		t.Fatal(err)
	}
	if len(nodes[1].received) != 1 || len(nodes[3].received) != 1 {
		t.Fatal("messages lost")
	}
	if nodes[1].times[0] != 2*L+5 || nodes[3].times[0] != 2*L+5 {
		t.Errorf("delivery times %d/%d, want concurrent %d/%d",
			nodes[1].times[0], nodes[3].times[0], 2*L+5, 2*L+5)
	}
}

func TestCrossbarSerializesSharedDestination(t *testing.T) {
	engine, _, nodes := setupXbar(t, 3, DefaultConfig(), true)
	// 0→2 and 1→2 share the destination input link: serialized.
	nodes[0].port.Send(0, pkt(nodes[2].port, 100, 1))
	nodes[1].port.Send(0, pkt(nodes[2].port, 100, 2))
	if err := engine.Run(); err != nil {
		t.Fatal(err)
	}
	if len(nodes[2].received) != 2 {
		t.Fatal("messages lost")
	}
	a, b := nodes[2].times[0], nodes[2].times[1]
	if a == b {
		t.Errorf("shared-destination transfers overlapped (%d, %d)", a, b)
	}
	if b < a+5 {
		t.Errorf("second delivery at %d after first at %d, want ≥5 cycles apart (serialized 5-cycle transfers)", b, a)
	}
}

func TestCrossbarSerializesSharedSource(t *testing.T) {
	engine, _, nodes := setupXbar(t, 3, DefaultConfig(), true)
	nodes[0].port.Send(0, pkt(nodes[1].port, 100, 1))
	nodes[0].port.Send(0, pkt(nodes[2].port, 100, 2))
	if err := engine.Run(); err != nil {
		t.Fatal(err)
	}
	if len(nodes[1].received) != 1 || len(nodes[2].received) != 1 {
		t.Fatal("messages lost")
	}
	if nodes[2].times[0] < nodes[1].times[0]+5 {
		t.Errorf("second transfer from one source at %d, first at %d, want ≥5 cycles apart", nodes[2].times[0], nodes[1].times[0])
	}
}

func TestCrossbarBeatsBusUnderAllToAllLoad(t *testing.T) {
	run := func(topology Topology) sim.Time {
		cfg := DefaultConfig()
		cfg.Topology = topology
		engine := sim.NewEngine()
		hub := engine.Partition(0)
		f := New("f", hub, cfg)
		nodes := make([]*node, 4)
		for i := range nodes {
			nodes[i] = newNode("n"+string(rune('0'+i)), 64*1024, true)
			f.Attach(nodes[i].port, hub)
		}
		for src := 0; src < 4; src++ {
			for dst := 0; dst < 4; dst++ {
				if src == dst {
					continue
				}
				for k := 0; k < 5; k++ {
					nodes[src].port.Send(0, pkt(nodes[dst].port, 100, src*10+dst))
				}
			}
		}
		if err := engine.Run(); err != nil {
			t.Fatal(err)
		}
		total := 0
		for _, n := range nodes {
			total += len(n.received)
		}
		if total != 60 {
			t.Fatalf("%s delivered %d messages, want 60", topology, total)
		}
		return engine.Now()
	}
	bus := run(TopologyBus)
	xbar := run(TopologyCrossbar)
	if xbar >= bus {
		t.Errorf("crossbar (%d cycles) not faster than bus (%d cycles) under all-to-all load", xbar, bus)
	}
	// 60 × 5-cycle messages on a bus = 300 cycles; a 4-port crossbar can
	// approach 4× that throughput.
	if xbar > bus*2/3 {
		t.Errorf("crossbar speedup too small: %d vs %d", xbar, bus)
	}
}

func TestCrossbarBackpressure(t *testing.T) {
	cfg := Config{BytesPerCycle: 20, OutBufferBytes: 100, LinkLatency: 1, Topology: TopologyCrossbar}
	engine, xbar, nodes := setupXbar(t, 2, cfg, true)
	ok1 := nodes[0].port.Send(0, pkt(nodes[1].port, 90, 1))
	ok2 := nodes[0].port.Send(0, pkt(nodes[1].port, 20, 2))
	if !ok1 {
		t.Fatal("first send rejected")
	}
	if ok2 {
		t.Fatal("overflow send accepted")
	}
	if err := engine.Run(); err != nil {
		t.Fatal(err)
	}
	if !nodes[0].port.Send(engine.Now(), pkt(nodes[1].port, 20, 2)) {
		t.Fatal("retry rejected after drain")
	}
	if err := engine.Run(); err != nil {
		t.Fatal(err)
	}
	if len(nodes[1].received) != 2 {
		t.Errorf("delivered %d, want 2", len(nodes[1].received))
	}
	if xbar.TotalBytes() != 110 || xbar.TotalMessages() != 2 {
		t.Errorf("stats %d B / %d msgs", xbar.TotalBytes(), xbar.TotalMessages())
	}
}

func TestCrossbarUtilization(t *testing.T) {
	engine, xbar, nodes := setupXbar(t, 2, Config{BytesPerCycle: 20, OutBufferBytes: 4096, LinkLatency: 1, Topology: TopologyCrossbar}, true)
	nodes[0].port.Send(0, pkt(nodes[1].port, 200, 1)) // 10 cycles on 1 of 2 links
	if err := engine.Run(); err != nil {
		t.Fatal(err)
	}
	if xbar.busyCycles != 10 {
		t.Errorf("busyCycles = %d, want 10 for a single 200-byte transfer", xbar.busyCycles)
	}
	want := float64(xbar.busyCycles) / float64(engine.Now()) / 2
	if u := xbar.Utilization(engine.Now()); u != want {
		t.Errorf("utilization = %v, want busy/elapsed/links = %v", u, want)
	}
}

func TestNewSelectsTopology(t *testing.T) {
	hub := sim.NewEngine().Partition(0)
	if _, ok := New("f", hub, DefaultConfig()).(*Bus); !ok {
		t.Error("default topology is not the paper's bus")
	}
	cfg := DefaultConfig()
	cfg.Topology = TopologyCrossbar
	if _, ok := New("f", hub, cfg).(*Crossbar); !ok {
		t.Error("crossbar topology not selected")
	}
	defer func() {
		if recover() == nil {
			t.Error("unknown topology did not panic")
		}
	}()
	bad := DefaultConfig()
	bad.Topology = "torus"
	New("f", hub, bad)
}
