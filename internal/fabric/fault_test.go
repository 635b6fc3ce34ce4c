package fabric

import (
	"testing"

	"mgpucompress/internal/fault"
	"mgpucompress/internal/sim"
)

// ipacket is an injectable, corruptible test message that counts its
// releases; plain packet traffic (no marker) must never be touched by the
// injector.
type ipacket struct {
	sim.MsgMeta
	payload  []byte
	released int
}

func (p *ipacket) Meta() *sim.MsgMeta { return &p.MsgMeta }
func (p *ipacket) FaultInjectable()   {}
func (p *ipacket) Release()           { p.released++ }
func (p *ipacket) Corrupt(pick uint64) bool {
	if len(p.payload) == 0 {
		return false
	}
	bit := pick % uint64(len(p.payload)*8)
	p.payload[bit/8] ^= 1 << (bit % 8)
	return true
}

func ipkt(dst *sim.Port, payload []byte) *ipacket {
	p := &ipacket{payload: payload}
	p.Dst, p.Bytes = dst, len(payload)
	return p
}

// TestBusFaultDropsInjectableOnly: with DropRate=1 every injectable message
// vanishes after burning its bus cycles, while unmarked control traffic is
// untouched.
func TestBusFaultDropsInjectableOnly(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Fault = fault.NewInjector(fault.Profile{DropRate: 1}, 1)
	engine, bus, nodes := setup(t, 2, cfg, true)

	dropped := ipkt(nodes[1].port, make([]byte, 20))
	nodes[0].port.Send(0, dropped)
	nodes[0].port.Send(0, pkt(nodes[1].port, 20, 7))
	if err := engine.Run(); err != nil {
		t.Fatal(err)
	}
	if len(nodes[1].received) != 1 {
		t.Fatalf("delivered %d messages, want only the control packet", len(nodes[1].received))
	}
	if _, ok := nodes[1].received[0].(*packet); !ok {
		t.Errorf("survivor is %T, want *packet", nodes[1].received[0])
	}
	// The dropped message still occupied the bus: accounting reflects the
	// transmission as sent.
	if bus.TotalMessages() != 2 || bus.TotalBytes() != 40 {
		t.Errorf("stats = %d msgs / %d bytes, want 2 / 40", bus.TotalMessages(), bus.TotalBytes())
	}
	if cfg.Fault.Dropped != 1 || dropped.released != 1 {
		t.Errorf("Dropped = %d, released %d times", cfg.Fault.Dropped, dropped.released)
	}
}

// TestBusFaultDelaysDelivery: a delayed message arrives exactly DelayCycles
// after its normal delivery time.
func TestBusFaultDelaysDelivery(t *testing.T) {
	arrival := func(inj *fault.Injector) sim.Time {
		cfg := DefaultConfig()
		cfg.Fault = inj
		engine, _, nodes := setup(t, 2, cfg, true)
		nodes[0].port.Send(0, ipkt(nodes[1].port, make([]byte, 20)))
		if err := engine.Run(); err != nil {
			t.Fatal(err)
		}
		if len(nodes[1].received) != 1 {
			t.Fatal("message lost")
		}
		return nodes[1].times[0]
	}
	clean := arrival(nil)
	delayed := arrival(fault.NewInjector(fault.Profile{DelayRate: 1, DelayCycles: 16}, 1))
	if delayed != clean+16 {
		t.Errorf("delayed arrival %d, want %d + 16", delayed, clean)
	}
}

// TestBusFaultCorruptionDeliversCopy: the receiver gets the transmitted
// message itself with one bit flipped; a transmission is a copy of its own,
// so corruption is in place.
func TestBusFaultCorruptionDeliversCopy(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Fault = fault.NewInjector(fault.Profile{CorruptRate: 1}, 1)
	engine, _, nodes := setup(t, 2, cfg, true)

	want := []byte{0xFF, 0x00, 0xFF, 0x00}
	orig := ipkt(nodes[1].port, append([]byte(nil), want...))
	nodes[0].port.Send(0, orig)
	if err := engine.Run(); err != nil {
		t.Fatal(err)
	}
	if len(nodes[1].received) != 1 {
		t.Fatal("message lost")
	}
	got, ok := nodes[1].received[0].(*ipacket)
	if !ok || got != orig || got.released != 0 {
		t.Fatal("receiver did not get the transmitted message")
	}
	diff := 0
	for i := range got.payload {
		for b := 0; b < 8; b++ {
			if (got.payload[i]^want[i])>>b&1 == 1 {
				diff++
			}
		}
	}
	if diff != 1 {
		t.Errorf("%d bits flipped, want 1", diff)
	}
}

// TestBusFaultDelayedDeliveryRespectsBackpressure: a delayed redelivery into
// a full buffer must reschedule, not panic the port's flow-control check.
func TestBusFaultDelayedDeliveryRespectsBackpressure(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Fault = fault.NewInjector(fault.Profile{DelayRate: 1, DelayCycles: 4}, 1)
	engine := sim.NewEngine()
	hub := engine.Partition(0)
	bus := NewBus("bus", hub, cfg)
	src := newNode("src", 4*1024, true)
	// 24-byte input buffer, not drained: the delayed injectable holds its
	// credit reservation, so the control packet stays queued behind it until
	// the receiver drains.
	dst := newNode("dst", 24, false)
	bus.Attach(src.port, hub)
	bus.Attach(dst.port, hub)

	src.port.Send(0, ipkt(dst.port, make([]byte, 20))) // delayed by 4
	src.port.Send(0, pkt(dst.port, 24, 1))             // blocked on input credit
	if err := engine.RunUntil(60); err != nil {
		t.Fatal(err)
	}
	if got := dst.port.Buffered(); got != 1 {
		t.Fatalf("%d messages buffered mid-run, want 1 (the delayed injectable)", got)
	}
	dst.drainAll(engine.Now())
	if err := engine.Run(); err != nil {
		t.Fatal(err)
	}
	dst.drainAll(engine.Now())
	if len(dst.received) != 2 {
		t.Fatalf("delivered %d messages, want 2", len(dst.received))
	}
}

// TestCrossbarFaultInjection: the injector hooks the crossbar's delivery
// path too.
func TestCrossbarFaultInjection(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Fault = fault.NewInjector(fault.Profile{DropRate: 1}, 1)
	engine := sim.NewEngine()
	hub := engine.Partition(0)
	xbar := NewCrossbar("xbar", hub, cfg)
	a := newNode("a", 4*1024, true)
	b := newNode("b", 4*1024, true)
	xbar.Attach(a.port, hub)
	xbar.Attach(b.port, hub)

	a.port.Send(0, ipkt(b.port, make([]byte, 20)))
	a.port.Send(0, pkt(b.port, 20, 1))
	if err := engine.Run(); err != nil {
		t.Fatal(err)
	}
	if len(b.received) != 1 {
		t.Fatalf("crossbar delivered %d messages, want only the control packet", len(b.received))
	}
	if cfg.Fault.Dropped != 1 {
		t.Errorf("Dropped = %d", cfg.Fault.Dropped)
	}
}
