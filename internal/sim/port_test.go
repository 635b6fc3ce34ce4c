package sim

import "testing"

type testMsg struct {
	MsgMeta
	payload int
}

func (m *testMsg) Meta() *MsgMeta { return &m.MsgMeta }

type stubComponent struct {
	ComponentBase
	recvNotified     int
	portFreeNotified int
}

func (c *stubComponent) Handle(*Event) error        { return nil }
func (c *stubComponent) NotifyRecv(Time, *Port)     { c.recvNotified++ }
func (c *stubComponent) NotifyPortFree(Time, *Port) { c.portFreeNotified++ }

func newStubComponent(name string) *stubComponent {
	return &stubComponent{ComponentBase: NewComponentBase(name)}
}

func TestPortDeliverRetrieveFIFO(t *testing.T) {
	c := newStubComponent("c")
	p := NewPort(c, "c.in", 0)
	for i := 0; i < 5; i++ {
		p.Deliver(0, &testMsg{MsgMeta: MsgMeta{Bytes: 8}, payload: i})
	}
	if c.recvNotified != 5 {
		t.Errorf("recvNotified = %d, want 5", c.recvNotified)
	}
	for i := 0; i < 5; i++ {
		m := p.Retrieve(0)
		if m == nil {
			t.Fatalf("Retrieve %d returned nil", i)
		}
		if m.(*testMsg).payload != i {
			t.Errorf("Retrieve %d returned payload %d", i, m.(*testMsg).payload)
		}
	}
	if p.Retrieve(0) != nil {
		t.Error("Retrieve on empty port returned a message")
	}
}

func TestPortByteAccountingAndCapacity(t *testing.T) {
	c := newStubComponent("c")
	p := NewPort(c, "c.in", 100)
	if !p.CanAccept(100) {
		t.Error("empty port rejected a message that exactly fits")
	}
	p.Deliver(0, &testMsg{MsgMeta: MsgMeta{Bytes: 60}})
	if p.CanAccept(41) {
		t.Error("port accepted overflow")
	}
	if !p.CanAccept(40) {
		t.Error("port rejected a fitting message")
	}
	p.Deliver(0, &testMsg{MsgMeta: MsgMeta{Bytes: 40}})
	if p.UsedBytes() != 100 {
		t.Errorf("UsedBytes = %d, want 100", p.UsedBytes())
	}
	p.Retrieve(0)
	if p.UsedBytes() != 40 {
		t.Errorf("UsedBytes after retrieve = %d, want 40", p.UsedBytes())
	}
}

func TestPortOverflowPanics(t *testing.T) {
	c := newStubComponent("c")
	p := NewPort(c, "c.in", 10)
	defer func() {
		if recover() == nil {
			t.Error("delivering into a full port did not panic")
		}
	}()
	p.Deliver(0, &testMsg{MsgMeta: MsgMeta{Bytes: 11}})
}

func TestDirectConnectionDeliversAfterLatency(t *testing.T) {
	e := NewEngine()
	src := newStubComponent("src")
	dst := newStubComponent("dst")
	srcPort := NewPort(src, "src.out", 0)
	dstPort := NewPort(dst, "dst.in", 0)
	conn := NewDirectConnection("link", e.Partition(0), 3)
	conn.Plug(srcPort)
	conn.Plug(dstPort)

	m := &testMsg{MsgMeta: MsgMeta{Dst: dstPort, Bytes: 64}}
	if !srcPort.Send(0, m) {
		t.Fatal("Send rejected")
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if dstPort.Buffered() != 1 {
		t.Fatal("message not delivered")
	}
	got := dstPort.Retrieve(e.Now())
	if got.Meta().RecvTime != 3 {
		t.Errorf("RecvTime = %d, want 3", got.Meta().RecvTime)
	}
	if got.Meta().SendTime != 0 {
		t.Errorf("SendTime = %d, want 0", got.Meta().SendTime)
	}
	if got.Meta().ID == 0 {
		t.Error("message was not assigned an ID")
	}
}

func TestDirectConnectionBackpressureParksAndResumes(t *testing.T) {
	e := NewEngine()
	src := newStubComponent("src")
	dst := newStubComponent("dst")
	srcPort := NewPort(src, "src.out", 0)
	dstPort := NewPort(dst, "dst.in", 64) // room for exactly one message
	conn := NewDirectConnection("link", e.Partition(0), 1)
	conn.Plug(srcPort)
	conn.Plug(dstPort)

	for i := 0; i < 3; i++ {
		srcPort.Send(0, &testMsg{MsgMeta: MsgMeta{Dst: dstPort, Bytes: 64}, payload: i})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if dstPort.Buffered() != 1 {
		t.Fatalf("buffered = %d, want 1 (others parked)", dstPort.Buffered())
	}
	// Drain one; a parked message should be delivered immediately.
	first := dstPort.Retrieve(e.Now())
	if first.(*testMsg).payload != 0 {
		t.Errorf("first payload = %d, want 0", first.(*testMsg).payload)
	}
	if dstPort.Buffered() != 1 {
		t.Fatalf("parked message not delivered after space freed")
	}
	second := dstPort.Retrieve(e.Now())
	if second.(*testMsg).payload != 1 {
		t.Errorf("second payload = %d, want 1 (FIFO violated)", second.(*testMsg).payload)
	}
	if dstPort.Buffered() != 1 {
		t.Fatal("third message not delivered")
	}
	third := dstPort.Retrieve(e.Now())
	if third.(*testMsg).payload != 2 {
		t.Errorf("third payload = %d, want 2", third.(*testMsg).payload)
	}
}

func TestDirectConnectionUnpluggedDestinationPanics(t *testing.T) {
	e := NewEngine()
	src := newStubComponent("src")
	dst := newStubComponent("dst")
	srcPort := NewPort(src, "src.out", 0)
	dstPort := NewPort(dst, "dst.in", 0)
	conn := NewDirectConnection("link", e.Partition(0), 1)
	conn.Plug(srcPort)
	defer func() {
		if recover() == nil {
			t.Error("send to unplugged destination did not panic")
		}
	}()
	srcPort.Send(0, &testMsg{MsgMeta: MsgMeta{Dst: dstPort, Bytes: 1}})
}

// TestDirectConnectionSendToRepluggedPortPanics: a port plugged into a second
// connection has left the first, so sending to it over the first panics.
func TestDirectConnectionSendToRepluggedPortPanics(t *testing.T) {
	e := NewEngine()
	src := newStubComponent("src")
	dst := newStubComponent("dst")
	srcPort := NewPort(src, "src.out", 0)
	dstPort := NewPort(dst, "dst.in", 0)
	first := NewDirectConnection("first", e.Partition(0), 1)
	first.Plug(srcPort)
	first.Plug(dstPort)
	NewDirectConnection("second", e.Partition(0), 1).Plug(dstPort)
	defer func() {
		if recover() == nil {
			t.Error("send to a port re-plugged into another connection did not panic")
		}
	}()
	srcPort.Send(0, &testMsg{MsgMeta: MsgMeta{Dst: dstPort, Bytes: 1}})
}

// eagerSink records payloads in arrival order (its port holds one message,
// so the head is the arrival); once drain is set it retrieves each arrival
// from inside NotifyRecv, re-entering the connection's NotifyBufferFree from
// within a delivery.
type eagerSink struct {
	ComponentBase
	drain bool
	got   []int
}

func (c *eagerSink) Handle(*Event) error        { return nil }
func (c *eagerSink) NotifyPortFree(Time, *Port) {}
func (c *eagerSink) NotifyRecv(now Time, p *Port) {
	c.got = append(c.got, p.Peek().(*testMsg).payload)
	if c.drain {
		p.Retrieve(now)
	}
}

// TestDirectConnectionReentrantResumeKeepsFIFO: parked deliveries resume in
// send order even when each resumed delivery drains the port re-entrantly.
func TestDirectConnectionReentrantResumeKeepsFIFO(t *testing.T) {
	e := NewEngine()
	src := newStubComponent("src")
	dst := &eagerSink{ComponentBase: NewComponentBase("dst")}
	srcPort := NewPort(src, "src.out", 0)
	dstPort := NewPort(dst, "dst.in", 64) // room for exactly one message
	conn := NewDirectConnection("link", e.Partition(0), 2)
	conn.Plug(srcPort)
	conn.Plug(dstPort)

	const n = 6
	for i := 0; i < n; i++ {
		srcPort.Send(0, &testMsg{MsgMeta: MsgMeta{Dst: dstPort, Bytes: 64}, payload: i})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if dstPort.Buffered() != 1 || dstPort.parked.Len() != n-1 {
		t.Fatalf("buffered %d, parked %d; want 1 and %d", dstPort.Buffered(), dstPort.parked.Len(), n-1)
	}
	dst.drain = true
	dstPort.Retrieve(e.Now())
	if len(dst.got) != n {
		t.Fatalf("received %v, want all %d messages", dst.got, n)
	}
	for i, p := range dst.got {
		if p != i {
			t.Fatalf("received %v, want send order", dst.got)
		}
	}
	if dstPort.parked.Len() != 0 || dstPort.Buffered() != 0 {
		t.Fatal("messages left behind after the re-entrant drain")
	}
}

// TestDirectConnectionSendBeforeClockPanics: a send stamped before the
// partition clock would let its delivery overtake earlier sends, so it
// panics.
func TestDirectConnectionSendBeforeClockPanics(t *testing.T) {
	e := NewEngine()
	p := e.Partition(0)
	src := newStubComponent("src")
	dst := newStubComponent("dst")
	srcPort := NewPort(src, "src.out", 0)
	dstPort := NewPort(dst, "dst.in", 0)
	conn := NewDirectConnection("link", p, 4)
	conn.Plug(srcPort)
	conn.Plug(dstPort)
	p.ScheduleTick(10, handlerFunc(func(ev *Event) error {
		srcPort.Send(ev.Time(), &testMsg{MsgMeta: MsgMeta{Dst: dstPort, Bytes: 1}})
		return nil
	}))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("a send stamped before the partition clock did not panic")
		}
	}()
	srcPort.Send(9, &testMsg{MsgMeta: MsgMeta{Dst: dstPort, Bytes: 1}})
}
