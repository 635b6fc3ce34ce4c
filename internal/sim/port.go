package sim

import "fmt"

// Port is an endpoint through which a component sends and receives
// messages. Each port has a bounded incoming buffer measured in bytes,
// matching the 4 KB input/output buffers the paper attaches to every fabric
// endpoint.
type Port struct {
	name      string
	comp      Component
	conn      Connection
	capBytes  int
	usedBytes int
	buf       FIFO[Msg]
	parked    FIFO[Msg] // DirectConnection deliveries waiting for buf space
}

// NewPort creates a port owned by comp with an incoming buffer of capBytes.
// A capBytes of 0 means unbounded.
func NewPort(comp Component, name string, capBytes int) *Port {
	return &Port{name: name, comp: comp, capBytes: capBytes}
}

// Name returns the port name.
func (p *Port) Name() string { return p.name }

// Component returns the owning component.
func (p *Port) Component() Component { return p.comp }

// Connection returns the connection plugged into the port, or nil.
func (p *Port) Connection() Connection { return p.conn }

// SetConnection plugs the port into a connection. Called by the connection
// when the port is attached.
func (p *Port) SetConnection(c Connection) { p.conn = c }

// Capacity returns the port's buffer capacity in bytes (0 = unbounded).
// Connections with credit-based flow control read it once at attach time to
// seed their credit counters.
func (p *Port) Capacity() int { return p.capBytes }

// CanAccept reports whether a message of n bytes fits in the buffer.
func (p *Port) CanAccept(n int) bool {
	return p.capBytes == 0 || p.usedBytes+n <= p.capBytes
}

// Deliver places a message into the incoming buffer and notifies the owner.
// The caller (a connection) must have checked CanAccept first; delivering
// into a full buffer panics, as it means the flow control protocol broke.
func (p *Port) Deliver(now Time, m Msg) {
	n := m.Meta().Bytes
	if !p.CanAccept(n) {
		panic(fmt.Sprintf("sim: port %s buffer overflow (%d used, %d cap, %d incoming)",
			p.name, p.usedBytes, p.capBytes, n))
	}
	m.Meta().RecvTime = now
	p.usedBytes += n
	p.buf.Push(m)
	p.comp.NotifyRecv(now, p)
}

// Peek returns the oldest buffered message without removing it, or nil.
func (p *Port) Peek() Msg { return p.buf.Peek() }

// Retrieve removes and returns the oldest buffered message, or nil. When
// space frees up, the attached connection is notified so stalled senders
// can resume.
func (p *Port) Retrieve(now Time) Msg {
	if p.buf.Len() == 0 {
		return nil
	}
	m := p.buf.Pop()
	p.usedBytes -= m.Meta().Bytes
	if p.conn != nil {
		p.conn.NotifyBufferFree(now, p)
	}
	return m
}

// Send hands a message to the attached connection. It reports false when
// the connection cannot accept the message now (sender must retry on a
// later tick, typically after NotifyPortFree).
func (p *Port) Send(now Time, m Msg) bool {
	if p.conn == nil {
		panic(fmt.Sprintf("sim: port %s is not connected", p.name))
	}
	if m.Meta().Src != p {
		// Skip the redundant store on retransmissions: the original send
		// already set Src, and the receiving side (possibly in another
		// partition) reads it to route NACKs.
		m.Meta().Src = p
	}
	if m.Meta().ID == 0 {
		p.conn.Partition().AssignMsgID(m)
	}
	return p.conn.Send(now, m)
}

// Buffered returns the number of messages waiting in the port.
func (p *Port) Buffered() int { return p.buf.Len() }

// UsedBytes returns the occupied buffer bytes.
func (p *Port) UsedBytes() int { return p.usedBytes }
