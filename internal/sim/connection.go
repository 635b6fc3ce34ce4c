package sim

import "fmt"

// Connection moves messages from a source port to a destination port with
// some timing model. The inter-GPU bus fabric (internal/fabric) implements
// this interface with shared-bus arbitration; DirectConnection below models
// the wide on-die links inside a GPU. A connection's latency is a property
// of its construction, and every connection lives in exactly one partition —
// the one all of its ports' components belong to. A connection's deliveries
// never leave its partition, so only Remote links carry cross-partition
// traffic and bound the window scheduler.
type Connection interface {
	// Send starts transmitting m from m.Meta().Src toward m.Meta().Dst.
	// It reports false if the connection cannot take the message now.
	Send(now Time, m Msg) bool
	// NotifyBufferFree is called by a destination port when buffer space
	// frees up, letting the connection resume stalled deliveries.
	NotifyBufferFree(now Time, port *Port)
	// Plug attaches a port to this connection.
	Plug(p *Port)
	// Partition returns the partition this connection schedules on. Ports
	// use it to reach the run's message-ID counter.
	Partition() *Partition
}

// directDeliverer lands a message sent over c once the latency has elapsed;
// the record carries the message.
type directDeliverer struct{ c *DirectConnection }

func (d directDeliverer) Handle(e *Event) error {
	m := e.Msg()
	dst := m.Meta().Dst
	if !dst.CanAccept(m.Meta().Bytes) {
		// Destination full: park the message; resume on NotifyBufferFree.
		dst.parked.Push(m)
		return nil
	}
	dst.Deliver(e.Time(), m)
	return nil
}

// DirectConnection is a point-to-multipoint link with a fixed latency and
// unlimited bandwidth. It models on-die interconnect inside a GPU, which
// the paper treats as abundant relative to the inter-GPU fabric.
type DirectConnection struct {
	name    string
	part    *Partition
	latency Time
}

// NewDirectConnection creates a direct connection on partition p with the
// given one-way latency in cycles, fixed for the connection's lifetime.
func NewDirectConnection(name string, p *Partition, latency Time) *DirectConnection {
	return &DirectConnection{name: name, part: p, latency: latency}
}

// Plug attaches a port. The port's connection field is the one record of
// the attachment: re-plugging it elsewhere detaches it from c.
func (c *DirectConnection) Plug(p *Port) { p.SetConnection(c) }

// Partition returns the partition this connection schedules on.
func (c *DirectConnection) Partition() *Partition { return c.part }

// Latency returns the connection's fixed one-way latency.
func (c *DirectConnection) Latency() Time { return c.latency }

// Send schedules delivery after the connection latency, as one record that
// carries the message. A DirectConnection never rejects a send;
// back-pressure is applied at the destination buffer (messages park until
// space frees). Deliveries keep send order because the latency is fixed and
// send times never run behind the partition clock, which only moves
// forward; a send stamped before the clock panics.
func (c *DirectConnection) Send(now Time, m Msg) bool {
	if now < c.part.now {
		panic(fmt.Sprintf("sim: %s: send at %d is before the partition clock %d", c.name, now, c.part.now))
	}
	dst := m.Meta().Dst
	if dst == nil {
		panic(fmt.Sprintf("sim: %s: message %d has no destination", c.name, m.Meta().ID))
	}
	if dst.conn != c {
		panic(fmt.Sprintf("sim: %s: destination port %s is not plugged in", c.name, dst.Name()))
	}
	m.Meta().SendTime = now
	c.part.Schedule(now+c.latency, directDeliverer{c}, m, 0)
	return true
}

// NotifyBufferFree drains the port's parked messages in FIFO order. The
// queue's length and head are re-read every iteration because Deliver can
// re-enter this method via the receiving component.
func (c *DirectConnection) NotifyBufferFree(now Time, port *Port) {
	q := &port.parked
	for q.Len() > 0 {
		m := q.Peek()
		if !port.CanAccept(m.Meta().Bytes) {
			return
		}
		q.Pop()
		port.Deliver(now, m)
	}
}
