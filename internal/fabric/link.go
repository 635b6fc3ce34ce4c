package fabric

import (
	"errors"
	"fmt"
	"slices"

	"mgpucompress/internal/metrics"
	"mgpucompress/internal/sim"
	"mgpucompress/internal/trace"
)

// hub is the partition-resident half every topology shares: the endpoint
// list, the credit bookkeeping, the round-robin injection pick, the
// completion accounting and its metrics, and the fault-aware hand-off of
// completed transfers back to the owning partitions. The concrete fabric
// (Bus, Crossbar, SwitchFabric) embeds it and supplies only the arbitration
// policy: when to pick, what a picked message occupies, and how many
// serializing links it has.
//
// All hub state is touched only from hub-partition event handlers (or from
// Attach, before the simulation starts). Endpoint ports live in other
// partitions and are reached exclusively through sim.Remote links, so the
// fabric never reads another partition's mutable state mid-window; the one
// thing it reads off a destination port, the connection Attach plugged into
// it (see endpointOf), does not change while the simulation runs.
type hub struct {
	sim.ComponentBase
	part *sim.Partition
	cfg  Config
	arb  arbiter // the concrete fabric

	// all holds every attached endpoint, in attach order. The bus and the
	// crossbar arbitrate it as their one round-robin group; a switched
	// fabric moves each endpoint's counting to its switch's group.
	all rrGroup

	// pendingFaults counts fault-delayed deliveries scheduled but not yet
	// fired. While any are outstanding the bus must not raise next-send
	// bounds on its egress links: a delayed delivery may land earlier than
	// the busy horizon of a later transfer.
	pendingFaults int

	// Transfer accounting. messages and bytes count each delivered message
	// once, regardless of hop count, so totals are comparable across
	// topologies; busyCycles is summed over every serializing link.
	messages   uint64
	bytes      uint64
	busyCycles uint64
}

// arbiter is the arbitration policy the concrete fabric supplies to its hub.
type arbiter interface {
	// admit runs arbitration after a message joined ep's ingress queue.
	admit(now sim.Time, ep *endpoint)
	// refunded runs arbitration after input credit returned to an endpoint.
	refunded(now sim.Time)
	// linkCount is the number of serializing links busyCycles is summed over.
	linkCount() int
	// inNetwork counts accepted messages held outside the endpoint queues.
	inNetwork() int
}

// rrGroup is one round-robin injection group: the endpoints that arbitrate
// together, where the next scan starts, and how many messages wait in their
// ingress queues (linkIngress counts one in, a successful pick counts it
// out).
type rrGroup struct {
	eps    []*endpoint
	next   int
	queued int
}

// join adds ep to the group, which ep's ingress then counts against.
func (g *rrGroup) join(ep *endpoint) {
	ep.grp = g
	g.eps = append(g.eps, ep)
}

// endpoint is the hub-side view of one attached port: its ingress queue
// (messages that crossed the wire from the owner and await arbitration) and
// the input-credit counter mirroring the destination buffer.
type endpoint struct {
	port    *sim.Port
	link    *fabricLink
	toOwner *sim.Remote
	queue   sim.FIFO[sim.Msg]
	grp     *rrGroup
	// inCredit tracks how many bytes of the port's input buffer the hub may
	// still claim; -1 means the buffer is unbounded. Credits are reserved
	// when a transfer claims the fabric and returned by the owner-side link
	// as the component drains its port.
	inCredit int

	// Crossbar state (zero on the bus and switched fabrics): the cycles
	// until which the endpoint's output and input links are transmitting.
	outBusy, inBusy sim.Time

	// Switched-fabric state (unused by bus and crossbar).
	//
	// sw is the switch this endpoint hangs off.
	sw int
	// egrInFlight and egrQueue serialize the endpoint's egress wire:
	// messages that reached the destination switch wait here for the
	// switch-to-owner link, which moves BytesPerCycle like every other
	// link. The flag (not a busy-until time) keeps the wire occupied until
	// the completion event has actually fired: a message reaching the
	// switch at exactly the completion time waits for the completed
	// message's hand-off instead of starting its transmission first.
	egrInFlight bool
	egrQueue    sim.FIFO[sim.Msg]
}

// newHub builds the shared half of every fabric. The configuration must
// pass Validate; violations are wiring bugs and panic.
func newHub(name string, part *sim.Partition, cfg Config) hub {
	if err := cfg.Validate(); err != nil {
		panic(fmt.Sprintf("%v", err))
	}
	return hub{
		ComponentBase: sim.NewComponentBase(name),
		part:          part,
		cfg:           cfg,
	}
}

// Attach connects a port owned by a component in partition owner to the
// fabric. It builds the owner-side link (a sim.Connection local to the
// owner) and the two sim.Remote channels carrying traffic and credits
// between the owner and the hub; the fabric's LinkLatency is the declared
// minimum latency of both, which floors the engine's adaptive window
// bounds on these links.
func (h *hub) Attach(p *sim.Port, owner *sim.Partition) {
	credit := -1
	if c := p.Capacity(); c > 0 {
		credit = c
	}
	ep := &endpoint{port: p, inCredit: credit}
	ep.toOwner = h.part.Engine().Link(h.part, owner, h.cfg.LinkLatency)
	link := &fabricLink{
		hub:  h,
		part: owner,
		port: p,
		ep:   ep,
	}
	link.toHub = h.part.Engine().Link(owner, h.part, h.cfg.LinkLatency)
	ep.link = link
	h.all.join(ep)
	p.SetConnection(link)
}

// endpointOf returns the endpoint port p is attached through. Attach plugs
// the endpoint's link into the port, so the port's own connection leads to
// it; a port attached to another fabric, or to none, panics.
func (h *hub) endpointOf(p *sim.Port) *endpoint {
	if l, ok := p.Connection().(*fabricLink); ok && l.hub == h {
		return l.ep
	}
	panic(fmt.Sprintf("fabric %s: destination port %s not attached", h.Name(), p.Name()))
}

// reserve claims n bytes of the destination's input credit; it reports
// false when the credit does not cover the message (head-of-line blocked).
func (ep *endpoint) reserve(n int) bool {
	if ep.inCredit < 0 {
		return true
	}
	if n > ep.inCredit {
		return false
	}
	ep.inCredit -= n
	return true
}

// refund returns a reservation that will never be delivered (fault drop).
func (ep *endpoint) refund(n int) {
	if ep.inCredit >= 0 {
		ep.inCredit += n
	}
}

// pick is the one round-robin injection scan of every fabric. Starting at
// g.eps[g.next] it skips empty queues and heads that cannot go now — the
// source's output link or the destination's input link still transmitting
// (crossbar only), or the destination's input credit not covering the
// message — and claims the first head that can: its credit is reserved,
// it leaves the queue, and g.next moves past its endpoint. It returns nil
// when no head can go, at once when nothing is queued (poison builds check
// that every queue is then empty): a scan that finds nothing changes nothing.
func (h *hub) pick(now sim.Time, g *rrGroup) (*endpoint, sim.Msg) {
	if g.queued == 0 {
		if sim.Poison && slices.ContainsFunc(g.eps, func(ep *endpoint) bool { return ep.queue.Len() != 0 }) {
			panic(fmt.Sprintf("fabric %s: an injection group counts nothing queued but holds messages", h.Name()))
		}
		return nil, nil
	}
	n := len(g.eps)
	for i := 0; i < n; i++ {
		ep := g.eps[(g.next+i)%n]
		if ep.queue.Len() == 0 || ep.outBusy > now {
			continue
		}
		msg := ep.queue.Peek()
		dst := h.endpointOf(msg.Meta().Dst)
		if dst.inBusy > now || !dst.reserve(msg.Meta().Bytes) {
			continue // head-of-line blocked; try another endpoint
		}
		ep.queue.Pop()
		g.queued--
		g.next = (g.next + i + 1) % n
		return ep, msg
	}
	return nil, nil
}

// deliver completes one transfer whose transmission started at cycle start:
// it counts and traces the message as sent, routes it through the fault
// injector (when configured) and hands the survivor off toward its
// destination. The input credit was reserved by pick: a dropped message
// refunds it, a delayed one keeps the reservation until the retry fires.
// The injector releases what it drops, so the refund reads nothing of it.
func (h *hub) deliver(now, start sim.Time, msg sim.Msg) {
	meta := msg.Meta()
	dst, bytes := meta.Dst, meta.Bytes
	h.messages++
	h.bytes += uint64(meta.Bytes)
	if h.cfg.Trace != nil {
		h.cfg.Trace.Record(trace.Transfer{
			Start: start,
			End:   now,
			Src:   meta.Src.Name(),
			Dst:   meta.Dst.Name(),
			Bytes: meta.Bytes,
			Kind:  fmt.Sprintf("%T", msg),
		})
	}
	if inj := h.cfg.Fault; inj != nil {
		out := inj.Apply(msg)
		if out.Dropped {
			h.endpointOf(dst).refund(bytes)
			return // the RDMA guard's timeout recovers
		}
		if out.Delay > 0 {
			h.pendingFaults++
			h.part.Schedule(now+out.Delay, faultDeliver{h}, msg, 0)
			return
		}
	}
	h.handOff(now, msg)
}

// handOff ships a message across the egress wire to the destination's
// owner partition, where the link delivers it into the port buffer.
func (h *hub) handOff(now sim.Time, msg sim.Msg) {
	ep := h.endpointOf(msg.Meta().Dst)
	ep.toOwner.Schedule(now+h.cfg.LinkLatency, linkDeliver{ep.link}, msg, 0)
}

// transmit charges a message's serialization time to the busy counter and
// returns it: the integral number of cycles a link of BytesPerCycle needs.
func (h *hub) transmit(bytes int) sim.Time {
	c := sim.Time((bytes + h.cfg.BytesPerCycle - 1) / h.cfg.BytesPerCycle)
	if c == 0 {
		c = 1
	}
	h.busyCycles += uint64(c)
	return c
}

// outCredit returns output-buffer space to the source link once its message
// has claimed the fabric (the classic "output queue drains at arbitration"
// semantics, now with the wire latency made explicit).
func (h *hub) outCredit(now sim.Time, ep *endpoint, bytes int) {
	ep.toOwner.Schedule(now+h.cfg.LinkLatency, outCreditReturn{ep.link}, nil, bytes)
}

// RegisterMetrics implements Fabric. The links gauge is read lazily, so
// registering before Attach still reports the final link count.
func (h *hub) RegisterMetrics(reg *metrics.Registry, prefix string) {
	reg.CounterFunc(prefix+"/bytes", func() uint64 { return h.bytes })
	reg.CounterFunc(prefix+"/messages", func() uint64 { return h.messages })
	reg.CounterFunc(prefix+"/busy_cycles", func() uint64 { return h.busyCycles })
	reg.GaugeFunc(prefix+"/links", func() float64 { return float64(h.arb.linkCount()) })
}

// TotalBytes implements Fabric.
func (h *hub) TotalBytes() uint64 { return h.bytes }

// TotalMessages implements Fabric.
func (h *hub) TotalMessages() uint64 { return h.messages }

// Utilization implements Fabric: busy cycles over elapsed cycles, averaged
// over the serializing links.
func (h *hub) Utilization(now sim.Time) float64 {
	if now == 0 {
		return 0
	}
	links := h.arb.linkCount()
	if links == 0 {
		return 0
	}
	return float64(h.busyCycles) / float64(now) / float64(links)
}

// EnergyPJ implements Fabric for the single-hop fabrics: every transfer
// crosses one link of the configured base class.
func (h *hub) EnergyPJ() float64 {
	return float64(h.bytes*8) * h.cfg.BaseClass.PJPerBit()
}

// QueuedMessages returns the messages the fabric has accepted and not yet
// delivered, in endpoint queues or in the network (tests and debugging).
func (h *hub) QueuedMessages() int {
	n := h.arb.inNetwork()
	for _, ep := range h.all.eps {
		n += ep.queue.Len() + ep.egrQueue.Len()
	}
	return n
}

// CheckQuiescent implements Fabric: it reports an error unless every queue
// is empty, no egress wire or fault-delayed delivery is outstanding, every
// endpoint's input credit is back at its port's capacity and every link's
// output buffer has been credited back in full.
func (h *hub) CheckQuiescent() error {
	var errs []error
	if q := h.QueuedMessages(); q != 0 {
		errs = append(errs, fmt.Errorf("%d messages still queued", q))
	}
	if h.pendingFaults != 0 {
		errs = append(errs, fmt.Errorf("%d fault-delayed deliveries outstanding", h.pendingFaults))
	}
	var wires, credits, outstanding int
	for _, ep := range h.all.eps {
		if ep.egrInFlight {
			wires++
		}
		if c := ep.port.Capacity(); c > 0 && ep.inCredit != c {
			credits++
		}
		if ep.link.outstanding != 0 {
			outstanding++
		}
	}
	if wires != 0 {
		errs = append(errs, fmt.Errorf("%d egress wires still transmitting", wires))
	}
	if credits != 0 {
		errs = append(errs, fmt.Errorf("input credits of %d of %d endpoints not returned", credits, len(h.all.eps)))
	}
	if outstanding != 0 {
		errs = append(errs, fmt.Errorf("%d output buffers not credited back", outstanding))
	}
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("fabric %s: %w", h.Name(), err)
	}
	return nil
}

// fabricLink is the owner-partition side of one fabric attachment. It
// implements sim.Connection for exactly one port: sends cross to the hub
// over a Remote, deliveries and credits come back the same way. Its only
// references into the hub are the immutable configuration and the
// endpoint lookup, which reads nothing but the destination port's link.
type fabricLink struct {
	hub   *hub
	part  *sim.Partition
	port  *sim.Port
	toHub *sim.Remote
	ep    *endpoint

	// outstanding counts bytes accepted into the endpoint's (modelled)
	// output buffer and not yet credited back by arbitration.
	outstanding int
	// lastUsed mirrors the hub's view of the destination buffer occupancy;
	// the difference to the port's actual usage is the credit to return.
	lastUsed int
}

// Partition implements sim.Connection.
func (l *fabricLink) Partition() *sim.Partition { return l.part }

// Plug implements sim.Connection. Fabric links are bound to their port at
// Attach time; plugging anything else is a wiring bug.
func (l *fabricLink) Plug(p *sim.Port) {
	if p != l.port {
		panic(fmt.Sprintf("fabric %s: link for %s cannot take port %s", l.hub.Name(), l.port.Name(), p.Name()))
	}
	p.SetConnection(l)
}

// Send implements sim.Connection: claim output-buffer space and put the
// message on the wire toward the hub. It reports false when the output
// buffer is full (the sender retries after NotifyPortFree).
func (l *fabricLink) Send(now sim.Time, m sim.Msg) bool {
	meta := m.Meta()
	if meta.Dst == nil {
		panic(fmt.Sprintf("fabric %s: message %d has no destination", l.hub.Name(), meta.ID))
	}
	l.hub.endpointOf(meta.Dst) // panics unless the destination is attached here
	n := meta.Bytes
	if n <= 0 {
		panic(fmt.Sprintf("fabric %s: message %d has no size", l.hub.Name(), meta.ID))
	}
	if max := l.hub.cfg.OutBufferBytes; max > 0 && l.outstanding+n > max {
		return false
	}
	l.outstanding += n
	meta.SendTime = now
	l.toHub.Schedule(now+l.hub.cfg.LinkLatency, linkIngress{l.ep}, m, 0)
	return true
}

// NotifyBufferFree implements sim.Connection: the owning component drained
// its port, so input credit may flow back to the hub.
func (l *fabricLink) NotifyBufferFree(now sim.Time, _ *sim.Port) {
	l.reconcile(now)
}

// reconcile returns freed input-buffer bytes to the hub as credit.
func (l *fabricLink) reconcile(now sim.Time) {
	if l.port.Capacity() == 0 {
		return // unbounded buffer, no credits in play
	}
	used := l.port.UsedBytes()
	if freed := l.lastUsed - used; freed > 0 {
		l.lastUsed = used
		l.toHub.Schedule(now+l.hub.cfg.LinkLatency, inCreditReturn{l.ep}, nil, freed)
	}
}

// The records crossing between an endpoint's owner and the hub. Each kind
// is a single-pointer handler type, so scheduling one allocates nothing;
// messages ride in the record's Msg and byte counts in its Arg.

// linkIngress lands a message from the owner-side link in the endpoint's
// ingress queue, counts it in the endpoint's group and runs arbitration.
type linkIngress struct{ ep *endpoint }

func (r linkIngress) Handle(e *sim.Event) error {
	r.ep.queue.Push(e.Msg())
	r.ep.grp.queued++
	r.ep.link.hub.arb.admit(e.Time(), r.ep)
	return nil
}

// inCreditReturn returns Arg drained input-buffer bytes to the hub.
type inCreditReturn struct{ ep *endpoint }

func (r inCreditReturn) Handle(e *sim.Event) error {
	r.ep.refund(e.Arg())
	r.ep.link.hub.arb.refunded(e.Time())
	return nil
}

// linkDeliver lands a completed transfer in the destination port, on the
// destination's own partition.
type linkDeliver struct{ l *fabricLink }

func (r linkDeliver) Handle(e *sim.Event) error {
	l, m := r.l, e.Msg()
	// Count the delivery against the mirrored occupancy before Deliver: the
	// receiving component may drain the port synchronously from NotifyRecv,
	// and the freed bytes must be visible to reconcile.
	l.lastUsed += m.Meta().Bytes
	l.port.Deliver(e.Time(), m)
	l.reconcile(e.Time())
	return nil
}

// outCreditReturn frees Arg bytes of output-buffer space on the source link
// after its message claimed the fabric.
type outCreditReturn struct{ l *fabricLink }

func (r outCreditReturn) Handle(e *sim.Event) error {
	r.l.outstanding -= e.Arg()
	r.l.port.Component().NotifyPortFree(e.Time(), r.l.port)
	return nil
}

// faultDeliver finishes a fault-delayed delivery; the input-credit
// reservation from arbitration time is still held, so the hand-off needs no
// re-check. It is shared by every fabric.
type faultDeliver struct{ h *hub }

func (r faultDeliver) Handle(e *sim.Event) error {
	r.h.pendingFaults--
	r.h.handOff(e.Time(), e.Msg())
	return nil
}
