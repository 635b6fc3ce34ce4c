package fabric

import (
	"fmt"

	"mgpucompress/internal/sim"
)

// hub is the partition-resident half shared by Bus and Crossbar: the
// endpoint table, the credit bookkeeping, and the fault-aware hand-off of
// completed transfers back to the owning partitions. The concrete fabric
// embeds it and supplies the arbitration policy.
//
// All hub state is touched only from hub-partition event handlers (or from
// Attach, before the simulation starts). Endpoint ports live in other
// partitions and are reached exclusively through sim.Remote links, so the
// fabric never reads another partition's mutable state mid-window.
type hub struct {
	sim.ComponentBase
	part *sim.Partition
	cfg  Config
	arb  arbiter // the concrete fabric

	endpoints []*endpoint
	byPort    map[*sim.Port]*endpoint

	// pendingFaults counts fault-delayed deliveries scheduled but not yet
	// fired. While any are outstanding the bus must not raise next-send
	// bounds on its egress links: a delayed delivery may land earlier than
	// the busy horizon of a later transfer.
	pendingFaults int
}

// arbiter is the arbitration policy the concrete fabric (Bus, Crossbar,
// SwitchFabric) supplies to its hub.
type arbiter interface {
	// admit runs arbitration after a message joined ep's ingress queue.
	admit(now sim.Time, ep *endpoint)
	// refunded runs arbitration after input credit returned to an endpoint.
	refunded(now sim.Time)
}

// endpoint is the hub-side view of one attached port: its ingress queue
// (messages that crossed the wire from the owner and await arbitration) and
// the input-credit counter mirroring the destination buffer.
type endpoint struct {
	port    *sim.Port
	link    *fabricLink
	toOwner *sim.Remote
	queue   sim.FIFO[sim.Msg]
	// inCredit tracks how many bytes of the port's input buffer the hub may
	// still claim; -1 means the buffer is unbounded. Credits are reserved
	// when a transfer claims the fabric and returned by the owner-side link
	// as the component drains its port.
	inCredit int

	// Switched-fabric state (unused by bus and crossbar).
	//
	// creditOut, when non-nil, carries output-buffer credits on a dedicated
	// hub-to-owner link. Switched fabrics publish next-send promises on
	// toOwner while an egress transmission is in flight; credits for the
	// endpoint's own ingress traffic are emitted at injection time and may
	// legitimately precede that horizon, so they must ride a link the
	// promise does not cover.
	creditOut *sim.Remote
	// sw is the switch this endpoint hangs off.
	sw int
	// egrInFlight and egrQueue serialize the endpoint's egress wire:
	// messages that reached the destination switch wait here for the
	// switch-to-owner link, which moves BytesPerCycle like every other
	// link. The flag (not a busy-until time) keeps the wire occupied until
	// the completion event has actually fired: an event landing at exactly
	// the completion time must not start the next transmission first, or
	// its next-send promise would overtake the completed message's
	// hand-off.
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
		byPort:        make(map[*sim.Port]*endpoint),
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
	h.endpoints = append(h.endpoints, ep)
	h.byPort[p] = ep
	p.SetConnection(link)
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

// finish routes one completed transfer through the fault injector (when
// configured) and hands the survivor off toward its destination. The input
// credit was reserved at arbitration time: a dropped message refunds it, a
// delayed one keeps the reservation until the retry fires.
func (h *hub) finish(now sim.Time, msg sim.Msg) {
	if inj := h.cfg.Fault; inj != nil {
		out := inj.Apply(msg)
		if out.Msg == nil {
			h.byPort[msg.Meta().Dst].refund(msg.Meta().Bytes)
			return // dropped; the RDMA guard's timeout recovers
		}
		if out.Delay > 0 {
			h.pendingFaults++
			h.part.Schedule(now+out.Delay, faultDeliver{h}, out.Msg, 0)
			return
		}
		msg = out.Msg
	}
	h.handOff(now, msg)
}

// handOff ships a message across the egress wire to the destination's
// owner partition, where the link delivers it into the port buffer.
func (h *hub) handOff(now sim.Time, msg sim.Msg) {
	ep := h.byPort[msg.Meta().Dst]
	ep.toOwner.Schedule(now+h.cfg.LinkLatency, linkDeliver{ep.link}, msg, 0)
}

// cycles returns the integral bus occupancy of a message.
func (h *hub) cycles(bytes int) sim.Time {
	c := sim.Time((bytes + h.cfg.BytesPerCycle - 1) / h.cfg.BytesPerCycle)
	if c == 0 {
		c = 1
	}
	return c
}

// outCredit returns output-buffer space to the source link once its message
// has claimed the fabric (the classic "output queue drains at arbitration"
// semantics, now with the wire latency made explicit). Switched fabrics
// route the credit over the endpoint's dedicated credit link so it is never
// constrained by an egress next-send promise on toOwner.
func (h *hub) outCredit(now sim.Time, ep *endpoint, bytes int) {
	r := ep.toOwner
	if ep.creditOut != nil {
		r = ep.creditOut
	}
	r.Schedule(now+h.cfg.LinkLatency, outCreditReturn{ep.link}, nil, bytes)
}

// fabricLink is the owner-partition side of one fabric attachment. It
// implements sim.Connection for exactly one port: sends cross to the hub
// over a Remote, deliveries and credits come back the same way. Its only
// references into the hub are the immutable configuration and the
// Attach-time port table.
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
	if _, ok := l.hub.byPort[meta.Dst]; !ok {
		panic(fmt.Sprintf("fabric %s: destination port %s not attached", l.hub.Name(), meta.Dst.Name()))
	}
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
// ingress queue and runs arbitration.
type linkIngress struct{ ep *endpoint }

func (r linkIngress) Handle(e *sim.Event) error {
	r.ep.queue.Push(e.Msg())
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
