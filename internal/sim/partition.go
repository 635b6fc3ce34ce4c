package sim

import "fmt"

// Partition is one independently clocked slice of the simulation: a private
// event queue, clock, and sequence counters. Components are constructed
// against a Partition and schedule exclusively on it; the Engine advances
// all partitions together, window by window.
//
// All sequence numbers are pure functions of the partition index and the
// partition-local operation count: partition i's n-th schedule gets global
// seq n*K+i (K = partition count). Interleaved streams from different
// partitions therefore never collide, and — because no execution order
// enters the formula — the numbering is independent of window placement.
// With K=1 the formula degenerates to the classic single-queue counter.
type Partition struct {
	eng *Engine
	idx int

	queue     eventQueue
	now       Time
	localSeq  uint64
	msgSeq    uint64
	scheduled uint64
	handled   uint64

	stopped bool
	err     error
	errTime Time
	errSeq  uint64

	// ev is the Event every dispatch hands to its handler, reused so
	// dispatch allocates nothing.
	ev Event

	// Window-scheduling state. curLimit is the exclusive bound the current
	// window dispatches under; in a lone-partition dynamic window (dynamic
	// set by the engine) the partition's own Remote emissions collapse it,
	// so the dispatch loop re-reads it every iteration.
	curLimit Time
	dynamic  bool

	// The partition's outgoing cross links, as the window scheduler reads
	// them (Engine.prepare): Engine.cross[linkLo:linkHi], the cheapest
	// latency minLat among them (TimeInf when there are none), and open,
	// the number of links at minLat that carry no next-send promise yet.
	// Remote.SetNextSend counts a link out of open when it first promises.
	linkLo, linkHi int
	minLat         Time
	open           int

	// ring is the front of the ghost ring: the tickers whose pending
	// request is a promised-quiet tick (Ticker.TickQuiet), on a circular
	// list through Ticker.prev/next in (nextAsked, seq) order; ghosts
	// counts them. A ghost is inserted or re-keyed with the partition's
	// newest sequence number at a time no earlier than any other ghost's,
	// so the back of the ring is always its place. forever counts the
	// ghosts promised quiet until TimeInf, which only a touch can end.
	ring    *Ticker
	ghosts  int
	forever int

	// locals holds the partition-local values created by Local; there are
	// as many as packages that keep one, so a scan beats a map.
	locals []local
}

type local struct{ key, val any }

// Local returns the partition's value for key, creating it with mk on the
// first call. A package keeps state here that every component built on the
// partition shares, such as mem's message pool, without locking: only the
// partition's own handlers touch it.
func (p *Partition) Local(key any, mk func() any) any {
	for _, l := range p.locals {
		if l.key == key {
			return l.val
		}
	}
	v := mk()
	p.locals = append(p.locals, local{key, v})
	return v
}

// Engine returns the engine this partition belongs to.
func (p *Partition) Engine() *Engine { return p.eng }

// Index returns the partition's index within its engine.
func (p *Partition) Index() int { return p.idx }

// Now returns the partition's current simulated time.
func (p *Partition) Now() Time { return p.now }

// Pending returns the number of events waiting in this partition's queue,
// ghost ticks included.
func (p *Partition) Pending() int { return p.queue.len() + p.ghosts }

// headTime returns the time of the partition's earliest pending event,
// ghost ticks included, or TimeInf when there is none.
func (p *Partition) headTime() Time {
	t := p.queue.headTime()
	if p.ring != nil && p.ring.nextAsked < t {
		t = p.ring.nextAsked
	}
	return t
}

// addGhost puts t at the back of the ghost ring.
func (p *Partition) addGhost(t *Ticker) {
	t.ghost = true
	p.ghosts++
	if t.until == TimeInf {
		p.forever++
	}
	h := p.ring
	if h == nil {
		t.prev, t.next = t, t
		p.ring = t
		return
	}
	t.prev, t.next = h.prev, h
	h.prev.next = t
	h.prev = t
}

// removeGhost unlinks t from the ghost ring.
func (p *Partition) removeGhost(t *Ticker) {
	t.ghost = false
	p.ghosts--
	if t.until == TimeInf {
		p.forever--
	}
	if t.next == t {
		p.ring = nil
	} else {
		t.prev.next, t.next.prev = t.next, t.prev
		if p.ring == t {
			p.ring = t.next
		}
	}
	t.prev, t.next = nil, nil
}

// fireGhosts fires, in order, the ghost ticks whose (time, seq) key comes
// before both the queue's head and the window limit. Only an expiring
// ghost pushes a record, so the head is read again only then. It fires
// nothing and reports a stall when the window has no limit, the queue is
// empty and every ghost is promised quiet forever: no record could ever
// arrive to end the window.
func (p *Partition) fireGhosts() (stalled bool) {
	ht, hs := p.queue.head()
	if ht == TimeInf && p.curLimit == TimeInf && p.forever == p.ghosts {
		return true
	}
	for g := p.ring; g != nil && g.nextAsked < p.curLimit &&
		(g.nextAsked < ht || g.nextAsked == ht && g.seq < hs); g = p.ring {
		if p.fireGhost(g) {
			ht, hs = p.queue.head()
		}
	}
	return false
}

// stallError is the error of a run without a deadline that can never end:
// n tickers wait forever on a touch, and nothing is queued that could
// deliver one.
func stallError(now Time, n int) error {
	return fmt.Errorf("sim: stalled at cycle %d: %d tickers wait forever with no event queued", now, n)
}

// fireGhost fires the ring's front g at its time with exactly the
// accounting of the quiet tick it stands for: the clock moves, the tick
// counts as handled, and its TickLater re-arm takes the next sequence
// number and counts as scheduled. The re-armed ghost goes to the back of
// the ring, which the newest sequence number keeps sorted. At until the
// re-arm is an ordinary TickAt, whose queue push fireGhost reports.
func (p *Partition) fireGhost(g *Ticker) (pushed bool) {
	t := g.nextAsked
	p.now = t
	p.queue.cursor = t
	p.handled++
	if Poison && g.Check != nil {
		g.Check(t)
	}
	if t+1 >= g.until {
		p.removeGhost(g)
		g.hasAsked = false
		g.TickAt(t + 1)
		return true
	}
	g.nextAsked = t + 1
	g.seq = p.nextSeq()
	p.scheduled++
	p.ring = g.next
	return false
}

// nextSeq assigns the next partition-striped sequence number.
func (p *Partition) nextSeq() uint64 {
	p.localSeq++
	return p.localSeq*uint64(len(p.eng.parts)) + uint64(p.idx)
}

// enqueue is the single local entry point into the queue: past-check,
// sequence assignment, accounting, push.
func (p *Partition) enqueue(t Time, r record) {
	if t < p.now {
		panic(fmt.Sprintf("sim: scheduling event at %d before now %d", t, p.now))
	}
	p.scheduled++
	p.queue.push(t, p.nextSeq(), r)
}

// enqueueStamped queues a cross-partition record whose sequence number was
// assigned by the emitting partition. Striped numbering keeps foreign stamps
// disjoint from local ones, and because the stamp is fixed at emission time,
// the (time, seq) order — and therefore every run's behaviour — is
// independent of window placement.
func (p *Partition) enqueueStamped(t Time, seq uint64, r record) {
	if t < p.now {
		panic(fmt.Sprintf("sim: merging remote event at %d before now %d", t, p.now))
	}
	p.scheduled++
	p.queue.push(t, seq, r)
}

// Schedule queues a record for h at time t carrying msg and arg, which the
// dispatched Event returns from Msg and Arg. It panics if t is in the
// partition's past. Records at the same timestamp run in the order they
// were scheduled. Scheduling allocates nothing once the partition's queue
// has reached its peak depth, provided h converts to a Handler without
// allocating (a pointer, or a single-pointer struct).
func (p *Partition) Schedule(t Time, h Handler, msg Msg, arg int) {
	p.enqueue(t, record{h: h, msg: msg, arg: arg})
}

// ScheduleTick queues a payload-less record for h at time t: Schedule with
// no message and a zero argument.
func (p *Partition) ScheduleTick(t Time, h Handler) {
	p.enqueue(t, record{h: h})
}

// AssignMsgID gives the message an ID unique within this engine's run.
// IDs are striped by partition exactly like event sequence numbers (n-th
// message of partition i gets n*K+i, guaranteed nonzero), so the full
// message stream is a pure function of the simulation's inputs. With one
// partition the numbering is the classic per-engine counter.
func (p *Partition) AssignMsgID(m Msg) {
	p.msgSeq++
	m.Meta().ID = p.msgSeq*uint64(len(p.eng.parts)) + uint64(p.idx)
}

// Pause stops the engine's current Run at the end of the current window;
// this partition stops dispatching immediately. Queued events remain, so a
// later Run resumes where the simulation left off.
func (p *Partition) Pause() { p.stopped = true }

// window dispatches this partition's events with time < the window limit,
// in (time, seq) order. Handlers touch only partition-local state and push
// cross traffic past the window limit, so partitions sharing a window cannot
// disturb each other's events; state deliberately shared across partitions
// (one controller serving every endpoint) observes them in the engine's
// partition-index order. The limit lives in curLimit and is re-read every
// iteration: in a dynamic lone-partition window the partition's own Remote
// emissions collapse it mid-window, which is what keeps running far ahead
// of the other partitions conservative. Ghost ticks due before the queue's
// head fire first, in their (time, seq) slots. A window without a limit
// whose ghosts would spin forever fails with a stall instead.
func (p *Partition) window(limit Time) {
	p.curLimit = limit
	for !p.stopped {
		if p.ring != nil && p.fireGhosts() {
			p.err = stallError(p.now, p.ghosts)
			p.errTime, p.errSeq = TimeInf, 0
			return
		}
		t, seq, r, ok := p.queue.pop(p.curLimit)
		if !ok {
			return
		}
		p.now = t
		p.handled++
		p.ev = Event{time: t, msg: r.msg, arg: r.arg}
		if err := r.h.Handle(&p.ev); err != nil {
			p.err = fmt.Errorf("sim: event at %d: %w", t, err)
			p.errTime = t
			p.errSeq = seq
			return
		}
	}
}
