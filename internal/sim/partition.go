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

// Pending returns the number of events waiting in this partition's queue.
func (p *Partition) Pending() int { return p.queue.len() }

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
// of the other partitions conservative.
func (p *Partition) window(limit Time) {
	p.curLimit = limit
	for p.queue.len() > 0 && !p.stopped {
		if p.queue.keys[0].time >= p.curLimit {
			return
		}
		next, r := p.queue.pop()
		p.now = next.time
		p.handled++
		p.ev = Event{time: next.time, msg: r.msg, arg: r.arg}
		if err := r.h.Handle(&p.ev); err != nil {
			p.err = fmt.Errorf("sim: event at %d: %w", next.time, err)
			p.errTime = next.time
			p.errSeq = next.seq
			return
		}
	}
}
