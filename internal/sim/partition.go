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

	// tick is reused across ScheduleTick dispatches so handling a
	// lightweight tick allocates nothing.
	tick TickEvent

	// Window-scheduling state. curLimit is the exclusive bound the current
	// window dispatches under; in a lone-partition dynamic window (dynamic
	// set by the engine) the partition's own Remote emissions collapse it,
	// so the dispatch loop re-reads it every iteration.
	curLimit Time
	dynamic  bool
}

// Engine returns the engine this partition belongs to.
func (p *Partition) Engine() *Engine { return p.eng }

// Index returns the partition's index within its engine.
func (p *Partition) Index() int { return p.idx }

// Now returns the partition's current simulated time.
func (p *Partition) Now() Time { return p.now }

// Pending returns the number of events waiting in this partition's queue.
func (p *Partition) Pending() int { return len(p.queue) }

// nextSeq assigns the next partition-striped sequence number.
func (p *Partition) nextSeq() uint64 {
	p.localSeq++
	return p.localSeq*uint64(len(p.eng.parts)) + uint64(p.idx)
}

// enqueue is the single entry point into the queue: past-check, sequence
// assignment, accounting, push.
func (p *Partition) enqueue(t Time, evt Event, h Handler) {
	if t < p.now {
		panic(fmt.Sprintf("sim: scheduling event at %d before now %d", t, p.now))
	}
	p.scheduled++
	p.queue.push(queuedEvent{time: t, seq: p.nextSeq(), evt: evt, h: h})
}

// enqueueStamped queues a cross-partition event whose sequence number was
// assigned by the emitting partition. Striped numbering keeps foreign stamps
// disjoint from local ones, and because the stamp is fixed at emission time,
// the (time, seq) order — and therefore every run's behaviour — is
// independent of window placement.
func (p *Partition) enqueueStamped(t Time, seq uint64, evt Event) {
	if t < p.now {
		panic(fmt.Sprintf("sim: merging remote event at %d before now %d", t, p.now))
	}
	p.scheduled++
	p.queue.push(queuedEvent{time: t, seq: seq, evt: evt})
}

// Schedule adds an event to this partition's queue. It panics if the event
// is in the partition's past. Events at the same timestamp run in the order
// they were scheduled.
func (p *Partition) Schedule(evt Event) {
	p.enqueue(evt.Time(), evt, evt.Handler())
}

// ScheduleTick queues a lightweight tick for h at time t without allocating:
// only the handler is stored, and dispatch reuses a per-partition TickEvent.
// Ticks share the sequence space with Schedule, so the FIFO-at-equal-time
// guarantee holds across both.
func (p *Partition) ScheduleTick(t Time, h Handler) {
	p.enqueue(t, nil, h)
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
	for len(p.queue) > 0 && !p.stopped {
		if p.queue[0].time >= p.curLimit {
			return
		}
		next := p.queue.pop()
		p.now = next.time
		p.handled++

		var err error
		if next.evt != nil {
			err = next.evt.Handler().Handle(next.evt)
		} else {
			p.tick = TickEvent{NewEventBase(next.time, next.h)}
			err = next.h.Handle(&p.tick)
		}
		if err != nil {
			p.err = fmt.Errorf("sim: event at %d: %w", next.time, err)
			p.errTime = next.time
			p.errSeq = next.seq
			return
		}
	}
}
