// Package sim provides a deterministic discrete-event simulation kernel in
// the style of MGSim: an event engine, components that handle events, ports
// with bounded buffers, and connections that move messages between ports
// with configurable timing.
//
// Time is measured in integer cycles. The multi-GPU platform built on top of
// this package runs everything in a single 1 GHz clock domain, matching the
// configuration in the paper (Table VII), so one cycle corresponds to 1 ns.
//
// # Windowed execution
//
// The engine is split into partitions (one per GPU plus a hub for the shared
// fabric in the platform's use). Each partition owns a private event queue
// and clock; components belong to exactly one partition and schedule only on
// it. Cross-partition traffic travels over Remote links that declare a
// minimum latency at construction. Run advances the partitions window by
// window on the calling goroutine, in partition-index order inside each
// window; cross traffic lands directly in the destination queue, always at
// or past the current window's limit.
//
// Window widths adapt to traffic rather than tracking simulated time: a
// partition whose next event is at time h cannot emit anything that lands
// before h plus its cheapest outgoing link, so the window limit is the
// minimum of those bounds over every partition with pending work — idle and
// locally-busy stretches execute in one window instead of one window per
// minimum link latency. Each partition's bound costs O(1) while one of its
// cheapest links carries no next-send promise, so a window's limit costs a
// pass over the partitions, not over the links. When a single partition has
// work under the limit the engine widens its window dynamically as far as
// the other partitions' queued events (and the lone partition's own
// emissions, reflected through the link graph) allow.
//
// Event order inside a partition is the (time, seq) total order. Sequence
// numbers are partition-striped and assigned by the emitting partition — for
// cross-partition events, stamped by the source at emission time — so the
// order is a pure function of simulation content, never of window placement:
// a run's observable behaviour is byte-identical under adaptive and fixed
// windows.
//
// # Event queue
//
// Nearly every record lands within a few cycles of its partition's clock,
// so each partition's queue is a calendar wheel of one-cycle buckets, where
// pushing and popping such a record is O(1), in front of a 4-ary heap that
// holds only the records due past the wheel's span (see eventQueue). Both
// keep the (time, seq) order, and a pop takes the earlier of their heads.
//
// Next to the queue, each partition keeps a ring of ghost ticks: requests a
// Ticker made with TickQuiet, promising that its ticks until some time are
// quiet. A ghost takes its sequence number and counts as scheduled like any
// tick request, but it is fired in its (time, seq) slot by arithmetic —
// clock, handled and scheduled counts, the re-arm's sequence number —
// instead of a queue push, a pop and a handler call. Touching the ticker
// first puts the ghost's record back on the queue under its original key,
// so every run is the one plain TickLater re-arms would give. Head times
// and pending counts include the ring, so window limits cannot tell the
// difference either.
//
// # Ports and connections
//
// A port holds the one connection plugged into it, and that field is the
// only record of the attachment: a DirectConnection keeps no port set and
// refuses a send to a destination plugged in elsewhere, and the fabric finds
// a destination's endpoint through the port's link. Messages a
// DirectConnection cannot deliver because the destination buffer is full
// wait on the destination port, which resumes them in order as Retrieve
// frees space.
package sim

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"mgpucompress/internal/metrics"
)

// Time is a point in simulated time, in cycles.
type Time uint64

// TimeInf is a sentinel for "never".
const TimeInf Time = math.MaxUint64

// Event is the value a partition hands to a handler when a queued record
// comes due: its time plus the record's message and integer payloads. Each
// partition reuses one Event across dispatches, so handlers read what they
// need during Handle and must not retain the pointer.
type Event struct {
	time Time
	msg  Msg
	arg  int
}

// Time returns when the event happens.
func (e *Event) Time() Time { return e.time }

// Msg returns the record's message payload (nil for ticks).
func (e *Event) Msg() Msg { return e.msg }

// Arg returns the record's integer payload (0 for ticks).
func (e *Event) Arg() int { return e.arg }

// Handler processes events. A component with several kinds of scheduled
// work tells them apart by handler: besides its own Handle (conventionally
// its tick), it schedules single-pointer trampoline types such as
// tickerTrampoline, which convert to a Handler without allocating.
type Handler interface {
	Handle(e *Event) error
}

// record is one unit of scheduled work: the handler to run and the payloads
// its Event will carry.
type record struct {
	h   Handler
	msg Msg
	arg int
}

// queueKey is one far-heap entry: the (time, seq) total-order key and the
// slab slot of its record. It holds no pointers, so heap moves are plain
// 24-byte copies with no write barriers and nothing for the garbage
// collector to scan.
type queueKey struct {
	time Time
	seq  uint64 // tie-breaker for determinism
	slot int
}

func (q queueKey) less(o queueKey) bool {
	if q.time != o.time {
		return q.time < o.time
	}
	return q.seq < o.seq
}

// wheelSlots is the calendar wheel's bucket count, one bucket per cycle. It
// is a power of two so a time maps to its bucket with a mask and the
// occupancy bitmap is one word. Nearly every record the simulator schedules
// lands within this many cycles of the partition's clock.
const (
	wheelSlots = 64
	wheelMask  = wheelSlots - 1
)

// wheelRec is a near record on the wheel: the record, its sequence number
// and the next slot of its bucket's list, or of the free list (slot 0 is the
// nil link). Its time is implied by its bucket.
type wheelRec struct {
	record
	seq  uint64
	next int32
}

// bucket is one cycle's list of wheel slots, in seq order.
type bucket struct{ head, tail int32 }

// eventQueue is a partition's pending work, popped in (time, seq) order. It
// is a calendar wheel (Brown, CACM 1988) in front of a 4-ary heap:
//
//   - A record less than wheelSlots cycles past the cursor goes on the
//     wheel, appended to its cycle's bucket. A record whose seq is below
//     the bucket tail's — a stamped cross-partition record, or a local one
//     queued behind such a record — walks the list to its place. An
//     occupancy bitmap finds the earliest non-empty bucket in one
//     instruction.
//   - A record further out goes to the far heap: pointer-free (time, seq,
//     slot) keys over a Slab of records, monomorphic and 4 children per
//     node.
//
// The cursor is the time of the last pop, which is the partition's clock;
// scheduling below it panics, so every wheel record lies within wheelSlots
// cycles past it and each bucket holds a single time. pop takes the smaller
// of the wheel's head and the heap's top, so a far record never migrates.
// Storage is reused through free lists, so once a partition has seen its
// peak depth, push and pop allocate nothing.
type eventQueue struct {
	cursor  Time
	occ     uint64 // bit i set: buckets[i] is non-empty
	near    int    // records on the wheel
	free    int32  // head of the wheel's free-slot list
	buckets [wheelSlots]bucket
	slots   []wheelRec

	keys []queueKey
	recs Slab[record]
}

// len returns the number of pending records.
func (q *eventQueue) len() int { return q.near + len(q.keys) }

// wheelHead returns the wheel's earliest time and its bucket; the wheel must
// be non-empty.
func (q *eventQueue) wheelHead() (Time, *bucket) {
	d := Time(bits.TrailingZeros64(bits.RotateLeft64(q.occ, -int(q.cursor&wheelMask))))
	t := q.cursor + d
	return t, &q.buckets[t&wheelMask]
}

// headTime returns the time of the earliest pending record, or TimeInf when
// the queue is empty.
func (q *eventQueue) headTime() Time {
	t := TimeInf
	if q.occ != 0 {
		t, _ = q.wheelHead()
	}
	if len(q.keys) > 0 && q.keys[0].time < t {
		t = q.keys[0].time
	}
	return t
}

// head returns the (time, seq) key of the earliest pending record, or
// TimeInf when the queue is empty.
func (q *eventQueue) head() (Time, uint64) {
	t, seq := TimeInf, uint64(0)
	if q.occ != 0 {
		var b *bucket
		t, b = q.wheelHead()
		seq = q.slots[b.head].seq
	}
	if len(q.keys) > 0 && q.keys[0].less(queueKey{time: t, seq: seq}) {
		t, seq = q.keys[0].time, q.keys[0].seq
	}
	return t, seq
}

// push queues r at time t with sequence number seq; t must not be below the
// cursor.
func (q *eventQueue) push(t Time, seq uint64, r record) {
	if t-q.cursor >= wheelSlots {
		q.pushFar(queueKey{time: t, seq: seq, slot: q.recs.Put(r)})
		return
	}
	s := q.free
	if s == 0 {
		if len(q.slots) == 0 {
			q.slots = append(q.slots, wheelRec{}) // slot 0: the nil link
		}
		s = int32(len(q.slots))
		q.slots = append(q.slots, wheelRec{})
	}
	w := &q.slots[s]
	q.free = w.next
	w.record, w.seq, w.next = r, seq, 0
	q.near++
	i := t & wheelMask
	b := &q.buckets[i]
	switch {
	case b.head == 0:
		b.head, b.tail = s, s
		q.occ |= 1 << i
	case q.slots[b.tail].seq < seq:
		q.slots[b.tail].next = s
		b.tail = s
	default:
		// Sequence numbers are striped across partitions, so a stamped
		// record can carry a seq below the tail's, and a local one can
		// follow a stamped tail; insert before the first larger one.
		prev, cur := int32(0), b.head
		for q.slots[cur].seq < seq {
			prev, cur = cur, q.slots[cur].next
		}
		q.slots[s].next = cur
		if prev == 0 {
			b.head = s
		} else {
			q.slots[prev].next = s
		}
	}
}

// pop removes the earliest pending record if its time is below limit and
// returns its time, seq and record; ok is false when there is none. The
// record's storage is zeroed (releasing the handler and message) and
// recycled.
func (q *eventQueue) pop(limit Time) (t Time, seq uint64, r record, ok bool) {
	if q.occ != 0 {
		wt, b := q.wheelHead()
		s := b.head
		w := &q.slots[s]
		if len(q.keys) == 0 || wt < q.keys[0].time || wt == q.keys[0].time && w.seq < q.keys[0].seq {
			if wt >= limit {
				return 0, 0, record{}, false
			}
			seq, r = w.seq, w.record
			if b.head = w.next; b.head == 0 {
				b.tail = 0
				q.occ &^= 1 << (wt & wheelMask)
			}
			*w = wheelRec{next: q.free}
			q.free = s
			q.near--
			q.cursor = wt
			return wt, seq, r, true
		}
	}
	if len(q.keys) == 0 || q.keys[0].time >= limit {
		return 0, 0, record{}, false
	}
	k := q.popFar()
	q.cursor = k.time
	return k.time, k.seq, q.recs.Take(k.slot), true
}

// pushFar sifts k into the far heap.
func (q *eventQueue) pushFar(k queueKey) {
	h := append(q.keys, k)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !k.less(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = k
	q.keys = h
}

// popFar removes and returns the far heap's minimum key.
func (q *eventQueue) popFar() queueKey {
	h := q.keys
	top := h[0]
	last := h[len(h)-1]
	h = h[:len(h)-1]
	n := len(h)
	if n > 0 {
		i := 0
		for {
			c := 4*i + 1
			if c >= n {
				break
			}
			m := c
			end := c + 4
			if end > n {
				end = n
			}
			for j := c + 1; j < end; j++ {
				if h[j].less(h[m]) {
					m = j
				}
			}
			if !h[m].less(last) {
				break
			}
			h[i] = h[m]
			i = m
		}
		h[i] = last
	}
	q.keys = h
	return top
}

// crossLink is a cross-partition link as the window scheduler scans it:
// the endpoints' indices and the latency copied out of the Remote, which is
// read only for its next-send bound. prepare sorts the list by source, so
// each partition's links are one range of it.
type crossLink struct {
	src, dst int
	latency  Time
	r        *Remote
}

// Option configures an Engine at construction.
type Option func(*Engine)

// WithPartitions splits the engine into n independently clocked event queues
// (default 1). Components are built against one Partition each; traffic
// between partitions must travel over Remote links (see Engine.Link).
func WithPartitions(n int) Option {
	if n < 1 {
		panic("sim: WithPartitions needs at least 1 partition")
	}
	return func(e *Engine) { e.npart = n }
}

// WithLookahead pins every window to a fixed width instead of the default
// adaptive widening, reproducing the classic conservative schedule whose
// window count tracks simulated time. A value larger than the minimum
// cross-partition link latency would break conservative safety, so Run
// panics on it; smaller values are safe (they only add windows). Results
// are byte-identical between fixed and adaptive windows — this option only
// exists as the reference schedule the window property tests compare
// against.
func WithLookahead(t Time) Option {
	if t == 0 {
		panic("sim: WithLookahead needs a nonzero window")
	}
	return func(e *Engine) { e.fixedLA = t }
}

// Engine drives the simulation: it owns the partitions, the cross-partition
// links, and the windowed run loop. Scheduling happens on Partitions, never
// on the Engine itself. Run/RunUntil must be called from host code (outside
// event handlers), one call at a time.
type Engine struct {
	parts []*Partition

	npart   int
	maxTime Time
	running bool

	// Window-scheduling inputs. Link appends to cross; prepare sorts it by
	// source, rebuilds dist and each partition's link summary from it at the
	// start of each Run (host code may add links between runs, never during
	// one) and checks fixedLA against the cheapest link.
	fixedLA Time        // nonzero: fixed window width (WithLookahead)
	cross   []crossLink // cross-partition links only (src != dst)
	dist    [][]Time    // all-pairs min cross-partition path latency (closure)

	// Window-scheduling telemetry, derived from each window's job list (the
	// partitions with work under its limit).
	windows     uint64
	barrierWins uint64
	serialWins  uint64
	crossMsgs   uint64
	evw         metrics.Distribution

	jobs  []*Partition // scratch: the current window's active partitions
	heads []Time       // scratch: each partition's head time, read once per window
}

// NewEngine creates an engine at time 0. With no options it has a single
// partition, which reproduces the classic single-queue discrete-event kernel
// exactly.
func NewEngine(opts ...Option) *Engine {
	e := &Engine{npart: 1, maxTime: TimeInf}
	for _, opt := range opts {
		opt(e)
	}
	e.parts = make([]*Partition, e.npart)
	for i := range e.parts {
		e.parts[i] = &Partition{eng: e, idx: i}
	}
	return e
}

// Partition returns partition i.
func (e *Engine) Partition(i int) *Partition { return e.parts[i] }

// Partitions returns the number of partitions.
func (e *Engine) Partitions() int { return len(e.parts) }

// Link declares a scheduling channel from src to dst whose events always run
// at least minLatency cycles after the source's current time. Cross-partition
// links (src != dst) bound how soon one partition can disturb another, which
// is what the window scheduler's adaptive limits are computed from. A link
// with src == dst is a convenience for components wired symmetrically against
// local and remote peers; it enforces the same latency floor but adds no
// synchronization. Links are declared from host code before or between
// runs: the window scheduler summarizes them when Run starts, so Link
// panics while Run is in progress.
func (e *Engine) Link(src, dst *Partition, minLatency Time) *Remote {
	if src.eng != e || dst.eng != e {
		panic("sim: Link across engines")
	}
	if e.running {
		panic("sim: Link while the engine runs")
	}
	if src != dst && minLatency == 0 {
		panic("sim: cross-partition link needs a nonzero minimum latency")
	}
	r := &Remote{src: src, dst: dst, latency: minLatency}
	if src != dst {
		e.cross = append(e.cross, crossLink{src: src.idx, dst: dst.idx, latency: minLatency, r: r})
	}
	return r
}

// Now returns the current simulated time: the furthest any partition has
// advanced. With one partition this is exactly the classic engine clock.
func (e *Engine) Now() Time {
	var now Time
	for _, p := range e.parts {
		if p.now > now {
			now = p.now
		}
	}
	return now
}

// EventCount returns the number of events handled so far, over all
// partitions.
func (e *Engine) EventCount() uint64 {
	var n uint64
	for _, p := range e.parts {
		n += p.handled
	}
	return n
}

// Pending returns the number of events waiting across all partitions.
func (e *Engine) Pending() int {
	n := 0
	for _, p := range e.parts {
		n += p.Pending()
	}
	return n
}

// SetMaxTime makes Run stop once simulated time would exceed the deadline.
// Events at exactly the deadline still run.
func (e *Engine) SetMaxTime(t Time) { e.maxTime = t }

// prepare rebuilds the window scheduler's link-graph summary. It sorts the
// cross links by source in place and records each partition's range of
// them, its cheapest outgoing latency and how many links at that latency
// are still unpromised (see nextWindow). It also builds the all-pairs
// shortest-path closure over the cross-partition links (dist), with
// saturating arithmetic. dist bounds how soon any causal chain starting at
// one partition can reach another, which is what lets a lone partition run
// far ahead of the fixed window. K is small (GPU
// count plus one), so the Floyd–Warshall closure is negligible next to a
// single window's work.
func (e *Engine) prepare() {
	slices.SortStableFunc(e.cross, func(a, b crossLink) int { return cmp.Compare(a.src, b.src) })
	for _, p := range e.parts {
		p.linkLo, p.linkHi, p.minLat, p.open = 0, 0, TimeInf, 0
	}
	for i, l := range e.cross {
		p := e.parts[l.src]
		if p.linkHi == p.linkLo {
			p.linkLo = i
		}
		p.linkHi = i + 1
		if l.latency < p.minLat {
			p.minLat, p.open = l.latency, 0
		}
		if l.latency == p.minLat && l.r.nextSend == 0 {
			p.open++
		}
	}
	k := len(e.parts)
	derived := TimeInf
	if len(e.dist) != k {
		e.dist = make([][]Time, k)
		for i := range e.dist {
			e.dist[i] = make([]Time, k)
		}
	}
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			e.dist[i][j] = TimeInf
		}
		e.dist[i][i] = 0
	}
	if len(e.heads) != k {
		e.heads = make([]Time, k)
	}
	for _, l := range e.cross {
		if l.latency < derived {
			derived = l.latency
		}
		if l.latency < e.dist[l.src][l.dst] {
			e.dist[l.src][l.dst] = l.latency
		}
	}
	for m := 0; m < k; m++ {
		for i := 0; i < k; i++ {
			if e.dist[i][m] == TimeInf {
				continue
			}
			for j := 0; j < k; j++ {
				if via := satAdd(e.dist[i][m], e.dist[m][j]); via < e.dist[i][j] {
					e.dist[i][j] = via
				}
			}
		}
	}
	if e.fixedLA > derived {
		panic(fmt.Sprintf("sim: explicit lookahead %d exceeds minimum link latency %d", e.fixedLA, derived))
	}
}

// Run processes events in time order until every queue drains, a partition
// pauses, or the max-time deadline passes. It returns the first handler
// error in the global (time, seq) order. Events past the deadline stay
// queued so a later Run with a larger deadline can resume.
func (e *Engine) Run() error {
	if e.running {
		panic("sim: Run called re-entrantly")
	}
	for _, p := range e.parts {
		p.stopped = false
		p.err = nil
	}
	e.running = true
	defer func() { e.running = false }()
	e.prepare()

	for {
		limit, ok, err := e.nextWindow()
		if !ok {
			return err
		}
		e.runWindow(limit)
		if err := e.windowError(); err != nil {
			return err
		}
		for _, p := range e.parts {
			if p.stopped {
				return nil
			}
		}
	}
}

// RunUntil runs events up to and including time t.
func (e *Engine) RunUntil(t Time) error {
	saved := e.maxTime
	e.maxTime = t
	err := e.Run()
	e.maxTime = saved
	return err
}

// nextWindow computes the exclusive upper bound of the next window, or
// reports false when nothing runnable remains under the deadline. Without a
// deadline, a run whose queues are all empty and whose ghosts are all
// promised quiet forever can never end; nextWindow reports false with a
// stall error for it.
//
// Adaptive rule (default): the window is bounded per cross link, not per
// simulated cycle. A link whose source's head event is at time h carries
// nothing that arrives before h plus the link latency — the source is asleep
// until h — and never anything before the link's next-send bound, which the
// owning component may raise when its committed state rules out earlier
// traffic (a fabric bus mid-transfer, for example). The window extends to
// the minimum of those per-link bounds; events created inside the window
// land at or past the limit, never inside it. Every bound is at least
// head+latency, so the adaptive window is never narrower than the fixed
// one, and it grows without bound while traffic stays local.
//
// The minimum is taken per source partition. No link of a source with head
// h bounds below h plus its cheapest latency minLat, and an unpromised link
// at minLat bounds exactly there; so while the source has one (open > 0),
// its bound is h+minLat without a look at its links. Only a source whose
// cheapest links all carry promises scans its own range (sourceBound).
//
// Each partition's head time is read once, into heads, which the bound
// here and runWindow's job selection and wideLimit then share: nothing
// dispatches between them.
func (e *Engine) nextWindow() (Time, bool, error) {
	adaptive := e.fixedLA == 0
	t, limit, live, forever := TimeInf, TimeInf, false, 0
	for i, p := range e.parts {
		h := p.headTime()
		e.heads[i] = h
		if h < t {
			t = h
		}
		if adaptive && h != TimeInf {
			b := satAdd(h, p.minLat)
			if p.open == 0 {
				b = e.sourceBound(p, h)
			}
			if b < limit {
				limit = b
			}
		}
		live = live || p.queue.len() != 0 || p.forever != p.ghosts
		forever += p.forever
	}
	if t == TimeInf || t > e.maxTime {
		return 0, false, nil
	}
	if !live && e.maxTime == TimeInf {
		return 0, false, stallError(e.Now(), forever)
	}
	if !adaptive {
		limit = satAdd(t, e.fixedLA)
	} else if Poison {
		if ref := e.linkLimit(); ref != limit {
			panic(fmt.Sprintf("sim: per-partition window limit %d, all-links limit %d", limit, ref))
		}
	}
	if e.maxTime != TimeInf && limit > e.maxTime {
		limit = e.maxTime + 1 // events at exactly the deadline still run
	}
	return limit, true, nil
}

// sourceBound returns the earliest time anything p emits over its cross
// links can land, given its head time h: the minimum over its own links of
// max(h+latency, nextSend).
func (e *Engine) sourceBound(p *Partition, h Time) Time {
	b := TimeInf
	for i := p.linkLo; i < p.linkHi; i++ {
		l := &e.cross[i]
		lb := satAdd(h, l.latency)
		if ns := l.r.nextSend; ns > lb {
			lb = ns
		}
		if lb < b {
			b = lb
		}
	}
	return b
}

// linkLimit is the adaptive limit with every source scanning its own links,
// the O(1) bound of an unpromised cheapest link never taken. Poison builds
// check nextWindow's limit against it.
func (e *Engine) linkLimit() Time {
	limit := TimeInf
	for i, p := range e.parts {
		if h := e.heads[i]; h != TimeInf {
			limit = min(limit, e.sourceBound(p, h))
		}
	}
	return limit
}

// runWindow advances every partition with work under the limit, in
// partition-index order. Events emitted inside the window land at or past
// its limit, so no partition can disturb another's window and the (time,
// seq) order fixes the result.
//
// Windows with a single active partition run it under a dynamically widened
// limit (see wideLimit) and count as serial; windows with several count as
// barriers.
func (e *Engine) runWindow(limit Time) {
	e.jobs = e.jobs[:0]
	var before uint64
	for i, p := range e.parts {
		if e.heads[i] < limit {
			e.jobs = append(e.jobs, p)
			before += p.handled
		}
	}
	e.windows++
	if len(e.jobs) == 1 {
		e.serialWins++
		p := e.jobs[0]
		if e.fixedLA == 0 {
			limit = e.wideLimit(p, limit)
			p.dynamic = true
		}
		p.window(limit)
		p.dynamic = false
	} else {
		e.barrierWins++
		for _, p := range e.jobs {
			p.window(limit)
		}
	}
	// Only the jobs dispatch, so their handled counts give the window's
	// events without scanning every partition.
	var after uint64
	for _, p := range e.jobs {
		after += p.handled
	}
	e.evw.Observe(float64(after - before))
}

// wideLimit returns the dynamic window bound for a lone active partition p:
// the earliest time any other partition's queued work could reach p through
// the link graph. The first hop of every such chain honours both the source's
// head event and the link's next-send bound; the rest of the chain is bounded
// by the latency closure. While p runs, its own emissions tighten the bound
// further (Remote.Schedule collapses p's curLimit through the same closure),
// so nothing p does can be disturbed retroactively. With no other pending
// work and no emissions, p simply runs to completion in one window.
func (e *Engine) wideLimit(p *Partition, limit Time) Time {
	w := TimeInf
	for i := range e.cross {
		l := &e.cross[i]
		if l.src == p.idx {
			continue
		}
		h := e.heads[l.src]
		if h == TimeInf {
			continue
		}
		b := satAdd(h, l.latency)
		if ns := l.r.nextSend; ns > b {
			b = ns
		}
		if b = satAdd(b, e.dist[l.dst][p.idx]); b < w {
			w = b
		}
	}
	if e.maxTime != TimeInf && w > e.maxTime {
		w = e.maxTime + 1
	}
	if w < limit {
		return limit
	}
	return w
}

// windowError picks the earliest failure of the last window in the global
// (time, seq) order, matching what a fully serial run would have hit first.
func (e *Engine) windowError() error {
	var best *Partition
	for _, p := range e.parts {
		if p.err == nil {
			continue
		}
		if best == nil || p.errTime < best.errTime ||
			(p.errTime == best.errTime && p.errSeq < best.errSeq) {
			best = p
		}
	}
	if best == nil {
		return nil
	}
	return best.err
}

// RegisterMetrics exposes the engine's event-loop and window-scheduler
// counters under prefix (conventionally "sim"). The closures aggregate over
// partitions at snapshot time, so a snapshot always reflects the state at
// snapshot time. Every value is a pure function of simulation content:
// barrier_spins counts windows with more than one active partition,
// serial_fallback_windows those with exactly one, and remote_msgs the events
// scheduled across partitions while the engine ran.
func (e *Engine) RegisterMetrics(reg *metrics.Registry, prefix string) {
	reg.CounterFunc(prefix+"/cycles", func() uint64 { return uint64(e.Now()) })
	reg.CounterFunc(prefix+"/events_handled", func() uint64 { return e.EventCount() })
	reg.CounterFunc(prefix+"/events_scheduled", func() uint64 {
		var n uint64
		for _, p := range e.parts {
			n += p.scheduled
		}
		return n
	})
	reg.GaugeFunc(prefix+"/events_pending", func() float64 { return float64(e.Pending()) })
	reg.CounterFunc(prefix+"/windows", func() uint64 { return e.windows })
	reg.CounterFunc(prefix+"/remote_msgs", func() uint64 { return e.crossMsgs })
	reg.CounterFunc(prefix+"/barrier_spins", func() uint64 { return e.barrierWins })
	reg.CounterFunc(prefix+"/serial_fallback_windows", func() uint64 { return e.serialWins })
	reg.DistributionFunc(prefix+"/events_per_window", e.evw.Value)
}
