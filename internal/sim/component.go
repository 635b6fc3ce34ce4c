package sim

// Component is a hardware block in the simulated system. Components own
// ports and react to events (including ticks) scheduled on the engine.
type Component interface {
	Handler
	// Name returns the hierarchical name of the component, e.g.
	// "GPU1.L2_3".
	Name() string
	// NotifyRecv is called by a port when a message becomes available on
	// it. Implementations typically request a tick.
	NotifyRecv(now Time, port *Port)
	// NotifyPortFree is called by a connection when a previously-full
	// output path can accept traffic again.
	NotifyPortFree(now Time, port *Port)
}

// ComponentBase carries the name plumbing shared by all components.
type ComponentBase struct {
	name string
}

// NewComponentBase creates a ComponentBase with the given name.
func NewComponentBase(name string) ComponentBase {
	return ComponentBase{name: name}
}

// Name returns the component name.
func (c *ComponentBase) Name() string { return c.name }

// Ticker schedules ticks for a component, coalescing duplicate requests so
// each component runs at most once per cycle. Embed one per component and
// call TickLater whenever there may be work to do.
type Ticker struct {
	Part    *Partition
	Handler Handler
	Freq    Time // cycles between ticks; 1 = every cycle
	// Check, when set, runs on every ghost tick (see TickQuiet) in poison
	// builds: a read-only assertion that the tick the ghost stands for
	// would indeed have been quiet.
	Check     func(now Time)
	nextAsked Time
	hasAsked  bool

	// Ghost state (see TickQuiet): while ghost is set, the pending request
	// (nextAsked, seq) lives in the partition's ghost ring, linked through
	// prev and next, instead of in the event queue, and every tick before
	// until is promised quiet.
	ghost      bool
	seq        uint64
	until      Time
	prev, next *Ticker
}

// NewTicker creates a Ticker driving handler h on partition p.
func NewTicker(p *Partition, h Handler) *Ticker {
	return &Ticker{Part: p, Handler: h, Freq: 1}
}

// TickLater schedules a tick for the next cycle if one is not already
// pending.
func (t *Ticker) TickLater(now Time) {
	t.TickAt(now + t.Freq)
}

// TickNow schedules a tick for the current cycle (used when reacting to a
// delivery that happened this cycle).
func (t *Ticker) TickNow(now Time) {
	t.TickAt(now)
}

// TickAt schedules a tick at an absolute cycle, unless an earlier or equal
// tick is already pending.
func (t *Ticker) TickAt(when Time) {
	if t.ghost {
		t.materialize()
	}
	if t.hasAsked && t.nextAsked <= when {
		return
	}
	t.hasAsked = true
	t.nextAsked = when
	// tickerTrampoline is a single-pointer struct, so converting it to
	// Handler is a direct interface — together with the partition's reused
	// Event this makes a tick request allocation-free.
	t.Part.ScheduleTick(when, tickerTrampoline{t})
}

// TickQuiet is TickLater(now) plus a promise: every tick before until is
// quiet — the handler would change nothing but re-arm with TickLater —
// unless the ticker is touched first (any TickAt, TickNow or TickLater, or
// a stale earlier request firing at the pending tick's time). now must be
// the partition's current time, as inside the handler.
//
// The request takes its sequence number and counts as scheduled exactly as
// TickLater's would, but it becomes a ghost in the partition's ring instead
// of a queue record. The partition fires each promised tick in its (time,
// seq) slot with the same accounting a dispatched quiet tick has (clock,
// handled count, the re-arm's sequence number and scheduled count) without
// calling the handler, and the tick at until and later are ordinary
// requests again. A touch first puts the pending request back on the queue
// under its original key, so every run is the one TickLater would give.
// It falls back to TickLater when Freq is not 1, when until is the next
// cycle or earlier, when a request is already pending, or when now is not
// the partition's time.
func (t *Ticker) TickQuiet(now, until Time) {
	p := t.Part
	if t.Freq != 1 || now+1 >= until || t.hasAsked || now != p.now {
		t.TickLater(now)
		return
	}
	t.hasAsked, t.nextAsked = true, now+1
	t.until = until
	t.seq = p.nextSeq()
	p.scheduled++
	p.addGhost(t)
}

// materialize turns the ghost back into the queue record it stands for,
// under its original (time, seq) key; the request was counted when it was
// made.
func (t *Ticker) materialize() {
	t.Part.removeGhost(t)
	t.Part.queue.push(t.nextAsked, t.seq, record{h: tickerTrampoline{t}})
}

// tickerTrampoline filters stale tick events: only the event matching the
// live request fires the handler, and the pending flag is cleared first so
// the handler can request the next tick from inside Handle.
type tickerTrampoline struct{ t *Ticker }

func (tt tickerTrampoline) Handle(e *Event) error {
	t := tt.t
	if !t.hasAsked || t.nextAsked != e.Time() {
		return nil // superseded or duplicate request; the live one handles it
	}
	if t.ghost {
		// A stale request with an earlier seq stands in for the ghost due
		// at the same time, which then fires as a stale record itself.
		t.materialize()
	}
	t.hasAsked = false
	return t.Handler.Handle(e)
}
