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
	Part      *Partition
	Handler   Handler
	Freq      Time // cycles between ticks; 1 = every cycle
	nextAsked Time
	hasAsked  bool
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

// tickerTrampoline filters stale tick events: only the event matching the
// live request fires the handler, and the pending flag is cleared first so
// the handler can request the next tick from inside Handle.
type tickerTrampoline struct{ t *Ticker }

func (tt tickerTrampoline) Handle(e *Event) error {
	if !tt.t.hasAsked || tt.t.nextAsked != e.Time() {
		return nil // superseded or duplicate request; the live one handles it
	}
	tt.t.hasAsked = false
	return tt.t.Handler.Handle(e)
}
