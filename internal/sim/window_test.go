package sim

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"mgpucompress/internal/metrics"
)

// chatty is a two-partition ping-pong component: each arrival mixes local
// state and sends the ball back over the link after the given think time.
type chatty struct {
	part  *Partition
	out   *Remote
	peer  *chatty
	left  int
	think Time
	seen  []Time
}

func (c *chatty) Handle(e *Event) error {
	c.seen = append(c.seen, e.Time())
	if c.left == 0 {
		return nil
	}
	c.left--
	t := e.Time() + c.out.MinLatency() + c.think
	c.out.Schedule(t, c.peer, nil, 0)
	return nil
}

// newPingPong wires two partitions with opposing links of the given latency.
func newPingPong(latency, think Time, rounds int, opts ...Option) (*Engine, *chatty, *chatty) {
	e := NewEngine(append([]Option{WithPartitions(2)}, opts...)...)
	a := &chatty{part: e.Partition(0), left: rounds, think: think}
	b := &chatty{part: e.Partition(1), left: rounds, think: think}
	a.out = e.Link(a.part, b.part, latency)
	b.out = e.Link(b.part, a.part, latency)
	a.peer, b.peer = b, a
	a.part.ScheduleTick(0, a)
	return e, a, b
}

func windowSnapshot(e *Engine) metrics.Snapshot {
	reg := metrics.NewRegistry()
	e.RegisterMetrics(reg, "sim")
	return reg.Snapshot()
}

func snapshotJSON(t *testing.T, s metrics.Snapshot) string {
	t.Helper()
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestWindowTelemetryCounts checks the window-scheduler counters on a run
// whose structure is known exactly: windows splits into barrier and serial
// windows, every cross message is counted, and the events-per-window
// distribution covers every handled event.
func TestWindowTelemetryCounts(t *testing.T) {
	e, a, b := newPingPong(3, 10, 8)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	snap := windowSnapshot(e)
	windows := snap.Value("sim/windows")
	serial := snap.Value("sim/serial_fallback_windows")
	barrier := snap.Value("sim/barrier_spins")
	if windows == 0 {
		t.Fatal("no windows recorded")
	}
	if serial+barrier != windows {
		t.Errorf("serial %v + barrier %v != windows %v", serial, barrier, windows)
	}
	// A ping-pong never has both partitions active: every window is serial.
	if barrier != 0 {
		t.Errorf("ping-pong recorded %v barrier windows, want 0", barrier)
	}
	if got, want := snap.Value("sim/remote_msgs"), float64(16); got != want {
		t.Errorf("remote_msgs = %v, want %v", got, want)
	}
	ev, ok := snap.Get("sim/events_per_window")
	if !ok || ev.Dist == nil {
		t.Fatal("sim/events_per_window distribution missing")
	}
	if got, want := ev.Dist.Sum, float64(len(a.seen)+len(b.seen)); got != want {
		t.Errorf("events_per_window sum = %v, want %v (all handled events)", got, want)
	}
	if ev.Dist.Count != uint64(windows) {
		t.Errorf("events_per_window count = %d, want %v windows", ev.Dist.Count, windows)
	}
}

// TestWindowTelemetryStableAcrossPolicy locks the byte-stability of the
// scheduler telemetry: the rendered snapshot must be identical across
// repeated runs, and — window counters aside — the simulation metrics must
// be identical between adaptive and fixed window policies.
func TestWindowTelemetryStableAcrossPolicy(t *testing.T) {
	run := func(opts ...Option) (metrics.Snapshot, []Time) {
		e, a, _ := newPingPong(3, 10, 8, opts...)
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return windowSnapshot(e), a.seen
	}
	ref, refSeen := run()
	refText := snapshotJSON(t, ref)
	snap, seen := run()
	if got := snapshotJSON(t, snap); got != refText {
		t.Errorf("rerun snapshot diverged:\n%s\n--- want ---\n%s", got, refText)
	}
	if fmt.Sprint(seen) != fmt.Sprint(refSeen) {
		t.Errorf("rerun dispatched %v, first run %v", seen, refSeen)
	}

	// Fixed lookahead must not change any non-scheduler metric or the
	// dispatched event stream.
	fixed, fixedSeen := run(WithLookahead(3))
	for _, path := range []string{"sim/cycles", "sim/events_handled", "sim/events_scheduled", "sim/remote_msgs"} {
		if got, want := fixed.Value(path), ref.Value(path); got != want {
			t.Errorf("fixed lookahead changed %s: %v != %v", path, got, want)
		}
	}
	if fmt.Sprint(fixedSeen) != fmt.Sprint(refSeen) {
		t.Errorf("fixed lookahead dispatched %v, adaptive %v", fixedSeen, refSeen)
	}
}

// TestAdaptiveWindowsNeverExceedFixed pins the widening direction: the
// adaptive scheduler must never cross more barriers than the fixed
// baseline on the same simulation.
func TestAdaptiveWindowsNeverExceedFixed(t *testing.T) {
	eA, _, _ := newPingPong(3, 50, 20)
	if err := eA.Run(); err != nil {
		t.Fatal(err)
	}
	eF, _, _ := newPingPong(3, 50, 20, WithLookahead(3))
	if err := eF.Run(); err != nil {
		t.Fatal(err)
	}
	wa := windowSnapshot(eA).Value("sim/windows")
	wf := windowSnapshot(eF).Value("sim/windows")
	if wa == 0 || wf == 0 {
		t.Fatal("expected nonzero window counts")
	}
	if wa > wf {
		t.Errorf("adaptive windows %v > fixed windows %v", wa, wf)
	}
}

// localChain schedules a dense run of local events, then stops.
type localChain struct {
	part *Partition
	left int
}

func (c *localChain) Handle(e *Event) error {
	if c.left > 0 {
		c.left--
		c.part.ScheduleTick(e.Time()+1, c)
	}
	return nil
}

// TestLonePartitionRunsInOneWindow is the barrier-elision gate: a single
// busy partition (with a second partition linked but quiet until far in the
// future) must execute its entire dense chain in a handful of serial
// windows, not one window per link latency.
func TestLonePartitionRunsInOneWindow(t *testing.T) {
	e := NewEngine(WithPartitions(2))
	busy := &localChain{part: e.Partition(0), left: 5000}
	quiet := &localChain{part: e.Partition(1)}
	e.Link(e.Partition(0), e.Partition(1), 2)
	e.Link(e.Partition(1), e.Partition(0), 2)
	busy.part.ScheduleTick(0, busy)
	quiet.part.ScheduleTick(10000, quiet)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	snap := windowSnapshot(e)
	if w := snap.Value("sim/windows"); w > 4 {
		t.Errorf("lone dense chain used %v windows, want <= 4", w)
	}
	if b := snap.Value("sim/barrier_spins"); b != 0 {
		t.Errorf("lone dense chain crossed %v barriers, want 0", b)
	}
}

// buildTwoChains wires two partitions that both run dense local chains and
// never send, with a single cross link from partition 1 to partition 0. That
// link is the only window bound: without a next-send promise it caps every
// window at partition 1's head event plus the link latency.
func buildTwoChains(n int) (*Engine, *Remote) {
	e := NewEngine(WithPartitions(2))
	a := &localChain{part: e.Partition(0), left: n}
	b := &localChain{part: e.Partition(1), left: n}
	back := e.Link(e.Partition(1), e.Partition(0), 2)
	a.part.ScheduleTick(0, a)
	b.part.ScheduleTick(0, b)
	return e, back
}

// TestNextSendBoundWidensWindow checks the promise plumbing end to end:
// raising a link's next-send bound lets windows run past the source
// partition's head event.
func TestNextSendBoundWidensWindow(t *testing.T) {
	base, _ := buildTwoChains(1000)
	if err := base.Run(); err != nil {
		t.Fatal(err)
	}
	baseWindows := windowSnapshot(base).Value("sim/windows")
	if baseWindows < 400 {
		t.Fatalf("expected narrow windows without a promise, got %v", baseWindows)
	}

	// Same topology, but the link promises silence forever — which holds,
	// since partition 1 never sends. With the only bound lifted the whole run
	// collapses into one window.
	promised, back := buildTwoChains(1000)
	back.SetNextSend(TimeInf)
	if err := promised.Run(); err != nil {
		t.Fatal(err)
	}
	promisedWindows := windowSnapshot(promised).Value("sim/windows")
	if promisedWindows > 4 {
		t.Errorf("promised link used %v windows (baseline %v), want <= 4", promisedWindows, baseWindows)
	}
}

// TestNextSendBoundViolationPanics makes sure a component cannot silently
// break its own promise.
func TestNextSendBoundViolationPanics(t *testing.T) {
	e := NewEngine(WithPartitions(2))
	r := e.Link(e.Partition(0), e.Partition(1), 2)
	r.SetNextSend(100)
	sink := &localChain{part: e.Partition(1)}
	breaker := &promiseBreaker{out: r, dst: sink}
	e.Partition(0).ScheduleTick(0, breaker)
	defer func() {
		rec := recover()
		if rec == nil {
			t.Fatal("expected a panic from the broken next-send bound")
		}
		if !strings.Contains(fmt.Sprint(rec), "next-send bound") {
			t.Fatalf("unexpected panic: %v", rec)
		}
	}()
	_ = e.Run()
}

type promiseBreaker struct {
	out *Remote
	dst Handler
}

func (p *promiseBreaker) Handle(e *Event) error {
	p.out.Schedule(e.Time()+2, p.dst, nil, 0)
	return nil
}
