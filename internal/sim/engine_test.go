package sim

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

type recordingHandler struct {
	times []Time
	err   error
}

func (h *recordingHandler) Handle(e *Event) error {
	h.times = append(h.times, e.Time())
	return h.err
}

func TestEngineRunsEventsInTimeOrder(t *testing.T) {
	e := NewEngine()
	p := e.Partition(0)
	h := &recordingHandler{}
	for _, tm := range []Time{5, 1, 9, 3, 3, 7, 0} {
		p.ScheduleTick(tm, h)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Time{0, 1, 3, 3, 5, 7, 9}
	if len(h.times) != len(want) {
		t.Fatalf("handled %d events, want %d", len(h.times), len(want))
	}
	for i, tm := range want {
		if h.times[i] != tm {
			t.Errorf("event %d at %d, want %d", i, h.times[i], tm)
		}
	}
	if e.Now() != 9 {
		t.Errorf("Now() = %d, want 9", e.Now())
	}
}

func TestEngineSameTimeEventsKeepScheduleOrder(t *testing.T) {
	e := NewEngine()
	p := e.Partition(0)
	var order []int
	mk := func(id int) Handler {
		return handlerFunc(func(*Event) error {
			order = append(order, id)
			return nil
		})
	}
	for i := 0; i < 10; i++ {
		p.ScheduleTick(4, mk(i))
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, id := range order {
		if id != i {
			t.Fatalf("order %v not FIFO at same timestamp", order)
		}
	}
}

type handlerFunc func(*Event) error

func (f handlerFunc) Handle(e *Event) error { return f(e) }

func TestEngineSchedulingInPastPanics(t *testing.T) {
	e := NewEngine()
	p := e.Partition(0)
	h := &recordingHandler{}
	p.ScheduleTick(10, h)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("scheduling in the past did not panic")
		}
	}()
	p.ScheduleTick(5, h)
}

func TestEnginePropagatesHandlerError(t *testing.T) {
	e := NewEngine()
	p := e.Partition(0)
	h := &recordingHandler{err: errors.New("boom")}
	p.ScheduleTick(1, h)
	if err := e.Run(); err == nil {
		t.Error("Run did not propagate handler error")
	}
}

func TestEnginePauseStopsDispatch(t *testing.T) {
	e := NewEngine()
	p := e.Partition(0)
	var count int
	h := handlerFunc(func(*Event) error {
		count++
		p.Pause()
		return nil
	})
	p.ScheduleTick(1, h)
	p.ScheduleTick(2, h)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Fatalf("handled %d events before pause, want 1", count)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if count != 2 {
		t.Fatalf("handled %d events total, want 2", count)
	}
}

func TestEngineRunUntilLeavesFutureEvents(t *testing.T) {
	e := NewEngine()
	p := e.Partition(0)
	h := &recordingHandler{}
	for _, tm := range []Time{1, 5, 10, 15} {
		p.ScheduleTick(tm, h)
	}
	if err := e.RunUntil(10); err != nil {
		t.Fatal(err)
	}
	if len(h.times) != 3 {
		t.Fatalf("handled %d events by t=10, want 3", len(h.times))
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", e.Pending())
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(h.times) != 4 {
		t.Fatalf("handled %d events after resume, want 4", len(h.times))
	}
}

// Property: for any set of event times, the engine dispatches them in
// non-decreasing order and handles exactly as many as scheduled.
func TestEngineOrderingProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		e := NewEngine()
		p := e.Partition(0)
		h := &recordingHandler{}
		for _, r := range raw {
			p.ScheduleTick(Time(r), h)
		}
		if err := e.Run(); err != nil {
			return false
		}
		if len(h.times) != len(raw) {
			return false
		}
		for i := 1; i < len(h.times); i++ {
			if h.times[i] < h.times[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestTickerCoalescesDuplicateRequests(t *testing.T) {
	e := NewEngine()
	p := e.Partition(0)
	var ticks []Time
	var tk *Ticker
	tk = NewTicker(p, handlerFunc(func(ev *Event) error {
		ticks = append(ticks, ev.Time())
		return nil
	}))
	tk.TickLater(0)
	tk.TickLater(0)
	tk.TickLater(0)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(ticks) != 1 || ticks[0] != 1 {
		t.Fatalf("ticks = %v, want exactly [1]", ticks)
	}
}

func TestTickerEarlierRequestSupersedesLater(t *testing.T) {
	e := NewEngine()
	p := e.Partition(0)
	var ticks []Time
	tk := NewTicker(p, handlerFunc(func(ev *Event) error {
		ticks = append(ticks, ev.Time())
		return nil
	}))
	tk.TickAt(10)
	tk.TickAt(3) // should win
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(ticks) != 1 || ticks[0] != 3 {
		t.Fatalf("ticks = %v, want exactly [3]", ticks)
	}
}

func TestTickerRescheduleFromHandler(t *testing.T) {
	e := NewEngine()
	p := e.Partition(0)
	var ticks []Time
	var tk *Ticker
	tk = NewTicker(p, handlerFunc(func(ev *Event) error {
		ticks = append(ticks, ev.Time())
		if len(ticks) < 5 {
			tk.TickLater(ev.Time())
		}
		return nil
	}))
	tk.TickAt(1)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Time{1, 2, 3, 4, 5}
	if len(ticks) != len(want) {
		t.Fatalf("ticks = %v, want %v", ticks, want)
	}
	for i := range want {
		if ticks[i] != want[i] {
			t.Fatalf("ticks = %v, want %v", ticks, want)
		}
	}
}

// Property: under random interleavings of TickAt requests issued from inside
// and outside handlers, the ticker never fires twice at one timestamp.
func TestTickerNeverDoubleFiresProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 100; trial++ {
		e := NewEngine()
		p := e.Partition(0)
		fired := map[Time]int{}
		var tk *Ticker
		tk = NewTicker(p, handlerFunc(func(ev *Event) error {
			fired[ev.Time()]++
			if rng.Intn(2) == 0 {
				tk.TickAt(ev.Time() + Time(rng.Intn(5)+1))
			}
			return nil
		}))
		for i := 0; i < 20; i++ {
			tk.TickAt(e.Now() + Time(rng.Intn(50)+1))
			if err := e.RunUntil(e.Now() + Time(rng.Intn(60))); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		for tm, n := range fired {
			if n > 1 {
				t.Fatalf("trial %d: ticker fired %d times at t=%d", trial, n, tm)
			}
		}
	}
}

// BenchmarkEngineThroughput measures raw event dispatch rate — the number
// the whole simulator's wall-clock cost scales with.
func BenchmarkEngineThroughput(b *testing.B) {
	e := NewEngine()
	p := e.Partition(0)
	h := handlerFunc(func(*Event) error { return nil })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Schedule(e.Now()+Time(i%64), h, nil, i)
		if i%1024 == 1023 {
			if err := e.Run(); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}
