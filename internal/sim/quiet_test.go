package sim

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"mgpucompress/internal/metrics"
)

// The ghost-ticker contract (Ticker.TickQuiet): a ticker that re-arms with
// TickQuiet instead of TickLater must give the same run — the same real
// handler calls in the same order, the same event and schedule counts, the
// same windows — as long as the ticks it promised quiet are quiet. Each
// scenario below runs twice, once with every re-arm through TickLater and
// a handler that does nothing on a quiet tick but re-arm, and once through
// TickQuiet, and the two runs are compared.

// quietHarness is one run of a scenario. With quiet set, spinners re-arm
// through TickQuiet; otherwise through TickLater.
type quietHarness struct {
	quiet    bool
	eng      *Engine
	reg      *metrics.Registry
	log      []quietEntry
	spinners [][]*spinner // per partition
	touches  int          // touch records the random scenario may still send

	// Coverage, counted in the quiet run: touches of a ghost still due
	// this cycle (before its slot) and of one that already fired this
	// cycle (after it).
	before, after int
}

// quietEntry is one logged real dispatch, or one stop of the engine.
type quietEntry struct {
	what     string
	part, id int
	at       Time
	snap     string // stops: the engine's metrics snapshot
}

// spinner is a ticked component whose ticks before wake are quiet: they
// only re-arm. Its other ticks are real: they are logged and call onTick.
type spinner struct {
	h        *quietHarness
	part, id int
	tk       *Ticker
	wake     Time
	budget   int
	onTick   func(s *spinner, now Time)
}

func (s *spinner) Handle(e *Event) error {
	now := e.Time()
	if now < s.wake {
		s.spin(now)
		return nil
	}
	s.h.note("tick", s.part, s.id, now)
	if s.onTick != nil {
		s.onTick(s, now)
	}
	return nil
}

// spin re-arms for the next cycle, with the promise that every tick before
// wake is quiet in the quiet run.
func (s *spinner) spin(now Time) {
	if s.h.quiet {
		s.tk.TickQuiet(now, s.wake)
	} else {
		s.tk.TickLater(now)
	}
}

func (h *quietHarness) engine(parts int) *Engine {
	h.eng = NewEngine(WithPartitions(parts))
	h.reg = metrics.NewRegistry()
	h.eng.RegisterMetrics(h.reg, "sim")
	h.spinners = make([][]*spinner, parts)
	return h.eng
}

func (h *quietHarness) spinner(p *Partition, wake Time, onTick func(*spinner, Time)) *spinner {
	s := &spinner{h: h, part: p.idx, id: len(h.spinners[p.idx]), wake: wake, onTick: onTick}
	s.tk = NewTicker(p, s)
	h.spinners[p.idx] = append(h.spinners[p.idx], s)
	return s
}

func (h *quietHarness) note(what string, part, id int, at Time) {
	h.log = append(h.log, quietEntry{what: what, part: part, id: id, at: at})
}

// record returns a handler that logs its dispatch as what on partition
// part, then runs fn.
func (h *quietHarness) record(what string, part int, fn func(now Time)) Handler {
	return handlerFunc(func(e *Event) error {
		h.note(what, part, -1, e.Time())
		fn(e.Time())
		return nil
	})
}

// at schedules fn on p at time t as an ordinary logged record.
func (h *quietHarness) at(p *Partition, t Time, what string, fn func(now Time)) {
	p.Schedule(t, h.record(what, p.idx, fn), nil, 0)
}

// stop logs the engine's state: clock, pending count (ghosts included),
// event and schedule counts, windows and events per window.
func (h *quietHarness) stop(t testing.TB) {
	var b bytes.Buffer
	if err := h.reg.Snapshot().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	h.log = append(h.log, quietEntry{what: "stop", at: h.eng.Now(), snap: b.String()})
}

// drive runs the engine up to each deadline in turn, then until nothing is
// pending, resuming after every Pause, and logs every stop.
func (h *quietHarness) drive(t testing.TB, deadlines ...Time) {
	for _, d := range deadlines {
		if err := h.eng.RunUntil(d); err != nil {
			t.Fatal(err)
		}
		h.stop(t)
	}
	for i := 0; h.eng.Pending() > 0; i++ {
		if i == 10000 {
			t.Fatalf("quiet=%t: %d events still pending after %d runs", h.quiet, h.eng.Pending(), i)
		}
		if err := h.eng.Run(); err != nil {
			t.Fatal(err)
		}
		h.stop(t)
	}
}

// quietPair runs scenario in both modes and fails unless the two runs
// logged the same real dispatches and stops, event counts and snapshots
// included. It returns the quiet run.
func quietPair(t testing.TB, scenario func(t testing.TB, h *quietHarness)) *quietHarness {
	t.Helper()
	later := &quietHarness{}
	scenario(t, later)
	quiet := &quietHarness{quiet: true}
	scenario(t, quiet)
	n := min(len(later.log), len(quiet.log))
	for i := 0; i < n; i++ {
		if later.log[i] != quiet.log[i] {
			t.Fatalf("entry %d: TickLater run logged %+v, TickQuiet run %+v", i, later.log[i], quiet.log[i])
		}
	}
	if len(later.log) != len(quiet.log) {
		t.Fatalf("TickLater run logged %d entries, TickQuiet run %d", len(later.log), len(quiet.log))
	}
	if quiet.eng.EventCount() == 0 {
		t.Fatal("scenario handled no events")
	}
	return quiet
}

func TestQuietTickerMatchesTickLater(t *testing.T) {
	t.Run("touch before the ghost's slot", func(t *testing.T) {
		saw := false
		quietPair(t, func(t testing.TB, h *quietHarness) {
			p := h.engine(1).Partition(0)
			a := h.spinner(p, 10, nil)
			// Queued at time 0, so its seq is below the one the ghost
			// takes when it fires at 3 and is re-keyed to 4.
			h.at(p, 4, "touch", func(now Time) {
				saw = saw || h.quiet && a.tk.ghost && a.tk.nextAsked == now
				a.tk.TickNow(now)
			})
			a.tk.TickNow(0)
			h.drive(t)
		})
		if !saw {
			t.Fatal("the touch never met a ghost due in its own cycle")
		}
	})
	t.Run("touch after the ghost's slot", func(t *testing.T) {
		saw := false
		quietPair(t, func(t testing.TB, h *quietHarness) {
			p := h.engine(1).Partition(0)
			a := h.spinner(p, 10, nil)
			// The relay queues the touch at its own time, so the touch's
			// seq is above the ghost's and it runs after the ghost fired.
			h.at(p, 3, "relay", func(now Time) {
				h.at(p, now, "touch", func(now Time) {
					saw = saw || h.quiet && a.tk.ghost && a.tk.nextAsked == now+1
					a.tk.TickNow(now)
				})
			})
			a.tk.TickNow(0)
			h.drive(t)
		})
		if !saw {
			t.Fatal("the touch never met a ghost that had fired in its cycle")
		}
	})
	t.Run("stale record at the ghost's time", func(t *testing.T) {
		saw := false
		quietPair(t, func(t testing.TB, h *quietHarness) {
			p := h.engine(1).Partition(0)
			a := h.spinner(p, 20, nil)
			// The probe runs first at 5, then the request for 5 that
			// TickNow superseded, then the ghost due at 5.
			h.at(p, 5, "probe", func(now Time) {
				saw = saw || h.quiet && a.tk.ghost && a.tk.nextAsked == now
			})
			a.tk.TickAt(5)
			a.tk.TickNow(0)
			h.drive(t)
		})
		if !saw {
			t.Fatal("the stale record never fired at a ghost's time")
		}
	})
	t.Run("expiry at until", func(t *testing.T) {
		q := quietPair(t, func(t testing.TB, h *quietHarness) {
			p := h.engine(1).Partition(0)
			a := h.spinner(p, 10, nil)
			a.tk.TickNow(0)
			h.drive(t)
		})
		// Ticks 0..9 are quiet, the tick at 10 is real and re-arms nothing.
		if got := q.eng.EventCount(); got != 11 {
			t.Fatalf("EventCount = %d, want 11", got)
		}
		if last := q.log[len(q.log)-2]; last.what != "tick" || last.at != 10 {
			t.Fatalf("last dispatch %+v, want the real tick at 10", last)
		}
	})
	t.Run("pause and RunUntil with ghosts pending", func(t *testing.T) {
		pending := false
		quietPair(t, func(t testing.TB, h *quietHarness) {
			e := h.engine(2)
			p0, p1 := e.Partition(0), e.Partition(1)
			l := e.Link(p0, p1, 3)
			a := h.spinner(p0, 40, nil)
			b := h.spinner(p1, 25, nil)
			h.at(p0, 9, "send", func(now Time) {
				l.Schedule(now+l.MinLatency(), h.record("pause", 1, func(Time) { p1.Pause() }), nil, 0)
			})
			a.tk.TickNow(0)
			b.tk.TickNow(2)
			if err := e.RunUntil(7); err != nil {
				t.Fatal(err)
			}
			pending = pending || h.quiet && p0.ghosts == 1 && p1.ghosts == 1 && e.Pending() == 3
			h.stop(t)
			h.drive(t, 11, 30)
		})
		if !pending {
			t.Fatal("RunUntil did not stop with both ghosts pending")
		}
	})
	t.Run("random", func(t *testing.T) {
		var before, after int
		for seed := int64(1); seed <= 200; seed++ {
			script := make([]byte, 512)
			rand.New(rand.NewSource(seed)).Read(script)
			q := quietPair(t, randomQuietScenario(script))
			before += q.before
			after += q.after
		}
		if before == 0 || after == 0 {
			t.Fatalf("touches of a ghost before its slot %d, after it %d; want both nonzero", before, after)
		}
	})
}

// FuzzQuietTicker checks random ticker scenarios, driven by the input
// bytes, against the TickLater oracle of TestQuietTickerMatchesTickLater.
func FuzzQuietTicker(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 2, 2, 2, 0, 1, 7, 5, 4, 2, 1, 0, 3, 3, 1, 9})
	f.Add([]byte("ghost tickers fire in their (time, seq) slots"))
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 1024 {
			return
		}
		quietPair(t, randomQuietScenario(script))
	})
}

// quietScript hands out the scenario's choices from a byte string; once it
// runs out every choice is 0. Both runs read the same bytes in the same
// order for as long as they dispatch the same real handlers.
type quietScript struct {
	b []byte
	i int
}

func (s *quietScript) next(n int) int {
	if s.i >= len(s.b) {
		return 0
	}
	s.i++
	return int(s.b[s.i-1]) % n
}

// randomQuietScenario builds a scenario from script: 1–4 partitions linked
// all-to-all by Remote links, 1–3 spinners on each, and real ticks that
// choose a new wake, send touches (TickNow, TickLater, a later TickAt, a
// response that makes the next tick real, or a Pause) to spinners on any
// partition, sometimes leave a request behind for the re-arm to supersede,
// and re-arm by spinning, sleeping until wake or waiting for a touch.
// Budgets on real ticks and touches bound every run.
func randomQuietScenario(script []byte) func(t testing.TB, h *quietHarness) {
	return func(t testing.TB, h *quietHarness) {
		s := &quietScript{b: script}
		k := 1 + s.next(4)
		e := h.engine(k)
		links := make([][]*Remote, k)
		for i := range links {
			links[i] = make([]*Remote, k)
			for j := range links[i] {
				if i != j {
					links[i][j] = e.Link(e.Partition(i), e.Partition(j), Time(1+s.next(5)))
				}
			}
		}
		h.touches = 60
		var touch func(src int, now Time)
		onTick := func(sp *spinner, now Time) {
			if sp.budget == 0 {
				return
			}
			sp.budget--
			sp.wake = now + 1 + Time(s.next(12))
			for n := s.next(3); n > 0; n-- {
				touch(sp.part, now)
			}
			if s.next(4) == 0 {
				sp.tk.TickAt(now + 1 + Time(s.next(8)))
			}
			switch s.next(8) {
			case 0:
				sp.tk.TickAt(sp.wake)
			case 1: // wait for a touch
			default:
				sp.spin(now)
			}
		}
		touch = func(src int, now Time) {
			if h.touches == 0 {
				return
			}
			h.touches--
			dst := s.next(k)
			tg := h.spinners[dst][s.next(len(h.spinners[dst]))]
			kind := s.next(5)
			what := [...]string{"TickNow", "TickLater", "TickAt", "response", "Pause"}[kind]
			r := h.record(what, dst, func(now Time) {
				if h.quiet && tg.tk.ghost {
					if tg.tk.nextAsked == now {
						h.before++
					} else {
						h.after++
					}
				}
				switch kind {
				case 0:
					tg.tk.TickNow(now)
				case 1:
					tg.tk.TickLater(now)
				case 2:
					tg.tk.TickAt(now + 1 + Time(s.next(6)))
				case 3:
					tg.wake = now
					tg.tk.TickNow(now)
				case 4:
					e.Partition(dst).Pause()
				}
			})
			delay := Time(s.next(4))
			if dst == src {
				e.Partition(src).Schedule(now+delay, r, nil, 0)
			} else {
				l := links[src][dst]
				l.Schedule(now+l.MinLatency()+delay, r, nil, 0)
			}
		}
		for i := 0; i < k; i++ {
			for n := 1 + s.next(3); n > 0; n-- {
				sp := h.spinner(e.Partition(i), Time(s.next(6)), onTick)
				sp.budget = 3 + s.next(6)
				sp.tk.TickAt(Time(s.next(4)))
			}
		}
		h.drive(t, Time(3+s.next(20)), Time(25+s.next(20)))
	}
}

// TestQuietTickerFallsBack: TickQuiet is plain TickLater when the promise
// covers no tick (until is the next cycle) and when a request is already
// pending.
func TestQuietTickerFallsBack(t *testing.T) {
	for _, c := range []struct {
		name    string
		until   Time
		pending bool
	}{
		{"until next cycle", 1, false},
		{"request pending", 100, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			p := NewEngine().Partition(0)
			tk := NewTicker(p, handlerFunc(func(*Event) error { return nil }))
			if c.pending {
				tk.TickAt(5)
			}
			tk.TickQuiet(0, c.until)
			if p.ghosts != 0 || tk.ghost {
				t.Fatal("TickQuiet made a ghost")
			}
			if !tk.hasAsked || tk.nextAsked != 1 {
				t.Fatalf("pending request at %d (asked %t), want 1", tk.nextAsked, tk.hasAsked)
			}
		})
	}
}

func ExampleTicker_TickQuiet() {
	e := NewEngine()
	p := e.Partition(0)
	var tk *Ticker
	tk = NewTicker(p, handlerFunc(func(ev *Event) error {
		if now := ev.Time(); now < 100 {
			// Nothing to do before 100: every tick until then is quiet.
			tk.TickQuiet(now, 100)
		}
		return nil
	}))
	tk.TickNow(0)
	if err := e.Run(); err != nil {
		fmt.Println(err)
	}
	// 101 ticks counted, at 0 through 100, though the handler ran twice.
	fmt.Println(e.Now(), e.EventCount())
	// Output: 100 101
}
