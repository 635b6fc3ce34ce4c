package sim

import (
	"strings"
	"testing"
)

// waitForever returns a ticker on p that, each time it runs, promises quiet
// ticks until TimeInf: a component whose work all waits on a touch.
func waitForever(p *Partition) *Ticker {
	var tk *Ticker
	tk = NewTicker(p, handlerFunc(func(ev *Event) error {
		tk.TickQuiet(ev.Time(), TimeInf)
		return nil
	}))
	return tk
}

// wantStall fails the test unless err is the stall error naming cycle and
// tickers.
func wantStall(t *testing.T, err error, cycle Time, tickers int) {
	t.Helper()
	if err == nil {
		t.Fatal("a run that can never end returned nil")
	}
	want := stallError(cycle, tickers).Error()
	if err.Error() != want || !strings.Contains(want, "stalled") {
		t.Fatalf("error %q, want %q", err, want)
	}
}

// TestStalledRunFails: on one partition, a run without a deadline whose
// only ticker waits forever fails with a stall instead of spinning in its
// window, while a deadline run keeps firing the ghost; a later run found
// stalled before its first window fails the same way.
func TestStalledRunFails(t *testing.T) {
	t.Run("inside the window", func(t *testing.T) {
		e := NewEngine()
		waitForever(e.Partition(0)).TickNow(0)
		wantStall(t, e.Run(), 0, 1)
	})
	t.Run("between windows", func(t *testing.T) {
		e := NewEngine()
		waitForever(e.Partition(0)).TickNow(0)
		if err := e.RunUntil(50); err != nil {
			t.Fatal(err)
		}
		if e.Now() != 50 || e.EventCount() != 51 {
			t.Fatalf("deadline run reached cycle %d after %d events, want 50 and 51", e.Now(), e.EventCount())
		}
		wantStall(t, e.Run(), 50, 1)
	})
	t.Run("a finite promise is no stall", func(t *testing.T) {
		e := NewEngine()
		p := e.Partition(0)
		var tk *Ticker
		tk = NewTicker(p, handlerFunc(func(ev *Event) error {
			if ev.Time() == 0 {
				tk.TickQuiet(0, 40)
			}
			return nil
		}))
		waitForever(p).TickNow(0)
		tk.TickNow(0)
		wantStall(t, e.Run(), 40, 1)
	})
}

// TestStalledPartitionsFail: two linked partitions, each with a ticker
// that waits forever, keep windows short, so no window is unlimited; the
// run fails at the first window boundary with nothing queued, naming both
// tickers.
func TestStalledPartitionsFail(t *testing.T) {
	e := NewEngine(WithPartitions(2))
	p0, p1 := e.Partition(0), e.Partition(1)
	e.Link(p0, p1, 3)
	e.Link(p1, p0, 3)
	waitForever(p0).TickNow(0)
	waitForever(p1).TickNow(0)
	wantStall(t, e.Run(), 2, 2)
	if e.windows != 1 {
		t.Fatalf("stall found after %d windows, want 1", e.windows)
	}
}
