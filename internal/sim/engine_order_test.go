package sim

import (
	"math/rand"
	"sort"
	"testing"
)

// TestEngineDispatchTotalOrderRandomized: under a randomized interleaving of
// Schedule and ScheduleTick — including re-entrant scheduling from inside
// running handlers — the engine dispatches every event in the total order
// (time, insertion seq). This is the determinism contract the whole
// simulator rests on: equal-time events fire in FIFO order regardless of
// which API queued them or when.
func TestEngineDispatchTotalOrderRandomized(t *testing.T) {
	for trial := 0; trial < 25; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		e := NewEngine()
		p := e.Partition(0)
		var times []Time // scheduled time per seq (seq = index)
		var fired []int  // seqs in dispatch order
		var schedule func(at Time, depth int)
		schedule = func(at Time, depth int) {
			id := len(times)
			times = append(times, at)
			arg := 0 // ticks carry no payload; other records carry their id
			if rng.Intn(2) == 1 {
				arg = id
			}
			h := handlerFunc(func(ev *Event) error {
				if ev.Time() != at {
					t.Fatalf("event %d dispatched with time %d, scheduled at %d", id, ev.Time(), at)
				}
				if ev.Arg() != arg {
					t.Fatalf("event %d dispatched with arg %d, want %d", id, ev.Arg(), arg)
				}
				fired = append(fired, id)
				// Re-entrant scheduling: handlers may queue further work at
				// or after the current time.
				if depth < 2 && rng.Intn(3) == 0 {
					for k, n := 0, rng.Intn(3); k < n; k++ {
						schedule(at+Time(rng.Intn(8)), depth+1)
					}
				}
				return nil
			})
			if arg == 0 {
				p.ScheduleTick(at, h)
			} else {
				p.Schedule(at, h, nil, arg)
			}
		}
		for i := 0; i < 200; i++ {
			schedule(Time(rng.Intn(64)), 0)
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}

		// Reference order: a stable sort by time over insertion sequence.
		// The engine forbids scheduling in the past, so this global sort is
		// exactly the order a correct queue must produce.
		want := make([]int, len(times))
		for i := range want {
			want[i] = i
		}
		sort.SliceStable(want, func(a, b int) bool { return times[want[a]] < times[want[b]] })
		if len(fired) != len(times) {
			t.Fatalf("trial %d: dispatched %d of %d events", trial, len(fired), len(times))
		}
		for i := range want {
			if fired[i] != want[i] {
				t.Fatalf("trial %d: dispatch %d was event %d (t=%d), want event %d (t=%d)",
					trial, i, fired[i], times[fired[i]], want[i], times[want[i]])
			}
		}
		if e.EventCount() != uint64(len(times)) {
			t.Errorf("trial %d: EventCount = %d, want %d", trial, e.EventCount(), len(times))
		}
	}
}
