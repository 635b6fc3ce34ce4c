//go:build !race

package sim

import "testing"

// The message path's zero-allocation pins: after a warm-up pass has grown
// the slab, the heap and the rings to their working size, moving messages
// through ports and connections and scheduling and dispatching records
// allocate nothing. The race detector instruments allocations, so the file
// is excluded under -race.

// assertNoAllocs runs fn once to warm up, then fails if any later run
// allocates.
func assertNoAllocs(t *testing.T, fn func()) {
	t.Helper()
	if got := testing.AllocsPerRun(20, fn); got != 0 {
		t.Errorf("%v allocs per run, want 0", got)
	}
}

func TestPortDeliverRetrieveAllocationFree(t *testing.T) {
	c := newStubComponent("c")
	p := NewPort(c, "c.in", 0)
	msgs := []Msg{&testMsg{}, &testMsg{}, &testMsg{}}
	assertNoAllocs(t, func() {
		for _, m := range msgs {
			p.Deliver(0, m)
		}
		for p.Retrieve(0) != nil {
		}
	})
}

func TestDirectConnectionAllocationFree(t *testing.T) {
	e := NewEngine()
	part := e.Partition(0)
	src := newStubComponent("src")
	dst := newStubComponent("dst")
	srcPort := NewPort(src, "src.out", 0)
	dstPort := NewPort(dst, "dst.in", 128) // two messages fit, the rest park
	conn := NewDirectConnection("link", part, 3)
	conn.Plug(srcPort)
	conn.Plug(dstPort)
	msgs := []Msg{
		&testMsg{MsgMeta: MsgMeta{Dst: dstPort, Bytes: 64}},
		&testMsg{MsgMeta: MsgMeta{Dst: dstPort, Bytes: 64}},
		&testMsg{MsgMeta: MsgMeta{Dst: dstPort, Bytes: 64}},
		&testMsg{MsgMeta: MsgMeta{Dst: dstPort, Bytes: 64}},
	}
	assertNoAllocs(t, func() {
		for _, m := range msgs {
			srcPort.Send(part.Now(), m)
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		for dstPort.Retrieve(part.Now()) != nil {
		}
	})
}

// relay re-schedules the record it receives: locally while hops remain on
// its own partition, then across its Remote link, carrying the message and
// a hop count through every dispatch.
type relay struct {
	part *Partition
	out  *Remote
	peer Handler
}

func (r *relay) Handle(e *Event) error {
	if n := e.Arg(); n > 0 {
		r.part.Schedule(e.Time()+1, r, e.Msg(), n-1)
		return nil
	}
	r.out.Schedule(e.Time()+r.out.MinLatency(), r.peer, e.Msg(), 0)
	return nil
}

func TestRecordScheduleDispatchAllocationFree(t *testing.T) {
	e := NewEngine(WithPartitions(2))
	p0, p1 := e.Partition(0), e.Partition(1)
	var got int
	sink := handlerFunc(func(ev *Event) error {
		got += ev.Msg().(*testMsg).payload
		return nil
	})
	r := &relay{part: p0, out: e.Link(p0, p1, 4), peer: sink}
	ticks := 0
	tk := NewTicker(p0, handlerFunc(func(*Event) error { ticks++; return nil }))
	m := &testMsg{payload: 1}
	assertNoAllocs(t, func() {
		// Eight local hops per record, then one stamped cross-partition
		// record each, plus a ticker request.
		for i := 0; i < 4; i++ {
			p0.Schedule(e.Now()+Time(i), r, m, 8)
		}
		tk.TickAt(e.Now())
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if got == 0 || ticks == 0 || e.crossMsgs == 0 {
		t.Fatalf("sink saw %d records and %d ticks over %d remote messages; want all nonzero",
			got, ticks, e.crossMsgs)
	}
}

// TestEventQueueReplayAllocationFree pins BenchmarkEventQueue's replay: a
// whole pass over its push-distance mix, near and far, allocates nothing.
func TestEventQueueReplayAllocationFree(t *testing.T) {
	r := newQueueReplay()
	assertNoAllocs(t, func() {
		for range r.dists {
			r.step()
		}
	})
}

func TestPoolTakeReleaseAllocationFree(t *testing.T) {
	if Poison {
		t.Skip("poison builds quarantine released messages instead of reusing them")
	}
	var p Pool[pooled, *pooled]
	assertNoAllocs(t, func() {
		a, b := p.Take(), p.Take()
		p.Release(a)
		p.Release(b)
	})
}

// TestQuietTickAllocationFree: once the ghost ring holds its tickers,
// firing their promised-quiet ticks allocates nothing.
func TestQuietTickAllocationFree(t *testing.T) {
	e := NewEngine()
	p := e.Partition(0)
	for i := 0; i < 4; i++ {
		var tk *Ticker
		tk = NewTicker(p, handlerFunc(func(ev *Event) error {
			tk.TickQuiet(ev.Time(), TimeInf)
			return nil
		}))
		tk.TickAt(Time(i))
	}
	if err := e.RunUntil(3); err != nil {
		t.Fatal(err)
	}
	before := e.EventCount()
	assertNoAllocs(t, func() {
		if err := e.RunUntil(e.Now() + 100); err != nil {
			t.Fatal(err)
		}
	})
	if p.ghosts != 4 || e.EventCount()-before < 4*100 {
		t.Fatalf("%d ghosts fired %d ticks; want 4 firing every cycle", p.ghosts, e.EventCount()-before)
	}
}
