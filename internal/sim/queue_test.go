package sim

import (
	"math/rand"
	"sort"
	"testing"
)

// Tests pinning the hand-rolled 4-ary slab heap and the record-scheduling
// path to the semantics of the container/heap implementation they replaced.

// TestEventQueuePopsSortedOrder: pushing random (time, seq) entries and
// popping them all yields exactly the (time, seq) sort — the total order the
// engine's determinism rests on — and every key comes back with its own
// record.
func TestEventQueuePopsSortedOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(300)
		var q eventQueue
		entries := make([]queueKey, 0, n)
		for seq := 0; seq < n; seq++ {
			k := queueKey{time: Time(rng.Intn(32)), seq: uint64(seq)}
			entries = append(entries, k)
			q.push(k.time, k.seq, record{arg: seq})
		}
		sort.Slice(entries, func(i, j int) bool { return entries[i].less(entries[j]) })
		for i, want := range entries {
			got, r := q.pop()
			if got.time != want.time || got.seq != want.seq {
				t.Fatalf("trial %d: pop %d = (%d,%d), want (%d,%d)",
					trial, i, got.time, got.seq, want.time, want.seq)
			}
			if r.arg != int(want.seq) {
				t.Fatalf("trial %d: key seq %d came back with record %d", trial, want.seq, r.arg)
			}
		}
		if q.len() != 0 || len(q.recs.free) != len(q.recs.items) {
			t.Fatalf("trial %d: queue not drained (%d keys, %d of %d slots free)",
				trial, q.len(), len(q.recs.free), len(q.recs.items))
		}
	}
}

// TestEventQueueInterleavedPushPop exercises the slab heap under the
// engine's actual access pattern — local schedules and stamped
// cross-partition merges interleaved with pops at a monotone clock — and
// checks every pop against a sort.Slice oracle over the pending set. It also pins the slab's
// recycling: the slab never grows past the peak number of live records, and
// a popped slot no longer references its handler or message.
func TestEventQueueInterleavedPushPop(t *testing.T) {
	type entry struct {
		time Time
		seq  uint64
		id   int
	}
	rng := rand.New(rand.NewSource(6))
	e := NewEngine(WithPartitions(3))
	p, other := e.Partition(1), e.Partition(2)
	h := handlerFunc(func(*Event) error { return nil })
	var pending []entry
	maxLive, id, stamped := 0, 0, 0
	for step := 0; step < 20000; step++ {
		if len(pending) == 0 || rng.Intn(3) > 0 {
			at := p.now + Time(rng.Intn(16))
			m := &testMsg{payload: id}
			var seq uint64
			if rng.Intn(2) == 0 {
				p.Schedule(at, h, m, id)
				seq = p.localSeq*uint64(e.Partitions()) + uint64(p.Index())
			} else {
				seq = other.nextSeq()
				p.enqueueStamped(at, seq, record{h: h, msg: m, arg: id})
				stamped++
			}
			pending = append(pending, entry{at, seq, id})
			id++
			if len(pending) > maxLive {
				maxLive = len(pending)
			}
			continue
		}
		sort.Slice(pending, func(i, j int) bool {
			if pending[i].time != pending[j].time {
				return pending[i].time < pending[j].time
			}
			return pending[i].seq < pending[j].seq
		})
		want := pending[0]
		pending = pending[1:]
		k, r := p.queue.pop()
		if k.time != want.time || k.seq != want.seq || r.arg != want.id {
			t.Fatalf("step %d: pop (%d,%d) id %d, want (%d,%d) id %d",
				step, k.time, k.seq, r.arg, want.time, want.seq, want.id)
		}
		if r.msg.(*testMsg).payload != want.id {
			t.Fatalf("step %d: record %d carries message %d", step, want.id, r.msg.(*testMsg).payload)
		}
		if slot := p.queue.recs.items[k.slot]; slot.h != nil || slot.msg != nil || slot.arg != 0 {
			t.Fatalf("step %d: popped slot %d still holds its record", step, k.slot)
		}
		p.now = k.time
	}
	if stamped == 0 || stamped == id {
		t.Fatalf("oracle exercised %d stamped of %d pushes; want a mix", stamped, id)
	}
	if len(p.queue.recs.items) > maxLive {
		t.Fatalf("slab holds %d slots, more than the %d records ever live at once", len(p.queue.recs.items), maxLive)
	}
}

// TestScheduleTickInterleavesWithSchedule: payload-less ticks and records
// with payloads share one (time, seq) order, so mixing the two calls
// preserves FIFO at equal timestamps.
func TestScheduleTickInterleavesWithSchedule(t *testing.T) {
	e := NewEngine()
	p := e.Partition(0)
	var order []int
	mk := func(id int) Handler {
		return handlerFunc(func(*Event) error {
			order = append(order, id)
			return nil
		})
	}
	p.ScheduleTick(3, mk(0))
	p.Schedule(3, mk(1), &testMsg{}, 1)
	p.ScheduleTick(1, mk(2))
	p.Schedule(3, mk(3), nil, 3)
	p.ScheduleTick(3, mk(4))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{2, 0, 1, 3, 4}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if e.EventCount() != 5 {
		t.Fatalf("EventCount = %d, want 5", e.EventCount())
	}
}

// TestScheduleTickEventCarriesTime: the partition's reused Event reports the
// scheduled time of each dispatch, plus the record's payloads (a tick's are
// nil and zero), even when one handler has several records in flight.
func TestScheduleTickEventCarriesTime(t *testing.T) {
	e := NewEngine()
	p := e.Partition(0)
	type seen struct {
		time Time
		msg  Msg
		arg  int
	}
	var got []seen
	var first *Event
	h := handlerFunc(func(ev *Event) error {
		if first == nil {
			first = ev
		} else if ev != first {
			t.Fatal("dispatch handed out a fresh Event; want the partition's reused one")
		}
		got = append(got, seen{ev.Time(), ev.Msg(), ev.Arg()})
		return nil
	})
	m := &testMsg{payload: 1}
	p.ScheduleTick(7, h)
	p.Schedule(2, h, m, 5)
	p.ScheduleTick(2, h)
	p.Schedule(9, h, nil, -3)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []seen{{2, m, 5}, {2, nil, 0}, {7, nil, 0}, {9, nil, -3}}
	if len(got) != len(want) {
		t.Fatalf("dispatched %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dispatched %v, want %v", got, want)
		}
	}
}

// TestScheduleTickInPastPanics: a tick in the partition's past panics, like
// any record.
func TestScheduleTickInPastPanics(t *testing.T) {
	e := NewEngine()
	p := e.Partition(0)
	p.ScheduleTick(10, handlerFunc(func(*Event) error { return nil }))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("scheduling a tick in the past did not panic")
		}
	}()
	p.ScheduleTick(5, handlerFunc(func(*Event) error { return nil }))
}

// TestRunUntilLeavesTickQueued: the peek-based deadline check must also hold
// for lightweight ticks.
func TestRunUntilLeavesTickQueued(t *testing.T) {
	e := NewEngine()
	p := e.Partition(0)
	var fired []Time
	h := handlerFunc(func(ev *Event) error {
		fired = append(fired, ev.Time())
		return nil
	})
	p.ScheduleTick(5, h)
	p.ScheduleTick(15, h)
	if err := e.RunUntil(10); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 1 || e.Pending() != 1 {
		t.Fatalf("fired %v pending %d, want 1 event fired and 1 pending", fired, e.Pending())
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 2 || fired[1] != 15 {
		t.Fatalf("fired = %v after resume", fired)
	}
}

// BenchmarkEngineScheduleTickChurn measures the tick path — schedule and
// dispatch with the partition's reused event. Must be
// 0 allocs/op in steady state.
func BenchmarkEngineScheduleTickChurn(b *testing.B) {
	e := NewEngine()
	p := e.Partition(0)
	h := handlerFunc(func(*Event) error { return nil })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.ScheduleTick(e.Now()+Time(i%64), h)
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

// BenchmarkEngineDeepQueueChurn keeps the queue at a constant 4096 pending
// entries (every handled tick re-schedules one) and measures dispatch in
// the heap's O(log n) regime. Must be 0 allocs/op in steady state.
func BenchmarkEngineDeepQueueChurn(b *testing.B) {
	e := NewEngine()
	p := e.Partition(0)
	rng := rand.New(rand.NewSource(8))
	var h handlerFunc
	h = func(ev *Event) error {
		p.ScheduleTick(ev.Time()+1+Time(rng.Intn(1024)), h)
		return nil
	}
	const depth = 4096
	for i := 0; i < depth; i++ {
		p.ScheduleTick(1+Time(rng.Intn(1024)), h)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.RunUntil(p.queue.keys[0].time); err != nil {
			b.Fatal(err)
		}
	}
}
