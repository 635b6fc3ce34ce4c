package sim

import (
	"math/rand"
	"sort"
	"testing"
)

// Tests pinning the calendar-wheel queue and the record-scheduling path to
// the (time, seq) total order of the container/heap implementation the queue
// replaced, against a sort.Slice oracle.

// oracleEntry is one record the oracle expects: its key and the id its
// record's arg carries.
type oracleEntry struct {
	time Time
	seq  uint64
	id   int
}

// queueOracle drives an eventQueue and a plain slice side by side and checks
// every pop against the slice's (time, seq) sort.
type queueOracle struct {
	q       *eventQueue
	pending []oracleEntry
	ids     int
	maxNear int // peak number of records on the wheel
	maxFar  int // peak number of records in the far heap
}

func newQueueOracle() *queueOracle { return &queueOracle{q: new(eventQueue)} }

// push pushes a record carrying the next id at (t, seq) and expects it.
func (o *queueOracle) push(t Time, seq uint64) {
	o.q.push(t, seq, record{msg: &testMsg{payload: o.ids}, arg: o.ids})
	o.expect(t, seq)
}

// expect records that the queue now holds a record at (t, seq) whose arg
// and message payload are the next id.
func (o *queueOracle) expect(t Time, seq uint64) {
	o.pending = append(o.pending, oracleEntry{t, seq, o.ids})
	o.ids++
	o.maxNear = max(o.maxNear, o.q.near)
	o.maxFar = max(o.maxFar, len(o.q.keys))
}

// head returns the oracle's earliest entry, or false when none is pending.
func (o *queueOracle) head() (oracleEntry, bool) {
	if len(o.pending) == 0 {
		return oracleEntry{}, false
	}
	sort.Slice(o.pending, func(i, j int) bool {
		if o.pending[i].time != o.pending[j].time {
			return o.pending[i].time < o.pending[j].time
		}
		return o.pending[i].seq < o.pending[j].seq
	})
	return o.pending[0], true
}

// pop pops under limit from both sides and fails unless they agree on
// whether a record is due and, if one is, on its key, record and message.
// It reports whether a record was popped.
func (o *queueOracle) pop(t testing.TB, limit Time) bool {
	t.Helper()
	want, some := o.head()
	due := some && want.time < limit
	if got := o.q.headTime(); !some && got != TimeInf || some && got != want.time {
		t.Fatalf("headTime = %d, want %d (pending %t)", got, want.time, some)
	}
	tm, seq, r, ok := o.q.pop(limit)
	if ok != due {
		t.Fatalf("pop under %d: ok = %t, want %t (head %+v)", limit, ok, due, want)
	}
	if !ok {
		return false
	}
	o.pending = o.pending[1:]
	if tm != want.time || seq != want.seq || r.arg != want.id {
		t.Fatalf("pop (%d,%d) id %d, want (%d,%d) id %d", tm, seq, r.arg, want.time, want.seq, want.id)
	}
	if m := r.msg.(*testMsg); m.payload != want.id {
		t.Fatalf("record %d carries message %d", want.id, m.payload)
	}
	if o.q.cursor != tm {
		t.Fatalf("cursor %d after popping time %d", o.q.cursor, tm)
	}
	return true
}

// checkStorage fails unless every free wheel slot and free slab slot holds
// no handler, message or argument, and neither store has grown past the
// peak number of records it held at once.
func (o *queueOracle) checkStorage(t testing.TB) {
	t.Helper()
	free := 0
	for s := o.q.free; s != 0; s = o.q.slots[s].next {
		if w := o.q.slots[s]; w.h != nil || w.msg != nil || w.arg != 0 || w.seq != 0 {
			t.Fatalf("free wheel slot %d still holds its record", s)
		}
		free++
	}
	if slots := max(len(o.q.slots)-1, 0); slots != o.q.near+free || slots > o.maxNear {
		t.Fatalf("wheel has %d slots for %d live and %d free records (peak %d)", slots, o.q.near, free, o.maxNear)
	}
	for _, s := range o.q.recs.free {
		if r := o.q.recs.items[s]; r.h != nil || r.msg != nil || r.arg != 0 {
			t.Fatalf("free slab slot %d still holds its record", s)
		}
	}
	if n := len(o.q.recs.items); n > o.maxFar {
		t.Fatalf("slab holds %d slots, more than the %d far records ever live at once", n, o.maxFar)
	}
}

// drain pops everything left and checks the queue ends empty.
func (o *queueOracle) drain(t testing.TB) {
	t.Helper()
	for o.pop(t, TimeInf) {
	}
	if len(o.pending) != 0 || o.q.len() != 0 || o.q.occ != 0 {
		t.Fatalf("queue not drained: oracle %d, queue %d, occupancy %#x", len(o.pending), o.q.len(), o.q.occ)
	}
	o.checkStorage(t)
}

// TestEventQueuePopsSortedOrder: pushing random (time, seq) entries on both
// sides of the wheel's horizon and popping them all yields exactly the
// (time, seq) sort — the total order the engine's determinism rests on —
// and every key comes back with its own record.
func TestEventQueuePopsSortedOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		o := newQueueOracle()
		n := rng.Intn(300)
		for seq := 0; seq < n; seq++ {
			o.push(Time(rng.Intn(3*wheelSlots)), uint64(seq))
		}
		o.drain(t)
	}
}

// TestEventQueueInterleavedPushPop exercises the queue under the engine's
// actual access pattern — local schedules and stamped cross-partition merges
// interleaved with pops at a monotone clock, mostly near the clock and
// sometimes past the wheel — and checks every pop against the oracle. It
// also pins storage recycling: a freed wheel or slab slot no longer
// references its handler or message, and neither store grows past the peak
// number of records it held.
func TestEventQueueInterleavedPushPop(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	e := NewEngine(WithPartitions(3))
	p, other := e.Partition(1), e.Partition(2)
	h := handlerFunc(func(*Event) error { return nil })
	o := &queueOracle{q: &p.queue}
	pushes, stamped := 0, 0
	for step := 0; step < 20000; step++ {
		if len(o.pending) == 0 || rng.Intn(3) > 0 {
			span := 16
			if rng.Intn(8) == 0 {
				span = 3 * wheelSlots
			}
			at := p.now + Time(rng.Intn(span))
			id := o.ids
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
			o.expect(at, seq)
			pushes++
			continue
		}
		o.pop(t, TimeInf)
		o.checkStorage(t)
		p.now = p.queue.cursor
	}
	if stamped == 0 || stamped == pushes {
		t.Fatalf("oracle exercised %d stamped of %d pushes; want a mix", stamped, pushes)
	}
	if o.maxNear == 0 || o.maxFar == 0 {
		t.Fatalf("peaks %d near and %d far; want both stores exercised", o.maxNear, o.maxFar)
	}
	o.drain(t)
}

// TestEventQueueWheelWraparound: a steady stream at a depth of about 16
// that carries the cursor across 500 wheel rotations, with pushes up to
// twice the wheel's span ahead, pops in the oracle's order, including pops
// under limits that stop at or short of the head.
func TestEventQueueWheelWraparound(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	o := newQueueOracle()
	seq := uint64(0)
	for o.q.cursor < 500*wheelSlots {
		seq++
		o.push(o.q.cursor+Time(rng.Intn(2*wheelSlots)), seq)
		o.pop(t, o.q.cursor+Time(rng.Intn(4)))
		if len(o.pending) > 16 {
			o.pop(t, TimeInf)
		}
	}
	o.drain(t)
}

// TestEventQueueWheelAndHeapTieOnSeq: a far-heap record and wheel records
// at the same time pop in seq order, whichever store holds them.
func TestEventQueueWheelAndHeapTieOnSeq(t *testing.T) {
	o := newQueueOracle()
	const at = 100
	o.push(50, 1)
	o.push(at, 10) // past the wheel: far heap
	if len(o.q.keys) != 1 {
		t.Fatalf("a push %d cycles ahead went to the wheel", at)
	}
	o.pop(t, TimeInf) // cursor moves to 50; time 100 is now within the wheel
	o.push(at, 5)
	o.push(at, 20)
	if o.q.near != 2 {
		t.Fatalf("%d records on the wheel, want 2", o.q.near)
	}
	o.drain(t)
}

// TestEventQueueStampedAheadOfTail: a stamped record whose seq is below its
// bucket's tail is inserted in seq order — at the head, in the middle, and
// behind the tail — and a local push after it still appends.
func TestEventQueueStampedAheadOfTail(t *testing.T) {
	o := newQueueOracle()
	for _, seq := range []uint64{4, 7, 1, 5, 9, 3, 11} {
		o.push(3, seq)
	}
	b := o.q.buckets[3]
	var got []uint64
	for s := b.head; s != 0; s = o.q.slots[s].next {
		got = append(got, o.q.slots[s].seq)
	}
	want := []uint64{1, 3, 4, 5, 7, 9, 11}
	if len(got) != len(want) || o.q.slots[b.tail].seq != 11 {
		t.Fatalf("bucket holds %v (tail %d), want %v", got, o.q.slots[b.tail].seq, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bucket holds %v, want %v", got, want)
		}
	}
	o.drain(t)
}

// TestEventQueueHorizon: a push at cursor+wheelSlots-1 is the last cycle
// the wheel holds and one at cursor+wheelSlots is the first that goes to the
// far heap; both pop in order, before and after the cursor has moved off
// zero.
func TestEventQueueHorizon(t *testing.T) {
	o := newQueueOracle()
	for _, base := range []Time{0, 37, 5 * wheelSlots} {
		o.push(base, uint64(4*base+1))
		o.pop(t, TimeInf)
		if o.q.cursor != base {
			t.Fatalf("cursor %d, want %d", o.q.cursor, base)
		}
		o.push(base+wheelSlots, uint64(4*base+2))
		o.push(base+wheelSlots-1, uint64(4*base+3))
		if o.q.near != 1 || len(o.q.keys) != 1 {
			t.Fatalf("cursor %d: %d near and %d far records, want 1 and 1", base, o.q.near, len(o.q.keys))
		}
		o.pop(t, base+wheelSlots-1) // not yet due
		o.drain(t)
	}
}

// FuzzEventQueue: any interleaving of local pushes, stamped pushes whose
// seq may fall below a bucket's tail, and limited pops agrees with the sort
// oracle. Each op is two bytes: a kind and an argument.
//
//   - kind%4 == 0 or 1: local push arg cycles ahead of the cursor (far
//     pushes when arg >= 192);
//   - kind%4 == 2: stamped push, the same distances, with a seq from another
//     partition's stripe up to 32 counts behind or ahead of the local one;
//   - kind%4 == 3: pop under a limit arg cycles past the cursor, or with no
//     limit when arg is 255.
func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{0, 1, 0, 1, 3, 255})
	f.Add([]byte{0, 63, 0, 64, 2, 63, 3, 255, 3, 255})
	f.Add([]byte{0, 5, 0, 5, 2, 5, 0x12, 5, 0x7a, 5, 3, 4, 3, 6, 3, 255})
	f.Add([]byte{0, 200, 1, 100, 3, 255, 0, 30, 2, 30, 3, 255, 3, 255})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4096 {
			return
		}
		const stripes = 3 // local seqs are n*3, stamped ones n*3+1
		o := newQueueOracle()
		local := uint64(0)
		used := map[uint64]bool{}
		for i := 0; i+1 < len(ops); i += 2 {
			kind, arg := ops[i], ops[i+1]
			dist := Time(arg)
			if arg >= 192 {
				dist = wheelSlots + Time(arg-192)*37
			}
			switch kind % 4 {
			case 0, 1:
				local++
				o.push(o.q.cursor+dist, local*stripes)
			case 2:
				n := int64(local) + int64(kind>>2) - 32
				seq := uint64(max(n, 0))*stripes + 1
				for used[seq] {
					seq += stripes
				}
				used[seq] = true
				o.push(o.q.cursor+dist, seq)
			case 3:
				limit := TimeInf
				if arg != 255 {
					limit = o.q.cursor + Time(arg)
				}
				o.pop(t, limit)
			}
		}
		o.checkStorage(t)
		o.drain(t)
	})
}

// queueReplay replays the push-distance mix measured on the 4-GPU bus
// under the adaptive controller at scale 8: 15% of pushes land at +0, 63% at
// +1, 21.2% two to 63 cycles ahead and the remaining 0.8% past the wheel
// (64 to 191 cycles), at a steady depth of 13. Each step pops the head and
// pushes one record.
type queueReplay struct {
	q     eventQueue
	dists [1000]Time
	i     int
	seq   uint64
}

func newQueueReplay() *queueReplay {
	rng := rand.New(rand.NewSource(9))
	r := &queueReplay{}
	for i := range r.dists {
		switch {
		case i < 150:
			r.dists[i] = 0
		case i < 780:
			r.dists[i] = 1
		case i < 992:
			r.dists[i] = 2 + Time(rng.Intn(wheelSlots-2))
		default:
			r.dists[i] = wheelSlots + Time(rng.Intn(2*wheelSlots))
		}
	}
	rng.Shuffle(len(r.dists), func(i, j int) { r.dists[i], r.dists[j] = r.dists[j], r.dists[i] })
	// Size both stores for the whole depth, as a partition that has seen
	// its peak has, then fill to the steady depth.
	const depth = 13
	for i := 0; i < depth; i++ {
		r.seq++
		r.q.push(wheelSlots, r.seq, record{})
		r.seq++
		r.q.push(0, r.seq, record{})
	}
	for r.q.len() > 0 {
		r.q.pop(TimeInf)
	}
	for i := 0; i < depth; i++ {
		r.seq++
		r.q.push(r.q.cursor+r.dists[len(r.dists)-1-i], r.seq, record{arg: 1})
	}
	return r
}

func (r *queueReplay) step() {
	t, _, _, _ := r.q.pop(TimeInf)
	r.seq++
	r.q.push(t+r.dists[r.i], r.seq, record{arg: 1})
	if r.i++; r.i == len(r.dists) {
		r.i = 0
	}
}

// BenchmarkEventQueue measures one pop and one push of the queue under the
// measured push-distance mix (queueReplay). Must be 0 allocs/op.
func BenchmarkEventQueue(b *testing.B) {
	r := newQueueReplay()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.step()
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
// the far heap's O(log n) regime. Must be 0 allocs/op in steady state.
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
		if err := e.RunUntil(p.queue.headTime()); err != nil {
			b.Fatal(err)
		}
	}
}
