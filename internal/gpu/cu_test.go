package gpu

import (
	"bytes"
	"reflect"
	"testing"

	"mgpucompress/internal/mem"
	"mgpucompress/internal/sim"
)

// memStub is a single-component memory that answers every request after a
// fixed latency, standing in for the whole cache hierarchy in CU unit
// tests. Like a real L1 it answers with pooled messages and releases the
// requests it retrieves, so it allocates nothing once the pool is warm.
type memStub struct {
	sim.ComponentBase
	part    *sim.Partition
	msgs    *mem.Pool
	space   *mem.Space
	latency sim.Time
	Top     *sim.Port
	reads   int
	writes  int

	// ticker, when set, sends responses from a tick the way a cache does:
	// a response due at t is queued in out and sent by a tick requested
	// at t, after every record already queued for t.
	ticker *sim.Ticker
	out    sim.FIFO[sim.Msg]
}

func newMemStub(part *sim.Partition, latency sim.Time) *memStub {
	s := &memStub{
		ComponentBase: sim.NewComponentBase("memstub"),
		part:          part,
		msgs:          mem.PoolOf(part),
		space:         mem.NewSpace(1),
		latency:       latency,
	}
	s.Top = sim.NewPort(s, "memstub.Top", 0)
	return s
}

// sendFromTick makes the stub send its responses from ticks.
func (s *memStub) sendFromTick() { s.ticker = sim.NewTicker(s.part, s) }

// Handle sends the record's response once the stub latency has elapsed.
// With a ticker it queues the response and requests a tick for this
// cycle instead, and the tick (a record without a message) sends every
// queued response.
func (s *memStub) Handle(e *sim.Event) error {
	now := e.Time()
	if s.ticker == nil {
		s.send(now, e.Msg())
		return nil
	}
	if m := e.Msg(); m != nil {
		s.out.Push(m)
		s.ticker.TickNow(now)
		return nil
	}
	for s.out.Len() > 0 {
		s.send(now, s.out.Pop())
	}
	return nil
}

func (s *memStub) send(now sim.Time, m sim.Msg) {
	if !s.Top.Send(now, m) {
		panic("memstub: send failed")
	}
}

func (s *memStub) NotifyRecv(now sim.Time, p *sim.Port) {
	for {
		m := p.Retrieve(now)
		if m == nil {
			return
		}
		var rsp sim.Msg
		switch req := m.(type) {
		case *mem.ReadReq:
			s.reads++
			d := s.msgs.DataReady(s.Top, req.Src, req.ID, req.Addr, req.N)
			s.space.ReadInto(req.Addr, d.Data)
			rsp = d
		case *mem.WriteReq:
			s.writes++
			s.space.Write(req.Addr, req.Data)
			rsp = s.msgs.WriteACK(s.Top, req.Src, req.ID, req.Addr)
		}
		s.msgs.Release(m)
		s.part.AssignMsgID(rsp)
		s.part.Schedule(now+s.latency, s, rsp, 0)
	}
}

func (s *memStub) NotifyPortFree(sim.Time, *sim.Port) {}

func cuBench(t *testing.T, cfg CUConfig) (*sim.Engine, *CU, *memStub) {
	t.Helper()
	engine := sim.NewEngine()
	part := engine.Partition(0)
	cu := NewCU("CU", part, cfg)
	stub := newMemStub(part, 50)
	conn := sim.NewDirectConnection("conn", part, 1)
	conn.Plug(cu.ToL1)
	conn.Plug(stub.Top)
	cu.SetL1(stub.Top)
	return engine, cu, stub
}

func runWG(t *testing.T, engine *sim.Engine, cu *CU, k *Kernel, wgs int) {
	t.Helper()
	done := 0
	cu.OnWGDone = func(int) { done++ }
	for wg := 0; wg < wgs; wg++ {
		cu.Assign(engine.Now(), k, wg)
	}
	if err := engine.Run(); err != nil {
		t.Fatal(err)
	}
	if done != wgs {
		t.Fatalf("%d/%d workgroups retired", done, wgs)
	}
}

// testProgram adapts a closure to Program: every workgroup runs waves
// wavefronts, and start emits a wavefront's opening operations.
type testProgram struct {
	waves int
	start func(w *Wave)
}

func (p *testProgram) Waves(int) int { return p.waves }

func (p *testProgram) Next(w *Wave) {
	if w.Step > 0 {
		return
	}
	w.Step++
	p.start(w)
}

// then adapts a closure to Continuation.
type then func(w *Wave, data []byte)

func (f then) Resume(w *Wave, data []byte, _ int) { f(w, data) }

func TestCUExecutesSequentialOps(t *testing.T) {
	engine, cu, stub := cuBench(t, DefaultCUConfig())
	stub.space.Write(0, []byte{1, 2, 3, 4})
	k := &Kernel{
		Name: "seq", NumWorkgroups: 1,
		Program: &testProgram{waves: 1, start: func(w *Wave) {
			w.Read(0, 64, then(func(w *Wave, d []byte) {
				out := append([]byte(nil), d...)
				out[0] = 99
				w.Compute(10)
				w.Write(64, out)
			}), 0)
		}},
	}
	runWG(t, engine, cu, k, 1)
	got := stub.space.Read(64, 4)
	if !bytes.Equal(got, []byte{99, 2, 3, 4}) {
		t.Errorf("result = %v", got)
	}
	if cu.MemReadsIssued != 1 || cu.MemWritesIssued != 1 {
		t.Errorf("issued %d reads %d writes", cu.MemReadsIssued, cu.MemWritesIssued)
	}
	if cu.WGsRetired != 1 {
		t.Errorf("retired %d", cu.WGsRetired)
	}
}

// chain emits a read of addr whose continuation emits the next read, n
// reads in all.
func chain(w *Wave, addr uint64, n int) {
	if n == 0 {
		return
	}
	w.Read(addr, 64, then(func(w *Wave, _ []byte) { chain(w, addr, n-1) }), 0)
}

func TestCUInterleavesWavefrontsToHideLatency(t *testing.T) {
	// 8 wavefronts each doing 4 dependent 50-cycle reads. Serial time
	// would be ≈ 8×4×52; an interleaving CU overlaps them so total is
	// ≈ 4×52 plus issue overhead.
	engine, cu, _ := cuBench(t, DefaultCUConfig())
	k := &Kernel{
		Name: "overlap", NumWorkgroups: 1,
		Program: &testProgram{waves: 8, start: func(w *Wave) {
			chain(w, uint64(w.Index)*64, 4)
		}},
	}
	runWG(t, engine, cu, k, 1)
	serial := sim.Time(8 * 4 * 52)
	if engine.Now() >= serial/2 {
		t.Errorf("took %d cycles; wavefronts not interleaved (serial ≈ %d)", engine.Now(), serial)
	}
}

func TestCUIssueWidthLimits(t *testing.T) {
	// 16 independent single-read wavefronts on a CU that issues 1 memory
	// op per cycle: the 16th read cannot issue before cycle 16.
	cfg := DefaultCUConfig()
	cfg.IssueWidth = 1
	engine, cu, stub := cuBench(t, cfg)
	k := &Kernel{
		Name: "width", NumWorkgroups: 1,
		Program: &testProgram{waves: 16, start: func(w *Wave) {
			w.Read(uint64(w.Index)*64, 64, nil, 0)
		}},
	}
	runWG(t, engine, cu, k, 1)
	if stub.reads != 16 {
		t.Fatalf("%d reads", stub.reads)
	}
	// Last read issued at ≥ cycle 16, response 50 later.
	if engine.Now() < 16+50 {
		t.Errorf("finished at %d: issue width not enforced", engine.Now())
	}
}

func TestCUResidencyLimitQueuesWGs(t *testing.T) {
	cfg := DefaultCUConfig()
	cfg.MaxResidentWGs = 1
	engine, cu, _ := cuBench(t, cfg)
	var order []int
	cu.OnWGDone = func(wg int) { order = append(order, wg) }
	k := &Kernel{
		Name: "resident", NumWorkgroups: 3,
		Program: &testProgram{waves: 1, start: func(w *Wave) {
			w.Read(0, 64, nil, 0)
			w.Compute(20)
		}},
	}
	for wg := 0; wg < 3; wg++ {
		cu.Assign(0, k, wg)
	}
	if err := engine.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 {
		t.Fatalf("retired %d", len(order))
	}
	for i, wg := range order {
		if wg != i {
			t.Errorf("retirement order %v not FIFO with residency 1", order)
		}
	}
}

func TestCUPostedWritesHoldWGCompletion(t *testing.T) {
	// A workgroup with only posted writes must not retire before the acks.
	engine, cu, stub := cuBench(t, DefaultCUConfig())
	var doneAt sim.Time
	cu.OnWGDone = func(int) { doneAt = engine.Now() }
	k := &Kernel{
		Name: "posted", NumWorkgroups: 1,
		Program: &testProgram{waves: 1, start: func(w *Wave) {
			w.Write(0, make([]byte, 64))
			w.Write(64, make([]byte, 64))
		}},
	}
	cu.Assign(0, k, 0)
	if err := engine.Run(); err != nil {
		t.Fatal(err)
	}
	if stub.writes != 2 {
		t.Fatalf("%d writes", stub.writes)
	}
	// Write acks return after ≥ 50-cycle latency.
	if doneAt < 50 {
		t.Errorf("workgroup retired at %d, before write acks", doneAt)
	}
}

func TestCUBarrierWithThreeWavefronts(t *testing.T) {
	engine, cu, stub := cuBench(t, DefaultCUConfig())
	marker := func(b byte) []byte {
		d := make([]byte, 64)
		d[0] = b
		return d
	}
	pre := []int{100, 5, 1}
	k := &Kernel{
		Name: "barrier3", NumWorkgroups: 1,
		Program: &testProgram{waves: 3, start: func(w *Wave) {
			w.Compute(pre[w.Index])
			w.Write(uint64(w.Index)*64, marker(byte(w.Index+1)))
			w.Barrier()
			w.Read(0, 64, then(func(_ *Wave, d []byte) {
				// After the barrier every wavefront must see wf0's write
				// at address 0.
				if d[0] != 1 {
					panic("barrier violated")
				}
			}), 0)
		}},
	}
	runWG(t, engine, cu, k, 1)
	if stub.space.Read(0, 1)[0] != 1 || stub.space.Read(64, 1)[0] != 2 {
		t.Error("writes lost")
	}
}

func TestCUEmptyWorkgroupRetiresImmediately(t *testing.T) {
	engine, cu, _ := cuBench(t, DefaultCUConfig())
	k := &Kernel{
		Name: "empty", NumWorkgroups: 1,
		Program: &testProgram{waves: 0},
	}
	runWG(t, engine, cu, k, 1)
	if cu.WGsRetired != 1 {
		t.Error("empty workgroup not retired")
	}
	if !cu.Idle() {
		t.Error("CU not idle")
	}
}

func TestCUManyWGsAcrossAssignBatches(t *testing.T) {
	engine, cu, stub := cuBench(t, DefaultCUConfig())
	k := &Kernel{
		Name: "many", NumWorkgroups: 20,
		Program: &testProgram{waves: 1, start: func(w *Wave) {
			d := make([]byte, 64)
			d[0] = byte(w.WG + 1)
			w.Write(uint64(w.WG)*64, d)
		}},
	}
	runWG(t, engine, cu, k, 20)
	for wg := 0; wg < 20; wg++ {
		if got := stub.space.Read(uint64(wg)*64, 1)[0]; got != byte(wg+1) {
			t.Errorf("wg %d marker = %d", wg, got)
		}
	}
}

// rejecting is a connection that turns every send away.
type rejecting struct{ part *sim.Partition }

func (r rejecting) Send(sim.Time, sim.Msg) bool          { return false }
func (r rejecting) NotifyBufferFree(sim.Time, *sim.Port) {}
func (r rejecting) Plug(p *sim.Port)                     { p.SetConnection(r) }
func (r rejecting) Partition() *sim.Partition            { return r.part }

// TestCURejectedSendReleasesRequest: a request the L1 connection turns away
// goes back to the pool, so retrying every cycle leaks nothing.
func TestCURejectedSendReleasesRequest(t *testing.T) {
	for _, tc := range []struct {
		name  string
		start func(w *Wave)
	}{
		{"read", func(w *Wave) { w.Read(0x40, mem.LineSize, nil, 0) }},
		{"write", func(w *Wave) { w.Write(0x40, make([]byte, mem.LineSize)) }},
	} {
		name, start := tc.name, tc.start
		t.Run(name, func(t *testing.T) {
			engine := sim.NewEngine()
			part := engine.Partition(0)
			cu := NewCU("CU", part, DefaultCUConfig())
			rejecting{part}.Plug(cu.ToL1)
			cu.SetL1(sim.NewPort(nil, "L1.Top", 0))
			cu.Assign(0, &Kernel{Name: name, NumWorkgroups: 1, Program: &testProgram{waves: 1, start: start}}, 0)
			if err := engine.RunUntil(100); err != nil {
				t.Fatal(err)
			}
			if cu.MemReadsIssued+cu.MemWritesIssued != 0 {
				t.Fatalf("%d reads and %d writes issued through a rejecting connection",
					cu.MemReadsIssued, cu.MemWritesIssued)
			}
			if live := mem.PoolOf(part).Live(); live != 0 {
				t.Errorf("%d rejected requests never released", live)
			}
		})
	}
}

// oversubProgram gives every workgroup two wavefronts. Wave 0 reads a line,
// computes, posts a write, waits at a barrier and reads once more. Wave 1
// chains three reads, computes and ends without reaching the barrier, so its
// stream ends while wave 0 may already wait there with its write acked.
type oversubProgram struct{}

func (oversubProgram) Waves(int) int { return 2 }

func (oversubProgram) Next(w *Wave) {
	if w.Step > 0 {
		return
	}
	w.Step++
	base := uint64(w.WG*4+w.Index) * mem.LineSize
	if w.Index == 0 {
		w.Compute(1 + w.WG%3)
		w.Read(base, mem.LineSize, then(func(w *Wave, d []byte) {
			out := append([]byte(nil), d...)
			out[0]++
			w.Compute(2)
			w.Write(base, out)
		}), 0)
		w.Barrier()
		w.Read(base+mem.LineSize, mem.LineSize, nil, 0)
		return
	}
	chain(w, base, 3)
	w.Compute(5 + w.WG%4)
}

// TestCUOversubscribedRetireCycles runs more workgroups than the CU holds
// against a slow memory, so every resident wavefront waits on memory while
// workgroups queue: most of the CU's ticks are ghost ticks. Each
// workgroup's retire cycle and the engine's event count are pinned; a tick
// that skips work it should have done, or schedules differently, moves
// them. A memory that sends its responses from ticks, as a cache does,
// lands them in the cycle of one of the CU's ghost ticks but after it, so
// the touched ghost leaves a stale record that runs the handler on a tick
// with nothing to do. Under poison, the ticker's Check hook must have
// vetted the ghost ticks.
func TestCUOversubscribedRetireCycles(t *testing.T) {
	const wgs = 10
	for _, c := range []struct {
		name      string
		fromTicks bool
		retired   []sim.Time
		events    uint64
	}{
		{"responses from records", false, []sim.Time{493, 496, 494, 495, 984, 985, 991, 994, 1477, 1476}, 1191},
		{"responses from ticks", true, []sim.Time{490, 492, 492, 495, 982, 989, 986, 988, 1477, 1478}, 1330},
	} {
		t.Run(c.name, func(t *testing.T) {
			engine := sim.NewEngine()
			part := engine.Partition(0)
			cu := NewCU("CU", part, CUConfig{IssueWidth: 1, MaxResidentWGs: 4, PortBufferBytes: 8 * 1024})
			stub := newMemStub(part, 120)
			if c.fromTicks {
				stub.sendFromTick()
			}
			conn := sim.NewDirectConnection("conn", part, 1)
			conn.Plug(cu.ToL1)
			conn.Plug(stub.Top)
			cu.SetL1(stub.Top)
			checked := 0
			if sim.Poison {
				check := cu.ticker.Check
				cu.ticker.Check = func(now sim.Time) {
					checked++
					check(now)
				}
			}
			retired := make([]sim.Time, wgs)
			for i := range retired {
				retired[i] = sim.TimeInf
			}
			cu.OnWGDone = func(wg int) { retired[wg] = engine.Now() }
			k := &Kernel{Name: "oversub", NumWorkgroups: wgs, Program: oversubProgram{}}
			for wg := 0; wg < wgs; wg++ {
				cu.Assign(0, k, wg)
			}
			// A bounded run: a workgroup that never retires fails the check
			// below instead of spinning forever.
			if err := engine.RunUntil(100_000); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(retired, c.retired) {
				t.Errorf("retire cycles %v, want %v", retired, c.retired)
			}
			if got := engine.EventCount(); got != c.events {
				t.Errorf("%d events handled, want %d", got, c.events)
			}
			if stub.reads != wgs*5 || stub.writes != wgs {
				t.Errorf("%d reads and %d writes reached memory", stub.reads, stub.writes)
			}
			if err := cu.CheckQuiescent(); err != nil {
				t.Error(err)
			}
			if sim.Poison && checked == 0 {
				t.Error("no ghost tick ran the ticker's Check hook")
			}
		})
	}
}
