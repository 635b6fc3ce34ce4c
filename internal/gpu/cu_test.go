package gpu

import (
	"bytes"
	"testing"

	"mgpucompress/internal/mem"
	"mgpucompress/internal/sim"
)

// memStub is a single-component memory that answers every request after a
// fixed latency, standing in for the whole cache hierarchy in CU unit
// tests.
type memStub struct {
	sim.ComponentBase
	part    *sim.Partition
	space   *mem.Space
	latency sim.Time
	Top     *sim.Port
	reads   int
	writes  int
}

func newMemStub(part *sim.Partition, latency sim.Time) *memStub {
	s := &memStub{
		ComponentBase: sim.NewComponentBase("memstub"),
		part:          part,
		space:         mem.NewSpace(1),
		latency:       latency,
	}
	s.Top = sim.NewPort(s, "memstub.Top", 0)
	return s
}

// Handle sends the record's response once the stub latency has elapsed.
func (s *memStub) Handle(e *sim.Event) error {
	if !s.Top.Send(e.Time(), e.Msg()) {
		panic("memstub: send failed")
	}
	return nil
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
			rsp = mem.NewDataReady(s.Top, req.Src, req.ID, req.Addr, s.space.Read(req.Addr, req.N))
		case *mem.WriteReq:
			s.writes++
			s.space.Write(req.Addr, req.Data)
			rsp = mem.NewWriteACK(s.Top, req.Src, req.ID, req.Addr)
		}
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

func TestCUExecutesSequentialOps(t *testing.T) {
	engine, cu, stub := cuBench(t, DefaultCUConfig())
	stub.space.Write(0, []byte{1, 2, 3, 4})
	k := &Kernel{
		Name: "seq", NumWorkgroups: 1,
		Program: func(int) [][]Op {
			return [][]Op{{
				ReadOp{Addr: 0, N: 64, Then: func(d []byte) []Op {
					out := append([]byte(nil), d...)
					out[0] = 99
					return []Op{
						ComputeOp{Cycles: 10},
						WriteOp{Addr: 64, Data: out},
					}
				}},
			}}
		},
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

func TestCUInterleavesWavefrontsToHideLatency(t *testing.T) {
	// 8 wavefronts each doing 4 dependent 50-cycle reads. Serial time
	// would be ≈ 8×4×52; an interleaving CU overlaps them so total is
	// ≈ 4×52 plus issue overhead.
	engine, cu, _ := cuBench(t, DefaultCUConfig())
	k := &Kernel{
		Name: "overlap", NumWorkgroups: 1,
		Program: func(int) [][]Op {
			streams := make([][]Op, 8)
			for w := range streams {
				addr := uint64(w) * 64
				var chain func(n int) []Op
				chain = func(n int) []Op {
					if n == 0 {
						return nil
					}
					return []Op{ReadOp{Addr: addr, N: 64, Then: func([]byte) []Op {
						return chain(n - 1)
					}}}
				}
				streams[w] = chain(4)
			}
			return streams
		},
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
		Program: func(int) [][]Op {
			streams := make([][]Op, 16)
			for w := range streams {
				streams[w] = []Op{ReadOp{Addr: uint64(w) * 64, N: 64}}
			}
			return streams
		},
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
		Program: func(int) [][]Op {
			return [][]Op{{
				ReadOp{Addr: 0, N: 64},
				ComputeOp{Cycles: 20},
			}}
		},
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
		Program: func(int) [][]Op {
			return [][]Op{{
				WriteOp{Addr: 0, Data: make([]byte, 64)},
				WriteOp{Addr: 64, Data: make([]byte, 64)},
			}}
		},
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
	k := &Kernel{
		Name: "barrier3", NumWorkgroups: 1,
		Program: func(int) [][]Op {
			mk := func(pre int, addr uint64, b byte) []Op {
				return []Op{
					ComputeOp{Cycles: pre},
					WriteOp{Addr: addr, Data: marker(b)},
					BarrierOp{},
					ReadOp{Addr: 0, N: 64, Then: func(d []byte) []Op {
						// After the barrier every wavefront must see wf0's
						// write at address 0.
						if d[0] != 1 {
							panic("barrier violated")
						}
						return nil
					}},
				}
			}
			return [][]Op{
				mk(100, 0, 1),
				mk(5, 64, 2),
				mk(1, 128, 3),
			}
		},
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
		Program: func(int) [][]Op { return nil },
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
		Program: func(wg int) [][]Op {
			d := make([]byte, 64)
			d[0] = byte(wg + 1)
			return [][]Op{{WriteOp{Addr: uint64(wg) * 64, Data: d}}}
		},
	}
	runWG(t, engine, cu, k, 20)
	for wg := 0; wg < 20; wg++ {
		if got := stub.space.Read(uint64(wg)*64, 1)[0]; got != byte(wg+1) {
			t.Errorf("wg %d marker = %d", wg, got)
		}
	}
}
