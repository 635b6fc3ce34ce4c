//go:build !race

package gpu

import (
	"testing"

	"mgpucompress/internal/mem"
	"mgpucompress/internal/sim"
)

// The compute side's allocation pin: once a CU has warmed its free lists,
// op stacks and maps, running a workgroup whose wavefronts chain reads
// through continuations allocates exactly the request messages it sends.
// The race detector instruments allocations, so the file is excluded under
// -race.

// ringStub is a memory stub that answers from a ring of reused response
// messages, so that every allocation a run makes is the CU's. The ring is
// far deeper than the reads a CU can have outstanding.
type ringStub struct {
	sim.ComponentBase
	part  *sim.Partition
	space *mem.Space
	Top   *sim.Port
	reads [64]*mem.DataReady
	acks  [64]*mem.WriteACK
	next  int
}

func newRingStub(part *sim.Partition) *ringStub {
	s := &ringStub{ComponentBase: sim.NewComponentBase("ring"), part: part, space: mem.NewSpace(1)}
	s.Top = sim.NewPort(s, "ring.Top", 0)
	for i := range s.reads {
		s.reads[i] = mem.NewDataReadyLine(s.Top, nil, 0, 0, mem.LineSize)
		s.acks[i] = mem.NewWriteACK(s.Top, nil, 0, 0)
	}
	return s
}

// Handle sends the record's response once the stub latency has elapsed.
func (s *ringStub) Handle(e *sim.Event) error {
	if !s.Top.Send(e.Time(), e.Msg()) {
		panic("ring stub: send failed")
	}
	return nil
}

func (s *ringStub) NotifyRecv(now sim.Time, p *sim.Port) {
	for {
		m := p.Retrieve(now)
		if m == nil {
			return
		}
		slot := s.next % len(s.reads)
		s.next++
		var rsp sim.Msg
		switch req := m.(type) {
		case *mem.ReadReq:
			d := s.reads[slot]
			d.Dst, d.RspTo, d.Addr = req.Src, req.ID, req.Addr
			s.space.ReadInto(req.Addr, d.Data)
			rsp = d
		case *mem.WriteReq:
			s.space.Write(req.Addr, req.Data)
			a := s.acks[slot]
			a.Dst, a.RspTo, a.Addr = req.Src, req.ID, req.Addr
			rsp = a
		}
		s.part.AssignMsgID(rsp)
		s.part.Schedule(now+20, s, rsp, 0)
	}
}

func (s *ringStub) NotifyPortFree(sim.Time, *sim.Port) {}

// chainProgram runs waves wavefronts that each read reads consecutive
// lines, every read's continuation folding the line into the wavefront's
// state and emitting the next read, and finally write the folded line.
type chainProgram struct {
	waves, reads int
}

func (p *chainProgram) Waves(int) int { return p.waves }

func (p *chainProgram) Next(w *Wave) {
	if w.Step > 0 {
		return
	}
	w.Step++
	*StateOf[[mem.LineSize]byte](w) = [mem.LineSize]byte{}
	w.Read(p.addr(w, 0), mem.LineSize, p, 0)
}

func (p *chainProgram) addr(w *Wave, i int) uint64 {
	return uint64((w.Index*p.reads + i) * mem.LineSize)
}

func (p *chainProgram) Resume(w *Wave, data []byte, i int) {
	acc := StateOf[[mem.LineSize]byte](w)
	for b := range acc {
		acc[b] ^= data[b]
	}
	w.Compute(2)
	if i+1 < p.reads {
		w.Read(p.addr(w, i+1), mem.LineSize, p, i+1)
		return
	}
	w.Write(uint64((64+w.Index)*mem.LineSize), acc[:])
}

// chainBench wires a CU to a ring stub and returns a function that runs one
// workgroup of prog to completion.
func chainBench(tb testing.TB, prog *chainProgram) (run func(), cu *CU) {
	engine := sim.NewEngine()
	part := engine.Partition(0)
	cu = NewCU("CU", part, DefaultCUConfig())
	stub := newRingStub(part)
	conn := sim.NewDirectConnection("conn", part, 1)
	conn.Plug(cu.ToL1)
	conn.Plug(stub.Top)
	cu.SetL1(stub.Top)
	k := &Kernel{Name: "chain", NumWorkgroups: 1, Program: prog}
	done := 0
	cu.OnWGDone = func(int) { done++ }
	return func() {
		want := done + 1
		cu.Assign(engine.Now(), k, 0)
		if err := engine.Run(); err != nil {
			tb.Fatal(err)
		}
		if done != want {
			tb.Fatalf("workgroup did not retire")
		}
	}, cu
}

func TestCUReadContinuationsAllocateOnlyRequests(t *testing.T) {
	prog := &chainProgram{waves: 8, reads: 16}
	run, cu := chainBench(t, prog)
	run() // warm-up: free lists, op stacks, state, maps, engine slab
	got := testing.AllocsPerRun(10, run)
	requests := float64(prog.waves*prog.reads + prog.waves) // reads plus one write per wavefront
	if got != requests {
		t.Errorf("%v allocs per workgroup, want %v (its request messages only)", got, requests)
	}
	// Twelve workgroups ran: the warm-up above, AllocsPerRun's own warm-up
	// and its ten measured runs.
	if cu.MemReadsIssued != uint64(12*prog.waves*prog.reads) {
		t.Errorf("%d reads issued over 12 runs", cu.MemReadsIssued)
	}
}

func BenchmarkCUReadContinuation(b *testing.B) {
	prog := &chainProgram{waves: 8, reads: 16}
	run, _ := chainBench(b, prog)
	run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*prog.waves*prog.reads), "ns/read")
}
