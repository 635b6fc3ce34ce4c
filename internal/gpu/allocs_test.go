//go:build !race

package gpu

import (
	"testing"

	"mgpucompress/internal/mem"
	"mgpucompress/internal/sim"
)

// The compute side's allocation pin: once a CU has warmed its free lists,
// op stacks, maps and the partition's message pool, running a workgroup
// whose wavefronts chain reads through continuations allocates nothing,
// request messages included. The race detector instruments allocations, so
// the file is excluded under -race.

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

// chainBench wires a CU to a memory stub and returns a function that runs one
// workgroup of prog to completion.
func chainBench(tb testing.TB, prog *chainProgram) (run func(), cu *CU) {
	engine := sim.NewEngine()
	part := engine.Partition(0)
	cu = NewCU("CU", part, DefaultCUConfig())
	stub := newMemStub(part, 20)
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

func TestCUReadContinuationsAllocationFree(t *testing.T) {
	if sim.Poison {
		t.Skip("poison builds quarantine released messages instead of reusing them")
	}
	prog := &chainProgram{waves: 8, reads: 16}
	run, cu := chainBench(t, prog)
	run() // warm-up: free lists, op stacks, state, maps, engine slab, message pool
	if got := testing.AllocsPerRun(10, run); got != 0 {
		t.Errorf("%v allocs per workgroup, want 0", got)
	}
	// Twelve workgroups ran: the warm-up above, AllocsPerRun's own warm-up
	// and its ten measured runs.
	if cu.MemReadsIssued != uint64(12*prog.waves*prog.reads) {
		t.Errorf("%d reads issued over 12 runs", cu.MemReadsIssued)
	}
}

// TestCUQuietTickAllocationFree pins a full tick with nothing to do at
// zero allocations: the tick of an oversubscribed CU whose resident
// wavefronts all wait on memory drains, activates, issues and retires
// nothing, so it only scans and re-arms.
func TestCUQuietTickAllocationFree(t *testing.T) {
	const wgs = 6 // more than DefaultCUConfig's 4 resident slots
	prog := &chainProgram{waves: 2, reads: 4}
	engine := sim.NewEngine()
	part := engine.Partition(0)
	cu := NewCU("CU", part, DefaultCUConfig())
	stub := newMemStub(part, 100)
	conn := sim.NewDirectConnection("conn", part, 1)
	conn.Plug(cu.ToL1)
	conn.Plug(stub.Top)
	cu.SetL1(stub.Top)
	k := &Kernel{Name: "quiet", NumWorkgroups: wgs, Program: prog}
	batch := func() {
		for wg := 0; wg < wgs; wg++ {
			cu.Assign(engine.Now(), k, wg)
		}
	}
	// Runs are bounded, so a CU that spins without progress fails the
	// retire check below instead of hanging.
	batch() // warm-up: free lists, op stacks, state, maps, engine slab, message pool
	if err := engine.RunUntil(100_000); err != nil {
		t.Fatal(err)
	}
	batch()
	// Every resident wavefront has issued its first read by now, and the
	// first response is 100 cycles away.
	if err := engine.RunUntil(engine.Now() + 20); err != nil {
		t.Fatal(err)
	}
	now := engine.Now()
	if cu.queue.Len() == 0 || !cu.settled || cu.wake <= now {
		t.Fatalf("CU not quiet at %d: %d queued, settled %v, wake %d", now, cu.queue.Len(), cu.settled, cu.wake)
	}
	if got := testing.AllocsPerRun(100, func() { cu.tick(now) }); got != 0 {
		t.Errorf("%v allocs per quiet tick, want 0", got)
	}
	// The extra ticks changed nothing: the batch still runs to the end.
	if err := engine.RunUntil(200_000); err != nil {
		t.Fatal(err)
	}
	if cu.WGsRetired != 2*wgs || stub.reads != 2*wgs*prog.waves*prog.reads {
		t.Errorf("%d workgroups retired after %d reads", cu.WGsRetired, stub.reads)
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
