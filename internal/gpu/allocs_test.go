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
