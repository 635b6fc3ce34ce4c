// Custom workload: build your own multi-GPU kernel against the platform's
// wavefront-operation API and measure how inter-GPU compression treats its
// traffic. The example implements a 1D Jacobi (3-point stencil) iteration —
// a workload the paper does not include — with halo exchange between
// GPU-striped partitions.
//
//	go run ./examples/custom_workload
package main

import (
	"encoding/binary"
	"fmt"
	"log"

	"mgpucompress/internal/core"
	"mgpucompress/internal/gpu"
	"mgpucompress/internal/mem"
	"mgpucompress/internal/platform"
)

const (
	cells        = 4096 // 32-bit cells
	cellsPerLine = mem.LineSize / 4
	iterations   = 4
)

func main() {
	log.SetFlags(0)
	for _, policy := range []string{"none", "bdi", "adaptive"} {
		run(policy)
	}
}

func run(policy string) {
	cfg := platform.DefaultConfig()
	if policy != "none" {
		id, err := core.ParsePolicy(policy)
		if err != nil {
			log.Fatal(err)
		}
		newPolicy, err := core.PolicyFactory(id, 6)
		if err != nil {
			log.Fatal(err)
		}
		cfg.NewPolicy = func(int) core.Policy { return newPolicy() }
	}
	p, _ := platform.Build(cfg)

	// Two ping-pong buffers striped across the four GPUs.
	bufA := p.Space.AllocStriped(cells * 4)
	bufB := p.Space.AllocStriped(cells * 4)

	// Smooth initial condition: low dynamic range, so halo traffic is
	// compressible (BDI territory).
	init := make([]byte, cells*4)
	for i := 0; i < cells; i++ {
		binary.LittleEndian.PutUint32(init[i*4:], uint32(1<<20+i/4))
	}
	bufA.Write(0, init)

	src, dst := bufA, bufB
	for it := 0; it < iterations; it++ {
		if err := p.Driver.Launch(jacobiKernel(src, dst)); err != nil {
			log.Fatal(err)
		}
		src, dst = dst, src
	}

	// Verify against a host-side reference.
	ref := make([]uint32, cells)
	for i := range ref {
		ref[i] = uint32(1<<20 + i/4)
	}
	for it := 0; it < iterations; it++ {
		next := make([]uint32, cells)
		for i := range ref {
			next[i] = jacobiCell(ref, i)
		}
		ref = next
	}
	got := src.Read(0, cells*4)
	for i := range ref {
		if v := binary.LittleEndian.Uint32(got[i*4:]); v != ref[i] {
			log.Fatalf("cell %d = %d, want %d", i, v, ref[i])
		}
	}

	fmt.Printf("%-9s exec %8d cycles  fabric %8d bytes  bus util %.0f%%\n",
		policy, p.ExecCycles(), p.Bus.TotalBytes(), 100*p.Bus.Utilization(p.ExecCycles()))
}

func jacobiCell(cur []uint32, i int) uint32 {
	l, r := uint32(0), uint32(0)
	if i > 0 {
		l = cur[i-1]
	}
	if i < len(cur)-1 {
		r = cur[i+1]
	}
	return (l + 2*cur[i] + r) / 4
}

// jacobiKernel updates every cell from src into dst: each workgroup owns a
// run of lines and reads one halo line on each side.
func jacobiKernel(src, dst mem.Buffer) *gpu.Kernel {
	return &gpu.Kernel{
		Name:          "jacobi3",
		NumWorkgroups: cells / cellsPerLine / linesPerWG,
		Args:          make([]byte, 48),
		Program:       &jacobi{src: src, dst: dst},
	}
}

const linesPerWG = 4

// jacobi is the kernel's program. A program generates each wavefront's
// operations on demand: Next starts the stream, and every read names a
// continuation (here the program itself) that receives the line and emits
// what follows — the next read, or the compute and the writes. The read's
// data is only lent for the call, so Resume copies it into the wavefront's
// reused state.
type jacobi struct {
	src, dst mem.Buffer
}

// jacobiWave is a wavefront's state: the owned lines with one halo line on
// each side (index 0 is line first-1), and the output lines.
type jacobiWave struct {
	in  [linesPerWG + 2][mem.LineSize]byte
	out [linesPerWG][mem.LineSize]byte
}

// Waves implements gpu.Program: one wavefront per workgroup.
func (k *jacobi) Waves(int) int { return 1 }

// span returns the lines workgroup wg reads: its own plus the halo, clipped
// to the buffer.
func span(wg int) (first, lo, hi int) {
	first = wg * linesPerWG
	lo = max(first-1, 0)
	hi = min(first+linesPerWG, cells/cellsPerLine-1)
	return first, lo, hi
}

// Next implements gpu.Program: the stream is one chain of reads started by
// the first one; Step records that it has started.
func (k *jacobi) Next(w *gpu.Wave) {
	if w.Step > 0 {
		return
	}
	w.Step++
	_, lo, _ := span(w.WG)
	w.Read(k.src.Addr(uint64(lo)*mem.LineSize), mem.LineSize, k, lo)
}

// Resume implements gpu.Continuation: line l has arrived.
func (k *jacobi) Resume(w *gpu.Wave, data []byte, l int) {
	st := gpu.StateOf[jacobiWave](w)
	first, lo, hi := span(w.WG)
	copy(st.in[l-(first-1)][:], data)
	if l < hi {
		w.Read(k.src.Addr(uint64(l+1)*mem.LineSize), mem.LineSize, k, l+1)
		return
	}
	cell := func(i int) uint32 {
		if i < 0 || i >= cells || i/cellsPerLine < lo || i/cellsPerLine > hi {
			return 0
		}
		return binary.LittleEndian.Uint32(st.in[i/cellsPerLine-(first-1)][i%cellsPerLine*4:])
	}
	w.Compute(linesPerWG * cellsPerLine / 8)
	for s := 0; s < linesPerWG; s++ {
		for e := 0; e < cellsPerLine; e++ {
			i := (first+s)*cellsPerLine + e
			var v uint32
			switch {
			case i == 0:
				v = (2*cell(0) + cell(1)) / 4
			case i == cells-1:
				v = (cell(i-1) + 2*cell(i)) / 4
			default:
				v = (cell(i-1) + 2*cell(i) + cell(i+1)) / 4
			}
			binary.LittleEndian.PutUint32(st.out[s][e*4:], v)
		}
		w.Write(k.dst.Addr(uint64(first+s)*mem.LineSize), st.out[s][:])
	}
}
