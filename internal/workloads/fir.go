package workloads

import (
	"fmt"
	"math/rand"

	"mgpucompress/internal/gpu"
	"mgpucompress/internal/mem"
	"mgpucompress/internal/platform"
)

// FIR implements the Table IV Finite Impulse Response filter. The signal is
// a stream of 64-bit fixed-point sensor samples riding on a large DC
// offset — the low-dynamic-range pattern BDI exploits (Table V shows BDI
// 2.41 vs FPC 1.00 on FIR). The benchmark has two phases, visible as the
// two regimes of Fig. 1c/1d: a setup kernel over tagged index metadata
// (compressible by FPC/C-Pack+Z but not BDI) followed by the filter kernel
// over the DC-offset samples (compressible by BDI, not FPC).
type FIR struct {
	seeded
	scale Scale

	numTaps    int
	taps       []int64
	n          int // samples
	input      mem.Buffer
	indexTab   mem.Buffer
	outputs    []mem.Buffer
	tabLines   int
	linesPerWG int
	numWGs     int
}

// NewFIR builds the FIR benchmark.
func NewFIR(scale Scale) *FIR { return &FIR{scale: scale} }

// Abbrev implements Workload.
func (f *FIR) Abbrev() string { return "FIR" }

// Name implements Workload.
func (f *FIR) Name() string { return "Finite Impulse Response Filter" }

// Description implements Workload.
func (f *FIR) Description() string {
	return "A fundamental algorithm from the digital signal processing domain which has adjacent access pattern."
}

const firSamplesPerLine = mem.LineSize / 8

// firLinesPerWG is the filter kernel's output lines per workgroup; each
// workgroup also reads the two input lines before its chunk (the 16-tap
// history spans at most 15 earlier samples).
const firLinesPerWG = 4

// firDC is the sensor DC offset: samples vary only in their low 2 bytes.
const firDC = uint64(0x4012340000560000)

func firSample(r *rand.Rand) uint64 {
	return firDC + uint64(r.Intn(32768))
}

// Setup implements Workload.
func (f *FIR) Setup(p *platform.Platform) error {
	r := f.rng(0xF17)
	f.numTaps = 16
	f.taps = make([]int64, f.numTaps)
	for i := range f.taps {
		f.taps[i] = int64(r.Intn(17) - 8)
	}

	f.n = 2048 * int(f.scale)
	f.linesPerWG = firLinesPerWG
	f.numWGs = f.n / firSamplesPerLine / f.linesPerWG

	f.input = p.Space.AllocStriped(uint64(f.n * 8))
	raw := make([]byte, f.n*8)
	for i := 0; i < f.n; i++ {
		putU64(raw[i*8:], firSample(r))
	}
	f.input.Write(0, raw)

	// Index/tag table for the setup phase: word pairs of (small counter,
	// tag<<16) where the tags come from two distant families. FPC encodes
	// both word classes (4-bit / halfword-padded) and C-Pack+Z partially
	// matches the tags, but BDI finds no single base that covers both tag
	// families — the Fig. 1c phase-1 behaviour (FPC and C-Pack+Z compress,
	// BDI cannot).
	// The table is metadata: its size is scale-independent, like the
	// launch/setup structures of a real runtime. 128 lines puts the
	// Fig. 1c phase flip inside the paper's 500-transfer window.
	f.tabLines = 128
	f.indexTab = p.Space.AllocStriped(uint64(f.tabLines * mem.LineSize))
	tab := make([]byte, f.tabLines*mem.LineSize)
	for w := 0; w < len(tab)/4; w++ {
		switch w % 4 {
		case 0, 2:
			putU32(tab[w*4:], uint32(w%16))
		case 1:
			putU32(tab[w*4:], uint32(0x2A00+w%64)<<16)
		case 3:
			putU32(tab[w*4:], uint32(0x0700+w%32)<<16)
		}
	}
	f.indexTab.Write(0, tab)

	perGPU := f.gpuPartitionLines(p) * mem.LineSize
	f.outputs = f.outputs[:0]
	for g := range p.GPUs {
		f.outputs = append(f.outputs, p.Space.AllocOnGPU(g, uint64(perGPU)))
	}
	return nil
}

func (f *FIR) gpuPartitionLines(p *platform.Platform) int {
	totalCUs := p.TotalCUs()
	cusPerGPU := len(p.GPUs[0].CUs)
	return (f.numWGs+totalCUs-1)/totalCUs*cusPerGPU*f.linesPerWG + f.linesPerWG
}

func (f *FIR) outputSlot(p *platform.Platform, wg int) (int, int) {
	totalCUs := p.TotalCUs()
	cusPerGPU := len(p.GPUs[0].CUs)
	cu := wg % totalCUs
	g := cu / cusPerGPU
	rank := wg/totalCUs*cusPerGPU + (cu - g*cusPerGPU)
	return g, rank * f.linesPerWG
}

// Run implements Workload.
func (f *FIR) Run(p *platform.Platform) error {
	if err := f.runSetupKernel(p); err != nil {
		return err
	}
	return f.runFilterKernel(p)
}

// runSetupKernel streams the index table, bumping each counter word —
// phase 1 of Fig. 1c.
func (f *FIR) runSetupKernel(p *platform.Platform) error {
	linesPerWG := 4
	k := &gpu.Kernel{
		Name:          "fir_setup",
		NumWorkgroups: (f.tabLines + linesPerWG - 1) / linesPerWG,
		Args:          argsBlock([]uint64{f.indexTab.Base()}, []uint32{uint32(f.tabLines)}),
		Program:       &firSetup{f: f, linesPerWG: linesPerWG},
	}
	return p.Driver.Launch(k)
}

// firSetup is the setup kernel: one wavefront per workgroup reads each of
// its table lines and writes it back with the counter words bumped.
type firSetup struct {
	f          *FIR
	linesPerWG int
}

func (k *firSetup) Waves(int) int { return 1 }

func (k *firSetup) Next(w *gpu.Wave) {
	line := w.WG*k.linesPerWG + w.Step
	if w.Step == k.linesPerWG || line >= k.f.tabLines {
		return
	}
	w.Step++
	w.Read(k.f.indexTab.Addr(uint64(line)*mem.LineSize), mem.LineSize, k, line)
}

func (k *firSetup) Resume(w *gpu.Wave, data []byte, line int) {
	out := gpu.StateOf[[mem.LineSize]byte](w)
	copy(out[:], data)
	for i := 0; i < mem.LineSize/4; i += 2 {
		putU32(out[i*4:], readU32(out[i*4:])+1)
	}
	w.Compute(4)
	w.Write(k.f.indexTab.Addr(uint64(line)*mem.LineSize), out[:])
}

// runFilterKernel is the FIR filter proper — phase 2 of Fig. 1c.
func (f *FIR) runFilterKernel(p *platform.Platform) error {
	k := &gpu.Kernel{
		Name:          "fir_filter",
		NumWorkgroups: f.numWGs,
		Args: argsBlock(
			[]uint64{f.input.Base(), f.outputs[0].Base()},
			[]uint32{uint32(f.n), uint32(f.numTaps)},
		),
		Program: &firFilter{f: f, p: p},
	}
	return p.Driver.Launch(k)
}

// firFilter is the filter kernel: one wavefront per workgroup reads its
// chunk plus two halo lines before it (arg is the input line), each
// continuation emitting the next read, then computes all outputs and
// writes them to the GPU-local partition.
type firFilter struct {
	f *FIR
	p *platform.Platform
}

// firWave is a wavefront's reused state: the input lines firstLine-2 ..
// firstLine+firLinesPerWG-1 and the output lines.
type firWave struct {
	lines [firLinesPerWG + 2][mem.LineSize]byte
	out   [firLinesPerWG][mem.LineSize]byte
}

func (k *firFilter) Waves(int) int { return 1 }

func (k *firFilter) Next(w *gpu.Wave) {
	if w.Step > 0 {
		return
	}
	w.Step++
	k.read(w, max(w.WG*k.f.linesPerWG-2, 0))
}

func (k *firFilter) read(w *gpu.Wave, l int) {
	w.Read(k.f.input.Addr(uint64(l)*mem.LineSize), mem.LineSize, k, l)
}

func (k *firFilter) Resume(w *gpu.Wave, data []byte, l int) {
	f, st := k.f, gpu.StateOf[firWave](w)
	firstLine := w.WG * f.linesPerWG
	copy(st.lines[l-(firstLine-2)][:], data)
	if l+1 < firstLine+f.linesPerWG {
		k.read(w, l+1)
		return
	}
	g, outLine := f.outputSlot(k.p, w.WG)
	out := f.outputs[g]
	sample := func(i int) uint64 {
		if i < 0 {
			return 0
		}
		idx := i/firSamplesPerLine - (firstLine - 2)
		if idx < 0 {
			return 0 // before the lines read
		}
		e := i % firSamplesPerLine
		var v uint64
		for b := 0; b < 8; b++ {
			v |= uint64(st.lines[idx][e*8+b]) << (8 * b)
		}
		return v
	}
	w.Compute(8 * f.linesPerWG * firSamplesPerLine / 4)
	for s := 0; s < f.linesPerWG; s++ {
		for e := 0; e < firSamplesPerLine; e++ {
			i := (firstLine+s)*firSamplesPerLine + e
			var acc uint64
			for t := 0; t < f.numTaps; t++ {
				acc += uint64(f.taps[t]) * sample(i-t)
			}
			putU64(st.out[s][e*8:], acc)
		}
		w.Write(out.Addr(uint64(outLine+s)*mem.LineSize), st.out[s][:])
	}
}

// Verify implements Workload.
func (f *FIR) Verify(p *platform.Platform) error {
	raw := f.input.Read(0, f.n*8)
	x := make([]uint64, f.n)
	for i := range x {
		for b := 0; b < 8; b++ {
			x[i] |= uint64(raw[i*8+b]) << (8 * b)
		}
	}
	for wg := 0; wg < f.numWGs; wg++ {
		g, outLine := f.outputSlot(p, wg)
		got := f.outputs[g].Read(uint64(outLine)*mem.LineSize, f.linesPerWG*mem.LineSize)
		for s := 0; s < f.linesPerWG; s++ {
			for e := 0; e < firSamplesPerLine; e++ {
				i := (wg*f.linesPerWG+s)*firSamplesPerLine + e
				var want uint64
				for t := 0; t < f.numTaps; t++ {
					if i-t >= 0 {
						want += uint64(f.taps[t]) * x[i-t]
					}
				}
				var gotV uint64
				for b := 0; b < 8; b++ {
					gotV |= uint64(got[(s*firSamplesPerLine+e)*8+b]) << (8 * b)
				}
				if gotV != want {
					return fmt.Errorf("FIR: y[%d] = %#x, want %#x", i, gotV, want)
				}
			}
		}
	}
	return nil
}
