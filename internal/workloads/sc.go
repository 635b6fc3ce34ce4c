package workloads

import (
	"fmt"

	"mgpucompress/internal/gpu"
	"mgpucompress/internal/mem"
	"mgpucompress/internal/platform"
)

// SC implements the Table IV Simple Convolution benchmark: a 3×3 integer
// blur over an image with zero-padded margins. The image is partitioned
// across GPUs, and reading the halo pixels outside a tile's boundary is
// exactly the inter-GPU exchange the paper describes. Pixels are smooth
// 18-bit luminance values, so neighboring words share their upper bytes:
// BDI compresses them best (2.69 in Table V), C-Pack+Z partially matches
// them (1.82), and FPC — with no applicable word pattern — ships nearly
// everything raw (1.03). The zero margin lines add fully-compressible
// transfers, and a metadata staging kernel gives SC the phase structure of
// Fig. 1a/1b (C-Pack+Z wins the first phase, BDI the second).
type SC struct {
	seeded
	scale Scale

	w, h       int // image dimensions, excluding padding
	pw         int // padded width (one 16-pixel line of margin each side)
	stage      mem.Buffer
	image      mem.Buffer // padded (h+2) × pw pixels
	outputs    []mem.Buffer
	stageLines int
	rowsPerWG  int
	numWGs     int
}

// NewSC builds the Simple Convolution benchmark.
func NewSC(scale Scale) *SC { return &SC{scale: scale} }

// Abbrev implements Workload.
func (s *SC) Abbrev() string { return "SC" }

// Name implements Workload.
func (s *SC) Name() string { return "Simple Convolution" }

// Description implements Workload.
func (s *SC) Description() string {
	return "An important operation in convolutional neural networks and image processing applications."
}

const pixPerLine = mem.LineSize / 4

// scWeights is the 3×3 blur kernel.
var scWeights = [3][3]int32{{1, 2, 1}, {2, 4, 2}, {1, 2, 1}}

// scPixel is the luminance at unpadded coordinates (x, y): a smooth ramp
// with mild texture, offset so values exceed FPC's halfword range.
func scPixel(x, y int) int32 {
	return 1<<18 + int32(x*3+y*5) + int32((x*x+y*y)%17)
}

// Setup implements Workload.
func (s *SC) Setup(p *platform.Platform) error {
	s.w = 64 * int(s.scale)
	s.h = 64 * int(s.scale)
	s.pw = s.w + 2*pixPerLine
	s.rowsPerWG = 2
	s.numWGs = s.h / s.rowsPerWG

	// Padded image: one zero margin line left and right, one zero row above
	// and below.
	s.image = p.Space.AllocStriped(uint64((s.h + 2) * s.pw * 4))
	row := make([]byte, s.pw*4)
	for y := 0; y < s.h; y++ {
		for i := range row {
			row[i] = 0
		}
		for x := 0; x < s.w; x++ {
			putU32(row[(pixPerLine+x)*4:], uint32(scPixel(x, y)))
		}
		s.image.Write(uint64((y+1)*s.pw)*4, row)
	}

	// Metadata staging table (phase 1): per-tile descriptors where one
	// halfword-range descriptor word repeats ten times (C-Pack+Z inserts
	// it once and full-matches the rest at 8 bits, beating FPC's 19-bit
	// halfword encoding), plus a counter, two distant tag families that
	// defeat BDI's single base, and reserved zeros. This is the Fig. 1a
	// phase-1 behaviour: C-Pack+Z best, FPC second, BDI raw — before the
	// flip to BDI in the pixel phase. Like any launch metadata, the table
	// size does not scale with the image.
	s.stageLines = 128
	s.stage = p.Space.AllocStriped(uint64(s.stageLines * mem.LineSize))
	tab := make([]byte, s.stageLines*mem.LineSize)
	for l := 0; l < s.stageLines; l++ {
		desc := uint32(0x1200 + l%64) // tile descriptor, beyond byte range
		for w := 0; w < 10; w++ {
			putU32(tab[(l*16+w)*4:], desc)
		}
		putU32(tab[(l*16+10)*4:], uint32(l%(s.h/s.rowsPerWG)))
		putU32(tab[(l*16+11)*4:], uint32(0x5C00+l%16)<<16)
		putU32(tab[(l*16+12)*4:], uint32(0x0300+l%8)<<16)
		// words 13..15 stay zero (reserved fields)
	}
	s.stage.Write(0, tab)

	// One rank of slack past the grid's last round.
	perGPU := uint64((placement(p).Ranks(s.numWGs) + 1) * s.rowsPerWG * s.rowBytes())
	s.outputs = s.outputs[:0]
	for g := range p.GPUs {
		s.outputs = append(s.outputs, p.Space.AllocOnGPU(g, perGPU))
	}
	return nil
}

func (s *SC) rowBytes() int { return s.w * 4 }

func (s *SC) outputSlot(p *platform.Platform, wg int) (gpuIdx int, byteOff uint64) {
	g, rank := placement(p).Of(wg)
	return g, uint64(rank * s.rowsPerWG * s.rowBytes())
}

// paddedAddr returns the address of padded pixel (px, py) where px is in
// [0, pw) and py in [0, h+2).
func (s *SC) paddedAddr(px, py int) uint64 {
	return s.image.Addr(uint64(py*s.pw+px) * 4)
}

// Run implements Workload.
func (s *SC) Run(p *platform.Platform) error {
	if err := s.runStageKernel(p); err != nil {
		return err
	}
	return s.runConvKernel(p)
}

// runStageKernel streams the tile-descriptor table (phase 1 of Fig. 1a).
func (s *SC) runStageKernel(p *platform.Platform) error {
	linesPerWG := 4
	k := &gpu.Kernel{
		Name:          "sc_stage",
		NumWorkgroups: (s.stageLines + linesPerWG - 1) / linesPerWG,
		Args:          argsBlock([]uint64{s.stage.Base()}, []uint32{uint32(s.stageLines)}),
		Program:       &scStage{s: s, linesPerWG: linesPerWG},
	}
	return p.Driver.Launch(k)
}

// scStage is the staging kernel: one wavefront per workgroup reads each of
// its table lines and writes it back with the visit counter bumped.
type scStage struct {
	s          *SC
	linesPerWG int
}

func (k *scStage) Waves(int) int { return 1 }

func (k *scStage) Next(w *gpu.Wave) {
	line := w.WG*k.linesPerWG + w.Step
	if w.Step == k.linesPerWG || line >= k.s.stageLines {
		return
	}
	w.Step++
	w.Read(k.s.stage.Addr(uint64(line)*mem.LineSize), mem.LineSize, k, line)
}

func (k *scStage) Resume(w *gpu.Wave, data []byte, line int) {
	out := gpu.StateOf[[mem.LineSize]byte](w)
	copy(out[:], data)
	putU32(out[10*4:], readU32(out[10*4:])+1) // visit counter
	w.Compute(2)
	w.Write(k.s.stage.Addr(uint64(line)*mem.LineSize), out[:])
}

// runConvKernel is the convolution (phase 2). Each workgroup produces
// rowsPerWG output rows; for every output line it gathers the 3×3 halo of
// input lines (9 reads, many remote) and writes one GPU-local output line.
func (s *SC) runConvKernel(p *platform.Platform) error {
	k := &gpu.Kernel{
		Name:          "sc_conv3x3",
		NumWorkgroups: s.numWGs,
		Args: argsBlock(
			[]uint64{s.image.Base(), s.outputs[0].Base()},
			[]uint32{uint32(s.w), uint32(s.h), 3},
		),
		Program: &scConv{s: s, p: p, linesPerRow: s.w / pixPerLine},
	}
	return p.Driver.Launch(k)
}

// scConv is the convolution kernel. Step counts the output lines started;
// the nine reads of a line chain through Resume, whose arg is the index of
// the neighbour line just read (row-major over the 3×3 line halo).
type scConv struct {
	s           *SC
	p           *platform.Platform
	linesPerRow int
}

// scConvWave is a wavefront's reused per-line state.
type scConvWave struct {
	out    mem.Buffer
	outOff uint64
	nb     [9][mem.LineSize]byte // the 3×3 input lines around the output line
	line   [mem.LineSize]byte    // the output line
}

func (k *scConv) Waves(int) int { return 1 }

func (k *scConv) Next(w *gpu.Wave) {
	if w.Step == k.s.rowsPerWG*k.linesPerRow {
		return
	}
	if w.Step == 0 {
		st := gpu.StateOf[scConvWave](w)
		g, off := k.s.outputSlot(k.p, w.WG)
		st.out, st.outOff = k.s.outputs[g], off
	}
	w.Step++
	k.read(w, 0)
}

// current returns the workgroup row r, image row y and line column lx of
// the output line the wavefront is computing.
func (k *scConv) current(w *gpu.Wave) (r, y, lx int) {
	line := w.Step - 1
	r, lx = line/k.linesPerRow, line%k.linesPerRow
	return r, w.WG*k.s.rowsPerWG + r, lx
}

// read emits the read of neighbour line i of the current output line.
// Padded coordinates: output pixel (x, y) reads padded rows y..y+2 and
// padded columns (pixPerLine+x-1)..(pixPerLine+x+1).
func (k *scConv) read(w *gpu.Wave, i int) {
	_, y, lx := k.current(w)
	col := lx + i%3 // padded line column: the output's is 1+lx
	w.Read(k.s.paddedAddr(col*pixPerLine, y+i/3), mem.LineSize, k, i)
}

func (k *scConv) Resume(w *gpu.Wave, data []byte, i int) {
	st := gpu.StateOf[scConvWave](w)
	copy(st.nb[i][:], data)
	if i+1 < len(st.nb) {
		k.read(w, i+1)
		return
	}
	r, _, lx := k.current(w)
	baseCol := pixPerLine + lx*pixPerLine // padded column of output pixel 0
	for e := 0; e < pixPerLine; e++ {
		var acc int32
		for ky := 0; ky < 3; ky++ {
			for kx := -1; kx <= 1; kx++ {
				col := baseCol + e + kx
				nb := st.nb[ky*3+col/pixPerLine-baseCol/pixPerLine+1][:]
				acc += scWeights[ky][kx+1] * int32(readU32(nb[col%pixPerLine*4:]))
			}
		}
		putU32(st.line[e*4:], uint32(acc))
	}
	w.Compute(18)
	w.Write(st.out.Addr(st.outOff+uint64((r*k.linesPerRow+lx)*mem.LineSize)), st.line[:])
}

// Verify implements Workload.
func (s *SC) Verify(p *platform.Platform) error {
	padded := func(x, y int) int32 {
		if x < 0 || x >= s.w || y < 0 || y >= s.h {
			return 0
		}
		return scPixel(x, y)
	}
	linesPerRow := s.w / pixPerLine
	for wg := 0; wg < s.numWGs; wg++ {
		g, outOff := s.outputSlot(p, wg)
		got := s.outputs[g].Read(outOff, s.rowsPerWG*s.rowBytes())
		for r := 0; r < s.rowsPerWG; r++ {
			y := wg*s.rowsPerWG + r
			for x := 0; x < s.w; x++ {
				var want int32
				for ky := -1; ky <= 1; ky++ {
					for kx := -1; kx <= 1; kx++ {
						want += scWeights[ky+1][kx+1] * padded(x+kx, y+ky)
					}
				}
				gotV := int32(readU32(got[(r*linesPerRow*pixPerLine+x)*4:]))
				if gotV != want {
					return fmt.Errorf("SC: out(%d,%d) = %d, want %d", x, y, gotV, want)
				}
			}
		}
	}
	return nil
}
