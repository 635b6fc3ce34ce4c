package workloads

import (
	"fmt"
	"sort"

	"mgpucompress/internal/gpu"
	"mgpucompress/internal/mem"
	"mgpucompress/internal/platform"
)

// BS implements the Table IV Bitonic Sort benchmark. Bitonic sort launches
// log²(n) kernels over a modest input — the structure the paper highlights:
// a very large number of kernel launches whose zero-heavy metadata and
// sparse data make BS the most compressible benchmark (entropy 0.02). The
// input models a sparse key array: mostly zeros with a scattering of small
// keys, sorted in ascending order.
type BS struct {
	seeded
	scale Scale

	n       int // element count, power of two
	data    mem.Buffer
	initial []uint32
	kernels int
}

// NewBS builds the Bitonic Sort benchmark.
func NewBS(scale Scale) *BS { return &BS{scale: scale} }

// Abbrev implements Workload.
func (b *BS) Abbrev() string { return "BS" }

// Name implements Workload.
func (b *BS) Name() string { return "Bitonic Sort" }

// Description implements Workload.
func (b *BS) Description() string {
	return "Sorting algorithm with a irregular access pattern, suits the GPU's massively parallel architecture."
}

const elemsPerLine = mem.LineSize / 4

// Setup implements Workload.
func (b *BS) Setup(p *platform.Platform) error {
	b.n = 1024 * int(b.scale)
	if b.n&(b.n-1) != 0 {
		// Round up to a power of two.
		v := 1
		for v < b.n {
			v <<= 1
		}
		b.n = v
	}
	r := b.rng(0xB5)
	b.initial = make([]uint32, b.n)
	// Very sparse keys (~5% nonzero) arranged in small runs of equal
	// values, with each key a bucket tag shifted into the upper halfword —
	// the zero-dominated, metadata-like content the paper reports for BS
	// (entropy 0.02). All-zero lines favor C-Pack+Z (2 bits) over FPC
	// (3 bits); on the sparse lines C-Pack+Z full-matches the repeated
	// keys, FPC uses its halfword-padded pattern, and BDI — faced with
	// multiple distant bases — ships many of them raw. Together this
	// reproduces the Table V ordering C-Pack+Z 37 > FPC 32 >> BDI 10.
	vocab := make([]uint32, 24)
	for i := range vocab {
		vocab[i] = uint32(256+r.Intn(3840)) << 16
	}
	for i := 0; i < b.n; {
		if r.Intn(1000) < 18 {
			key := vocab[r.Intn(len(vocab))]
			run := 2 + r.Intn(3)
			for j := 0; j < run && i < b.n; j++ {
				b.initial[i] = key
				i++
			}
		} else {
			i++
		}
	}
	b.data = p.Space.AllocStriped(uint64(b.n * 4))
	raw := make([]byte, b.n*4)
	for i, v := range b.initial {
		putU32(raw[i*4:], v)
	}
	b.data.Write(0, raw)
	return nil
}

// Run implements Workload: the classic bitonic network, one kernel per
// (k, j) stage pair.
func (b *BS) Run(p *platform.Platform) error {
	b.kernels = 0
	for k := 2; k <= b.n; k <<= 1 {
		for j := k >> 1; j > 0; j >>= 1 {
			if err := b.launchStage(p, k, j); err != nil {
				return fmt.Errorf("BS stage k=%d j=%d: %w", k, j, err)
			}
			b.kernels++
		}
	}
	return nil
}

// KernelCount returns the number of kernels the last Run launched.
func (b *BS) KernelCount() int { return b.kernels }

func (b *BS) launchStage(p *platform.Platform, k, j int) error {
	lines := b.n / elemsPerLine
	// Owner lines: for j spanning lines, only the lower line of each pair
	// runs the exchange; for intra-line j, every line runs it.
	lineJ := j / elemsPerLine
	var owners []int
	for la := 0; la < lines; la++ {
		if lineJ == 0 || la&lineJ == 0 {
			owners = append(owners, la)
		}
	}
	linesPerWG := 4
	numWGs := (len(owners) + linesPerWG - 1) / linesPerWG

	kern := &gpu.Kernel{
		Name:          fmt.Sprintf("bitonic_k%d_j%d", k, j),
		NumWorkgroups: numWGs,
		Args: argsBlock(
			[]uint64{b.data.Base()},
			[]uint32{uint32(b.n), uint32(k), uint32(j)},
		),
		Program: &bsStage{b: b, owners: owners, linesPerWG: linesPerWG, lineJ: lineJ, k: k, j: j},
	}
	return p.Driver.Launch(kern)
}

// bsStage is one compare-exchange stage: one wavefront per workgroup takes
// its owner lines in turn (Step counts them). Partners within one line
// take one read; partners split across two lines read line A (arg 0), then
// line B (arg 1).
type bsStage struct {
	b          *BS
	owners     []int
	linesPerWG int
	lineJ      int
	k, j       int
}

// bsWave is a wavefront's reused pair of lines.
type bsWave struct {
	a, b [mem.LineSize]byte
}

func (s *bsStage) Waves(int) int { return 1 }

// owner returns the owner line the wavefront is exchanging.
func (s *bsStage) owner(w *gpu.Wave) int { return s.owners[w.WG*s.linesPerWG+w.Step-1] }

func (s *bsStage) addr(line int) uint64 { return s.b.data.Addr(uint64(line) * mem.LineSize) }

func (s *bsStage) Next(w *gpu.Wave) {
	if w.Step == s.linesPerWG || w.WG*s.linesPerWG+w.Step >= len(s.owners) {
		return
	}
	w.Step++
	w.Read(s.addr(s.owner(w)), mem.LineSize, s, 0)
}

func (s *bsStage) Resume(w *gpu.Wave, data []byte, arg int) {
	st, la := gpu.StateOf[bsWave](w), s.owner(w)
	if s.lineJ == 0 {
		// Partners within one line.
		out := st.a[:]
		copy(out, data)
		for e := 0; e < elemsPerLine; e++ {
			i := la*elemsPerLine + e
			partner := i ^ s.j
			if partner <= i || partner/elemsPerLine != la {
				continue
			}
			pe := partner % elemsPerLine
			a := readU32(out[e*4:])
			c := readU32(out[pe*4:])
			if (i&s.k == 0) == (a > c) {
				putU32(out[e*4:], c)
				putU32(out[pe*4:], a)
			}
		}
		w.Compute(8)
		w.Write(s.addr(la), out)
		return
	}
	// Partners split across two lines.
	lb := la ^ s.lineJ
	if arg == 0 {
		copy(st.a[:], data)
		w.Read(s.addr(lb), mem.LineSize, s, 1)
		return
	}
	copy(st.b[:], data)
	for e := 0; e < elemsPerLine; e++ {
		i := la*elemsPerLine + e
		va := readU32(st.a[e*4:])
		vb := readU32(st.b[e*4:])
		if (i&s.k == 0) == (va > vb) {
			putU32(st.a[e*4:], vb)
			putU32(st.b[e*4:], va)
		}
	}
	w.Compute(8)
	w.Write(s.addr(la), st.a[:])
	w.Write(s.addr(lb), st.b[:])
}

// Verify implements Workload.
func (b *BS) Verify(p *platform.Platform) error {
	raw := b.data.Read(0, b.n*4)
	got := make([]uint32, b.n)
	for i := range got {
		got[i] = readU32(raw[i*4:])
	}
	want := append([]uint32(nil), b.initial...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("BS: element %d = %d, want %d", i, got[i], want[i])
		}
	}
	return nil
}
