package workloads

import (
	"fmt"

	"mgpucompress/internal/gpu"
	"mgpucompress/internal/mem"
	"mgpucompress/internal/platform"
)

// MT implements the Table IV Matrix Transpose benchmark: a tiled transpose
// of an N×N matrix of byte-range values stored as int32 (image-like data).
// Every element is read once and written once, which reproduces the equal
// remote read/write counts of Table V, and the one-byte value range gives
// the close FPC ≈ 3.1 / BDI ≈ 2.84 / C-Pack+Z ≈ 2.69 ratio ordering: FPC
// stores one sign-extended byte per word (11 bits), BDI uses base4-delta1
// (180 bits/line), and C-Pack+Z uses narrow words (12 bits).
type MT struct {
	seeded
	scale Scale

	n      int // matrix dimension
	input  mem.Buffer
	output mem.Buffer
	init   []int32
}

// NewMT builds the Matrix Transpose benchmark.
func NewMT(scale Scale) *MT { return &MT{scale: scale} }

// Abbrev implements Workload.
func (t *MT) Abbrev() string { return "MT" }

// Name implements Workload.
func (t *MT) Name() string { return "Matrix Transpose" }

// Description implements Workload.
func (t *MT) Description() string {
	return "A fundamental matrix operation that is used in many scientific and engineering applications."
}

const mtTile = 16 // 16×16 elements; one tile row is exactly one line

// Setup implements Workload.
func (t *MT) Setup(p *platform.Platform) error {
	r := t.rng(0x47)
	t.n = 64 * int(t.scale)
	t.input = p.Space.AllocStriped(uint64(t.n * t.n * 4))
	t.output = p.Space.AllocStriped(uint64(t.n * t.n * 4))
	t.init = make([]int32, t.n*t.n)
	raw := make([]byte, t.n*t.n*4)
	for i := range t.init {
		t.init[i] = int32(r.Intn(128)) // unsigned-byte pixels widened to int32
		putU32(raw[i*4:], uint32(t.init[i]))
	}
	t.input.Write(0, raw)
	return nil
}

func (t *MT) elemOff(row, col int) uint64 { return uint64(row*t.n+col) * 4 }

// Run implements Workload: one workgroup per 16×16 tile reads the tile's 16
// lines, transposes in local memory, and writes 16 lines of the transposed
// tile.
func (t *MT) Run(p *platform.Platform) error {
	tiles := t.n / mtTile
	k := &gpu.Kernel{
		Name:          "matrix_transpose",
		NumWorkgroups: tiles * tiles,
		Args: argsBlock(
			[]uint64{t.input.Base(), t.output.Base()},
			[]uint32{uint32(t.n)},
		),
		Program: &mtTranspose{t: t, tiles: tiles},
	}
	return p.Driver.Launch(k)
}

// mtTranspose is the transpose kernel: one wavefront per tile reads the
// tile's rows in order (arg is the row), each continuation emitting the
// next read, then writes the transposed tile.
type mtTranspose struct {
	t     *MT
	tiles int
}

// mtWave is a wavefront's reused tile storage.
type mtWave struct {
	tile [mtTile][mem.LineSize]byte
	out  [mtTile][mem.LineSize]byte
}

func (k *mtTranspose) Waves(int) int { return 1 }

func (k *mtTranspose) readRow(w *gpu.Wave, i int) {
	tr, tc := w.WG/k.tiles, w.WG%k.tiles
	w.Read(k.t.input.Addr(k.t.elemOff(tr*mtTile+i, tc*mtTile)), mem.LineSize, k, i)
}

func (k *mtTranspose) Next(w *gpu.Wave) {
	if w.Step > 0 {
		return
	}
	w.Step++
	k.readRow(w, 0)
}

func (k *mtTranspose) Resume(w *gpu.Wave, data []byte, i int) {
	st := gpu.StateOf[mtWave](w)
	copy(st.tile[i][:], data)
	if i+1 < mtTile {
		k.readRow(w, i+1)
		return
	}
	tr, tc := w.WG/k.tiles, w.WG%k.tiles
	w.Compute(16)
	for j := 0; j < mtTile; j++ {
		// Output line j of the transposed tile: column j of the input
		// tile.
		line := st.out[j][:]
		for e := 0; e < mtTile; e++ {
			copy(line[e*4:e*4+4], st.tile[e][j*4:j*4+4])
		}
		w.Write(k.t.output.Addr(k.t.elemOff(tc*mtTile+j, tr*mtTile)), line)
	}
}

// Verify implements Workload.
func (t *MT) Verify(p *platform.Platform) error {
	raw := t.output.Read(0, t.n*t.n*4)
	for r := 0; r < t.n; r++ {
		for c := 0; c < t.n; c++ {
			got := int32(readU32(raw[(r*t.n+c)*4:]))
			want := t.init[c*t.n+r]
			if got != want {
				return fmt.Errorf("MT: out[%d][%d] = %d, want %d", r, c, got, want)
			}
		}
	}
	return nil
}
