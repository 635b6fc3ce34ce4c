package workloads

import (
	"fmt"
	"math"

	"mgpucompress/internal/gpu"
	"mgpucompress/internal/mem"
	"mgpucompress/internal/platform"
)

// GD implements the Table IV Gradient Descent benchmark (developed from
// scratch by the paper's authors): data is partitioned into mini-batches
// distributed among the GPUs; each iteration computes per-batch gradients
// in parallel and then the GPUs communicate to average the results. The
// data is single-precision floating point with ReLU-style block sparsity:
// about a quarter of the cache lines are entirely zero and the rest hold
// dense float32 values, so every codec compresses only the zero lines and
// Table V's tight 1.2–1.4 cluster (with FPC slightly ahead) emerges.
type GD struct {
	seeded
	scale Scale

	m          int // features
	rows       int // rows per mini-batch
	iterations int
	linesPerWG int

	weights mem.Buffer
	batches []mem.Buffer // one per GPU
	grads   []mem.Buffer // one per GPU

	initW []float32
	initX [][]float32 // [gpu][row*m+j]
}

// NewGD builds the Gradient Descent benchmark.
func NewGD(scale Scale) *GD { return &GD{scale: scale} }

// Abbrev implements Workload.
func (g *GD) Abbrev() string { return "GD" }

// Name implements Workload.
func (g *GD) Name() string { return "Gradient Descent" }

// Description implements Workload.
func (g *GD) Description() string {
	return "Important algorithm with gather pattern used in optimization problems such as neural networks training."
}

const wordsPerLine = mem.LineSize / 4

// Setup implements Workload.
func (g *GD) Setup(p *platform.Platform) error {
	r := g.rng(0x6D)
	g.m = 1024 * int(g.scale)
	g.rows = 4
	g.iterations = 2
	g.linesPerWG = 4

	g.weights = p.Space.AllocStriped(uint64(g.m * 4))
	g.initW = make([]float32, g.m)
	raww := make([]byte, g.m*4)
	for j := range g.initW {
		g.initW[j] = float32(r.Intn(2001)-1000) / 1000
		putU32(raww[j*4:], math.Float32bits(g.initW[j]))
	}
	g.weights.Write(0, raww)

	numGPUs := len(p.GPUs)
	g.batches = g.batches[:0]
	g.grads = g.grads[:0]
	g.initX = make([][]float32, numGPUs)
	for gp := 0; gp < numGPUs; gp++ {
		batch := p.Space.AllocOnGPU(gp, uint64(g.rows*g.m*4))
		grad := p.Space.AllocOnGPU(gp, uint64(g.m*4))
		g.batches = append(g.batches, batch)
		g.grads = append(g.grads, grad)
		x := make([]float32, g.rows*g.m)
		raw := make([]byte, len(x)*4)
		for i := 0; i < len(x); i += wordsPerLine {
			// ReLU-style block sparsity: ~25% of lines are entirely zero.
			if r.Intn(100) < 25 {
				continue
			}
			for e := 0; e < wordsPerLine; e++ {
				v := r.Intn(2000) - 1000
				if v >= 0 {
					v++ // dense lines stay dense: no exact zeros
				}
				x[i+e] = float32(v) / 1000
			}
		}
		for i, v := range x {
			putU32(raw[i*4:], math.Float32bits(v))
		}
		batch.Write(0, raw)
		g.initX[gp] = x
	}
	return nil
}

func (g *GD) featureLines() int { return g.m / wordsPerLine }

// Run implements Workload.
func (g *GD) Run(p *platform.Platform) error {
	for it := 0; it < g.iterations; it++ {
		if err := g.runGradKernel(p); err != nil {
			return fmt.Errorf("GD iteration %d grad: %w", it, err)
		}
		if err := g.runReduceKernel(p); err != nil {
			return fmt.Errorf("GD iteration %d reduce: %w", it, err)
		}
	}
	return nil
}

// runGradKernel computes grad_b[j] = Σ_i x_b[i][j] · w[j] for each batch b.
// Workgroup w handles batch w % numGPUs, feature chunk w / numGPUs.
func (g *GD) runGradKernel(p *platform.Platform) error {
	numGPUs := len(p.GPUs)
	chunks := g.featureLines() / g.linesPerWG
	k := &gpu.Kernel{
		Name:          "gd_grad",
		NumWorkgroups: chunks * numGPUs,
		Args: argsBlock(
			[]uint64{g.weights.Base(), g.batches[0].Base(), g.grads[0].Base()},
			[]uint32{uint32(g.m), uint32(g.rows)},
		),
		Program: &gdGrad{g: g, numGPUs: numGPUs},
	}
	return p.Driver.Launch(k)
}

// gdWave is a GD wavefront's reused per-line state.
type gdWave struct {
	wline [mem.LineSize]byte // the weight line
	acc   [wordsPerLine]float32
	out   [mem.LineSize]byte
}

// gdGrad is the gradient kernel. Step counts the feature lines started;
// per line the weight read (arg 0) is followed by one read per batch row
// (arg row+1), each continuation emitting the next.
type gdGrad struct {
	g       *GD
	numGPUs int
}

func (k *gdGrad) Waves(int) int { return 1 }

// line returns the feature line the wavefront is working on.
func (k *gdGrad) line(w *gpu.Wave) int {
	return w.WG/k.numGPUs*k.g.linesPerWG + w.Step - 1
}

func (k *gdGrad) Next(w *gpu.Wave) {
	if w.Step == k.g.linesPerWG {
		return
	}
	w.Step++
	w.Read(k.g.weights.Addr(uint64(k.line(w))*mem.LineSize), mem.LineSize, k, 0)
}

func (k *gdGrad) Resume(w *gpu.Wave, data []byte, arg int) {
	g, st := k.g, gpu.StateOf[gdWave](w)
	b, line := w.WG%k.numGPUs, k.line(w)
	if arg == 0 {
		copy(st.wline[:], data)
		st.acc = [wordsPerLine]float32{}
	} else {
		// Gather the batch rows for this feature range.
		for e := 0; e < wordsPerLine; e++ {
			x := math.Float32frombits(readU32(data[e*4:]))
			wv := math.Float32frombits(readU32(st.wline[e*4:]))
			st.acc[e] += float32(x * wv)
		}
	}
	if row := arg; row < g.rows {
		j0 := line * wordsPerLine
		w.Read(g.batches[b].Addr(uint64(row*g.m+j0)*4), mem.LineSize, k, row+1)
		return
	}
	for e := 0; e < wordsPerLine; e++ {
		putU32(st.out[e*4:], math.Float32bits(st.acc[e]))
	}
	w.Compute(4)
	w.Write(g.grads[b].Addr(uint64(line)*mem.LineSize), st.out[:])
}

// runReduceKernel averages the per-GPU gradients and applies a scaled
// update: w[j] -= (Σ_b grad_b[j]) / numGPUs / 1024, all in float32.
func (g *GD) runReduceKernel(p *platform.Platform) error {
	numGPUs := len(p.GPUs)
	chunks := g.featureLines() / g.linesPerWG
	k := &gpu.Kernel{
		Name:          "gd_reduce",
		NumWorkgroups: chunks,
		Args: argsBlock(
			[]uint64{g.weights.Base(), g.grads[0].Base()},
			[]uint32{uint32(g.m), uint32(numGPUs)},
		),
		Program: &gdReduce{g: g, numGPUs: numGPUs},
	}
	return p.Driver.Launch(k)
}

// gdReduce is the averaging kernel. Step counts the feature lines started;
// per line the weight read (arg 0) is followed by one read per GPU's
// gradient (arg gpu+1).
type gdReduce struct {
	g       *GD
	numGPUs int
}

func (k *gdReduce) Waves(int) int { return 1 }

// wAddr returns the address of the weight line the wavefront is updating.
func (k *gdReduce) wAddr(w *gpu.Wave) uint64 {
	return k.g.weights.Addr(uint64(w.WG*k.g.linesPerWG+w.Step-1) * mem.LineSize)
}

func (k *gdReduce) Next(w *gpu.Wave) {
	if w.Step == k.g.linesPerWG {
		return
	}
	w.Step++
	w.Read(k.wAddr(w), mem.LineSize, k, 0)
}

func (k *gdReduce) Resume(w *gpu.Wave, data []byte, arg int) {
	st := gpu.StateOf[gdWave](w)
	if arg == 0 {
		copy(st.wline[:], data)
		st.acc = [wordsPerLine]float32{}
	} else {
		for e := 0; e < wordsPerLine; e++ {
			st.acc[e] += math.Float32frombits(readU32(data[e*4:]))
		}
	}
	if b := arg; b < k.numGPUs {
		line := w.WG*k.g.linesPerWG + w.Step - 1
		w.Read(k.g.grads[b].Addr(uint64(line)*mem.LineSize), mem.LineSize, k, b+1)
		return
	}
	for e := 0; e < wordsPerLine; e++ {
		wv := math.Float32frombits(readU32(st.wline[e*4:]))
		wv -= st.acc[e] / float32(k.numGPUs) / 1024
		putU32(st.out[e*4:], math.Float32bits(wv))
	}
	w.Compute(6)
	w.Write(k.wAddr(w), st.out[:])
}

// Verify implements Workload.
func (g *GD) Verify(p *platform.Platform) error {
	numGPUs := len(g.batches)
	w := append([]float32(nil), g.initW...)
	for it := 0; it < g.iterations; it++ {
		grads := make([][]float32, numGPUs)
		for b := 0; b < numGPUs; b++ {
			grads[b] = make([]float32, g.m)
			for j := 0; j < g.m; j++ {
				var acc float32
				for row := 0; row < g.rows; row++ {
					acc += float32(g.initX[b][row*g.m+j] * w[j])
				}
				grads[b][j] = acc
			}
		}
		for j := 0; j < g.m; j++ {
			var sum float32
			for b := 0; b < numGPUs; b++ {
				sum += grads[b][j]
			}
			w[j] -= sum / float32(numGPUs) / 1024
		}
	}
	raw := g.weights.Read(0, g.m*4)
	for j := 0; j < g.m; j++ {
		if got := math.Float32frombits(readU32(raw[j*4:])); math.Float32bits(got) != math.Float32bits(w[j]) {
			return fmt.Errorf("GD: w[%d] = %g, want %g", j, got, w[j])
		}
	}
	return nil
}
