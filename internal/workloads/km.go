package workloads

import (
	"fmt"

	"mgpucompress/internal/gpu"
	"mgpucompress/internal/mem"
	"mgpucompress/internal/platform"
)

// KM implements the Table IV KMeans benchmark: iterative clustering of
// sparse quantized feature vectors. Each point line holds 13 features of
// which most are zero; the nonzero slots of a point repeat one value drawn
// from a small quantization vocabulary (a scaled one-hot encoding). Zero
// words plus within-line repeats are C-Pack+Z's best case (full matches at
// 8 bits beat FPC's 19-bit halfwords), reproducing the Table V ordering
// C-Pack+Z 7.8 > FPC 5.6 >> BDI 1.4 — BDI sees only whole-line immediates
// and lands near base4-delta2.
type KM struct {
	seeded
	scale Scale

	n           int // points
	k           int // centroids
	d           int // features per point (words 0..d-1 of its line)
	iterations  int
	pointsPerWG int

	points      mem.Buffer // one line per point
	centroids   mem.Buffer // one line per centroid
	assignments mem.Buffer // one word per point
	partials    mem.Buffer // [wg][k] partial-sum lines

	initPoints    [][]int32 // [point][feature]
	initCentroids [][]int32
}

// KMeans shape: centroids, features per point (words 0..kmD-1 of its line;
// a partial-sum line keeps its count in word kmD), and points per
// workgroup (one assignment line's worth of words).
const (
	kmK           = 8
	kmD           = 13
	kmPointsPerWG = mem.LineSize / 4
)

// NewKM builds the KMeans benchmark.
func NewKM(scale Scale) *KM { return &KM{scale: scale} }

// Abbrev implements Workload.
func (m *KM) Abbrev() string { return "KM" }

// Name implements Workload.
func (m *KM) Name() string { return "KMeans" }

// Description implements Workload.
func (m *KM) Description() string {
	return "An important clustering algorithm widely used in unsupervised machine learning applications."
}

// Setup implements Workload.
func (m *KM) Setup(p *platform.Platform) error {
	r := m.rng(0x6B17)
	m.n = 512 * int(m.scale)
	m.k = kmK
	m.d = kmD
	m.iterations = 2
	m.pointsPerWG = kmPointsPerWG

	// Quantization vocabulary: halfword-range levels spread far apart.
	// Each point is "two-hot": two levels, each repeated in ~2 of its 13
	// slots, the rest zero. Zero words plus within-line repeats are
	// C-Pack+Z's best case; FPC encodes the levels as sign-extended
	// halfwords; and the two distant levels leave BDI only its worst
	// applicable config (base4-delta2).
	vocab := make([]int32, 8)
	for i := range vocab {
		vocab[i] = int32(300 + i*4000 + r.Intn(512))
	}

	m.points = p.Space.AllocStriped(uint64(m.n * mem.LineSize))
	m.initPoints = make([][]int32, m.n)
	for i := 0; i < m.n; i++ {
		line := make([]byte, mem.LineSize)
		feats := make([]int32, m.d)
		lvl1 := vocab[r.Intn(len(vocab))]
		lvl2 := vocab[r.Intn(len(vocab))]
		for c := 0; c < 4; c++ {
			f := r.Intn(m.d)
			if c < 2 {
				feats[f] = lvl1
			} else {
				feats[f] = lvl2
			}
		}
		for f := 0; f < m.d; f++ {
			putU32(line[f*4:], uint32(feats[f]))
		}
		m.initPoints[i] = feats
		m.points.Write(uint64(i)*mem.LineSize, line)
	}

	m.centroids = p.Space.AllocStriped(uint64(m.k * mem.LineSize))
	m.initCentroids = make([][]int32, m.k)
	for c := 0; c < m.k; c++ {
		line := make([]byte, mem.LineSize)
		feats := make([]int32, m.d)
		for f := 0; f < m.d; f++ {
			feats[f] = vocab[r.Intn(len(vocab))]
			putU32(line[f*4:], uint32(feats[f]))
		}
		m.initCentroids[c] = feats
		m.centroids.Write(uint64(c)*mem.LineSize, line)
	}

	m.assignments = p.Space.AllocStriped(uint64(lineAlignedLen(m.n * 4)))
	m.partials = p.Space.AllocStriped(uint64(m.numWGs() * m.k * mem.LineSize))
	return nil
}

func (m *KM) numWGs() int { return m.n / m.pointsPerWG }

// Run implements Workload.
func (m *KM) Run(p *platform.Platform) error {
	for it := 0; it < m.iterations; it++ {
		if err := m.runAssignKernel(p); err != nil {
			return fmt.Errorf("KM iteration %d assign: %w", it, err)
		}
		if err := m.runUpdateKernel(p); err != nil {
			return fmt.Errorf("KM iteration %d update: %w", it, err)
		}
	}
	return nil
}

// runAssignKernel: each workgroup reads the centroid table and its chunk of
// points, assigns each point to the nearest centroid, and writes one
// assignment line plus k partial-sum lines.
func (m *KM) runAssignKernel(p *platform.Platform) error {
	k := &gpu.Kernel{
		Name:          "km_assign",
		NumWorkgroups: m.numWGs(),
		Args: argsBlock(
			[]uint64{m.points.Base(), m.centroids.Base(), m.assignments.Base(), m.partials.Base()},
			[]uint32{uint32(m.n), uint32(m.k), uint32(m.d)},
		),
		Program: &kmAssign{m: m},
	}
	return p.Driver.Launch(k)
}

// kmAssign is the assignment kernel: one wavefront per workgroup reads the
// k centroid lines (arg 0..k-1) and then its points (arg k+i for point i),
// each continuation emitting the next read.
type kmAssign struct{ m *KM }

// kmAssignWave is a wavefront's reused state.
type kmAssignWave struct {
	cents   [kmK][kmD]int32
	assigns [kmPointsPerWG]uint32
	sums    [kmK][kmD]int32
	counts  [kmK]int32
	out     [1 + kmK][mem.LineSize]byte // the assignment line, then the partials
}

func (k *kmAssign) Waves(int) int { return 1 }

func (k *kmAssign) Next(w *gpu.Wave) {
	if w.Step > 0 {
		return
	}
	w.Step++
	// Read the centroid table first.
	w.Read(k.m.centroids.Addr(0), mem.LineSize, k, 0)
}

func (k *kmAssign) Resume(w *gpu.Wave, line []byte, arg int) {
	m, st := k.m, gpu.StateOf[kmAssignWave](w)
	if c := arg; c < m.k {
		for f := 0; f < m.d; f++ {
			st.cents[c][f] = int32(readU32(line[f*4:]))
		}
		if c+1 < m.k {
			w.Read(m.centroids.Addr(uint64(c+1)*mem.LineSize), mem.LineSize, k, c+1)
			return
		}
		st.sums = [kmK][kmD]int32{}
		st.counts = [kmK]int32{}
	} else {
		i := arg - m.k
		best, bestDist := 0, int64(1)<<62
		for c := 0; c < m.k; c++ {
			var dist int64
			for f := 0; f < m.d; f++ {
				diff := int64(int32(readU32(line[f*4:]))) - int64(st.cents[c][f])
				dist += diff * diff
			}
			if dist < bestDist {
				best, bestDist = c, dist
			}
		}
		st.assigns[i] = uint32(best)
		for f := 0; f < m.d; f++ {
			st.sums[best][f] += int32(readU32(line[f*4:]))
		}
		st.counts[best]++
	}
	if i := arg + 1 - m.k; i < m.pointsPerWG {
		pt := w.WG*m.pointsPerWG + i
		w.Read(m.points.Addr(uint64(pt)*mem.LineSize), mem.LineSize, k, m.k+i)
		return
	}
	w.Compute(m.pointsPerWG * m.k)
	for e, a := range st.assigns {
		putU32(st.out[0][e*4:], a)
	}
	w.Write(m.assignments.Addr(uint64(w.WG*m.pointsPerWG)*4), st.out[0][:])
	for c := 0; c < m.k; c++ {
		out := st.out[1+c][:]
		clear(out)
		for f := 0; f < m.d; f++ {
			putU32(out[f*4:], uint32(st.sums[c][f]))
		}
		putU32(out[kmD*4:], uint32(st.counts[c]))
		w.Write(m.partials.Addr(uint64(w.WG*m.k+c)*mem.LineSize), out)
	}
}

// runUpdateKernel: workgroup c gathers every partial-sum line for centroid
// c and writes the averaged centroid.
func (m *KM) runUpdateKernel(p *platform.Platform) error {
	numWGs := m.numWGs()
	k := &gpu.Kernel{
		Name:          "km_update",
		NumWorkgroups: m.k,
		Args: argsBlock(
			[]uint64{m.centroids.Base(), m.partials.Base()},
			[]uint32{uint32(m.k), uint32(numWGs)},
		),
		Program: &kmUpdate{m: m, numWGs: numWGs},
	}
	return p.Driver.Launch(k)
}

// kmUpdate is the update kernel: the wavefront of workgroup c reads the
// partial-sum line of centroid c from every assignment workgroup (arg is
// that workgroup), each continuation emitting the next read.
type kmUpdate struct {
	m      *KM
	numWGs int
}

// kmUpdateWave is a wavefront's reused state.
type kmUpdateWave struct {
	sums  [kmD]int64
	count int64
	out   [mem.LineSize]byte
}

func (k *kmUpdate) Waves(int) int { return 1 }

func (k *kmUpdate) partial(wg, c int) uint64 {
	return k.m.partials.Addr(uint64(wg*k.m.k+c) * mem.LineSize)
}

func (k *kmUpdate) Next(w *gpu.Wave) {
	if w.Step > 0 {
		return
	}
	w.Step++
	st := gpu.StateOf[kmUpdateWave](w)
	st.sums, st.count = [kmD]int64{}, 0
	w.Read(k.partial(0, w.WG), mem.LineSize, k, 0)
}

func (k *kmUpdate) Resume(w *gpu.Wave, line []byte, wg int) {
	m, st, c := k.m, gpu.StateOf[kmUpdateWave](w), w.WG
	for f := 0; f < m.d; f++ {
		st.sums[f] += int64(int32(readU32(line[f*4:])))
	}
	st.count += int64(int32(readU32(line[kmD*4:])))
	if wg+1 < k.numWGs {
		w.Read(k.partial(wg+1, c), mem.LineSize, k, wg+1)
		return
	}
	clear(st.out[:])
	for f := 0; f < m.d; f++ {
		v := int64(0)
		if st.count > 0 {
			v = st.sums[f] / st.count
		}
		putU32(st.out[f*4:], uint32(int32(v)))
	}
	w.Compute(8)
	w.Write(m.centroids.Addr(uint64(c)*mem.LineSize), st.out[:])
}

// Verify implements Workload.
func (m *KM) Verify(p *platform.Platform) error {
	cents := make([][]int32, m.k)
	for c := range cents {
		cents[c] = append([]int32(nil), m.initCentroids[c]...)
	}
	var lastAssign []uint32
	for it := 0; it < m.iterations; it++ {
		assigns := make([]uint32, m.n)
		sums := make([][]int64, m.k)
		counts := make([]int64, m.k)
		for c := range sums {
			sums[c] = make([]int64, m.d)
		}
		for i := 0; i < m.n; i++ {
			best, bestDist := 0, int64(1)<<62
			for c := 0; c < m.k; c++ {
				var dist int64
				for f := 0; f < m.d; f++ {
					diff := int64(m.initPoints[i][f]) - int64(cents[c][f])
					dist += diff * diff
				}
				if dist < bestDist {
					best, bestDist = c, dist
				}
			}
			assigns[i] = uint32(best)
			for f := 0; f < m.d; f++ {
				sums[best][f] += int64(m.initPoints[i][f])
			}
			counts[best]++
		}
		for c := 0; c < m.k; c++ {
			for f := 0; f < m.d; f++ {
				if counts[c] > 0 {
					cents[c][f] = int32(sums[c][f] / counts[c])
				} else {
					cents[c][f] = 0
				}
			}
		}
		lastAssign = assigns
	}
	raw := m.assignments.Read(0, m.n*4)
	for i := 0; i < m.n; i++ {
		if got := readU32(raw[i*4:]); got != lastAssign[i] {
			return fmt.Errorf("KM: assignment[%d] = %d, want %d", i, got, lastAssign[i])
		}
	}
	for c := 0; c < m.k; c++ {
		line := m.centroids.Read(uint64(c)*mem.LineSize, mem.LineSize)
		for f := 0; f < m.d; f++ {
			if got := int32(readU32(line[f*4:])); got != cents[c][f] {
				return fmt.Errorf("KM: centroid[%d][%d] = %d, want %d", c, f, got, cents[c][f])
			}
		}
	}
	return nil
}
