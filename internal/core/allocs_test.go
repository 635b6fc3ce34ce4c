//go:build !race

package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"mgpucompress/internal/comp"
)

// The adaptive controller's allocation pin: a transfer allocates nothing.
// Its payload is appended to a buffer the caller owns, as the RDMA engine
// encodes into its wire message's own line. Sampling probes every candidate
// with the allocation-free CompressedBits and encodes only the winner; a
// sampling loop that encoded each candidate with Compress would allocate
// once per losing candidate. The race detector instruments allocations, so
// the file is excluded under -race.

// allocGrades mirrors the codec benchmarks' line grades: the best case, the
// pattern families the codecs target, and incompressible lines that ship raw.
var allocGrades = []string{"zero", "patterned", "random"}

func gradeLines(grade string) [][]byte {
	rng := rand.New(rand.NewSource(7))
	lines := make([][]byte, 64)
	for i := range lines {
		switch grade {
		case "zero":
			lines[i] = zeroLine()
		case "patterned":
			switch i % 4 {
			case 0:
				lines[i] = ldrLine(rng.Uint64(), rng.Intn(64))
			case 1:
				lines[i] = narrowLine()
			case 2:
				lines[i] = twoHalfLine()
			default:
				lines[i] = ldrLine(uint64(rng.Intn(1<<20)), 1)
			}
		case "random":
			lines[i] = randLine(rng)
		default:
			panic("unknown grade " + grade)
		}
	}
	return lines
}

func TestAdaptiveProcessAllocatesOnlyThePayload(t *testing.T) {
	candidateSets := [][]comp.Compressor{nil} // nil: the paper's three codecs
	for _, c := range comp.AllCompressors() {
		candidateSets = append(candidateSets, []comp.Compressor{comp.NewCompressor(c.Algorithm())})
	}
	var sink Decision
	buf := make([]byte, 0, comp.LineSize)
	for _, cands := range candidateSets {
		for _, grade := range allocGrades {
			lines := gradeLines(grade)
			// A phase that never ends keeps the controller in it, so the
			// pin is not blurred by the selection history growing.
			sampling := NewAdaptive(Config{Candidates: cands, SampleCount: math.MaxInt})
			running := NewAdaptive(Config{Candidates: cands, SampleCount: 1, RunLength: math.MaxInt})
			running.Process(nil, lines[0]) // the one sample; the rest is running
			for _, tc := range []struct {
				phase string
				a     *Adaptive
			}{{"sampling", sampling}, {"running", running}} {
				name := fmt.Sprintf("%s/%d-candidates/%s", tc.phase, len(tc.a.cfg.Candidates), grade)
				if len(cands) == 1 {
					name = fmt.Sprintf("%s/%v/%s", tc.phase, cands[0].Algorithm(), grade)
				}
				t.Run(name, func(t *testing.T) {
					got := testing.AllocsPerRun(10, func() {
						for _, line := range lines {
							sink = tc.a.Process(buf[:0], line)
						}
					})
					if got != 0 {
						t.Errorf("%v allocs per pass over %d transfers, want 0", got, len(lines))
					}
				})
			}
		}
	}
	_ = sink
}
