// Package workloads implements the seven multi-GPU benchmarks of Table IV
// (AES, BS, FIR, GD, KM, MT, SC) on top of the simulated platform. Each
// benchmark performs its real computation — outputs are verified against a
// host-side reference — while its memory traffic flows through the caches,
// RDMA engines and the fabric, so the bytes crossing the inter-GPU links
// carry the value distributions that drive the paper's compression results.
//
// The paper's exact OpenCL inputs are unpublished; inputs here are synthetic
// but follow the data-pattern families the paper attributes to each
// benchmark (Secs. IV-B and VII-A): random ciphertext-like data for AES,
// sparse near-zero data for BS, DC-offset sensor samples for FIR, sparse
// float gradients for GD, narrow quantized features for KM, byte-range
// pixels for MT, and smooth low-dynamic-range images with zero margins for
// SC. DESIGN.md documents each substitution.
package workloads

import (
	"fmt"
	"math/rand"

	"mgpucompress/internal/gpu"
	"mgpucompress/internal/mem"
	"mgpucompress/internal/platform"
)

// Workload is one multi-GPU benchmark.
type Workload interface {
	// Abbrev returns the Table IV abbreviation (AES, BS, ...).
	Abbrev() string
	// Name returns the full benchmark name.
	Name() string
	// Description matches Table IV.
	Description() string
	// Setup allocates and initializes device buffers.
	Setup(p *platform.Platform) error
	// Run launches the benchmark's kernels to completion.
	Run(p *platform.Platform) error
	// Verify checks the computation's output against a host reference.
	Verify(p *platform.Platform) error
}

// Scale selects the input size. Test uses a small scale so the full suite
// runs in seconds; benchmarks use larger scales.
type Scale int

// Predefined scales.
const (
	ScaleTiny  Scale = 1 // unit tests
	ScaleSmall Scale = 4 // experiment default
	ScaleLarge Scale = 16
)

// All returns the seven benchmarks of Table IV at the given scale, in the
// paper's order.
func All(scale Scale) []Workload {
	return []Workload{
		NewAES(scale),
		NewBS(scale),
		NewFIR(scale),
		NewGD(scale),
		NewKM(scale),
		NewMT(scale),
		NewSC(scale),
	}
}

// ByAbbrev returns the workload with the given abbreviation.
func ByAbbrev(abbrev string, scale Scale) (Workload, error) {
	for _, w := range All(scale) {
		if w.Abbrev() == abbrev {
			return w, nil
		}
	}
	return nil, fmt.Errorf("workloads: unknown benchmark %q", abbrev)
}

// placement returns the driver's workgroup placement on p. Workloads use it
// to place per-GPU output partitions locally.
func placement(p *platform.Platform) gpu.Placement {
	return gpu.Placement{GPUs: len(p.GPUs), CUsPerGPU: len(p.GPUs[0].CUs)}
}

// argsBlock builds a kernel argument block the way an OpenCL runtime lays
// one out: 64-bit buffer pointers, 32-bit sizes, and alignment padding.
// Most of the bytes are zero (small sizes, page-aligned pointers), which is
// the launch-metadata compressibility the paper highlights for BS.
func argsBlock(ptrs []uint64, sizes []uint32) []byte {
	out := make([]byte, 0, len(ptrs)*8+len(sizes)*8)
	for _, p := range ptrs {
		var b [8]byte
		putU64(b[:], p)
		out = append(out, b[:]...)
	}
	for _, s := range sizes {
		var b [8]byte // 32-bit value in an 8-byte aligned slot
		putU32(b[:], s)
		out = append(out, b[:]...)
	}
	return out
}

func putU64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

func putU32(b []byte, v uint32) {
	for i := 0; i < 4; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

func readU32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

// lineAlignedLen rounds n up to whole cache lines.
func lineAlignedLen(n int) int {
	if r := n % mem.LineSize; r != 0 {
		return n + mem.LineSize - r
	}
	return n
}

// Seeder is implemented by workloads whose input generation can be rebased
// onto the sweep-derived per-job seed (sweep.JobKey.Seed, plumbed through
// runner.Options.Seed). All Table IV benchmarks implement it.
type Seeder interface {
	// SetSeed rebases the workload's random streams. Zero keeps the
	// workload's fixed default stream, preserving historical artifacts.
	SetSeed(seed int64)
}

// seeded is embedded by every benchmark: it carries the per-job seed and
// hands out deterministic rand streams. There is deliberately no
// package-global rand state anywhere in this package — every stream is an
// explicit rand.New(rand.NewSource(...)), which is what the wallclock
// analyzer enforces.
type seeded struct {
	seed int64
}

// SetSeed implements Seeder.
func (s *seeded) SetSeed(seed int64) { s.seed = seed }

// rng returns the workload's deterministic random source. The per-workload
// salt domain-separates benchmarks sharing one job seed; with the zero
// seed the stream reduces to the historical fixed-salt stream, so default
// artifacts are unchanged.
func (s *seeded) rng(salt int64) *rand.Rand {
	return rand.New(rand.NewSource(s.seed ^ salt))
}
