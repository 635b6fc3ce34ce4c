// Package mem models the multi-GPU global memory: a byte-accurate backing
// store with 4 KB pages interleaved across the 32 memory controllers (8 per
// GPU, Table VII), the intra-GPU memory request/response messages, and the
// DRAM channel timing model.
//
// The simulator is functional-first: data always lives in the Space, and the
// cache/fabric components model timing around it. This keeps the bytes that
// cross the inter-GPU fabric — which drive all compression results — exact,
// while the timing model supplies contention and latency.
package mem

import (
	"encoding/binary"
	"fmt"
	"sync"
)

// Layout constants from Table VII.
const (
	PageSize      = 4096
	LineSize      = 64
	DefaultGPUs   = 4
	ChannelsPerPU = 8
)

// Space is the global interleaved physical address space shared by the
// GPUs. Pages are interleaved so that consecutive 4 KB pages rotate first
// across GPUs and then across each GPU's eight channels, utilizing all 32
// controllers for streaming accesses.
type Space struct {
	numGPUs int

	mu    sync.RWMutex
	pages map[uint64][]byte

	// bump allocators: one striped, one per GPU
	nextPage    uint64
	nextGPUPage []uint64
}

// NewSpace creates a space for numGPUs GPUs.
func NewSpace(numGPUs int) *Space {
	if numGPUs <= 0 {
		panic("mem: numGPUs must be positive")
	}
	s := &Space{
		numGPUs:     numGPUs,
		pages:       make(map[uint64][]byte),
		nextGPUPage: make([]uint64, numGPUs),
	}
	for g := range s.nextGPUPage {
		s.nextGPUPage[g] = uint64(g) // first page owned by GPU g
	}
	return s
}

// NumGPUs returns the number of GPUs sharing the space.
func (s *Space) NumGPUs() int { return s.numGPUs }

// GPUOf returns the GPU that owns addr (page-interleaved).
func (s *Space) GPUOf(addr uint64) int {
	return int((addr / PageSize) % uint64(s.numGPUs))
}

// ChannelOf returns the owning GPU's DRAM channel index for addr.
func (s *Space) ChannelOf(addr uint64) int {
	return int((addr / PageSize) / uint64(s.numGPUs) % ChannelsPerPU)
}

// GlobalChannelOf returns the controller index in [0, numGPUs×8).
func (s *Space) GlobalChannelOf(addr uint64) int {
	return s.GPUOf(addr)*ChannelsPerPU + s.ChannelOf(addr)
}

// Alloc reserves size bytes of page-aligned, GPU-striped memory and returns
// the base address. Striped buffers rotate across all GPUs at 4 KB
// granularity, the default placement for shared data.
func (s *Space) Alloc(size uint64) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	pages := (size + PageSize - 1) / PageSize
	base := s.nextPage * PageSize
	s.nextPage += pages
	// Keep per-GPU allocators ahead of the striped region.
	for g := range s.nextGPUPage {
		for s.nextGPUPage[g] < s.nextPage {
			s.nextGPUPage[g] += uint64(s.numGPUs)
		}
	}
	return base
}

// AllocOnGPU reserves size bytes owned entirely by one GPU. The pages are
// not contiguous (ownership is page-interleaved) but the returned handle
// exposes them as a contiguous logical buffer via GPUStride.
//
// The address of logical offset x is base + (x/PageSize)*GPUStride() +
// x%PageSize; use the Buffer type to avoid doing this by hand.
func (s *Space) AllocOnGPU(gpu int, size uint64) Buffer {
	if gpu < 0 || gpu >= s.numGPUs {
		panic(fmt.Sprintf("mem: AllocOnGPU(%d) out of range", gpu))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	pages := (size + PageSize - 1) / PageSize
	firstPage := s.nextGPUPage[gpu]
	s.nextGPUPage[gpu] += pages * uint64(s.numGPUs)
	// Advance the striped allocator past this region so they never collide.
	if end := firstPage + pages*uint64(s.numGPUs); s.nextPage < end {
		s.nextPage = end
		for g := range s.nextGPUPage {
			for s.nextGPUPage[g] < s.nextPage {
				s.nextGPUPage[g] += uint64(s.numGPUs)
			}
		}
	}
	return Buffer{space: s, base: firstPage * PageSize, size: size, stride: uint64(s.numGPUs) * PageSize}
}

// AllocStriped returns the striped allocation as a Buffer for a uniform
// interface with AllocOnGPU.
func (s *Space) AllocStriped(size uint64) Buffer {
	return Buffer{space: s, base: s.Alloc(size), size: size, stride: PageSize}
}

func (s *Space) page(addr uint64, create bool) []byte {
	id := addr / PageSize
	s.mu.RLock()
	p := s.pages[id]
	s.mu.RUnlock()
	if p != nil || !create {
		return p
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if p = s.pages[id]; p == nil {
		p = make([]byte, PageSize)
		s.pages[id] = p
	}
	return p
}

// Read copies n bytes starting at addr into a fresh slice. Unwritten memory
// reads as zero.
func (s *Space) Read(addr uint64, n int) []byte {
	out := make([]byte, n)
	s.ReadInto(addr, out)
	return out
}

// ReadInto fills dst with the len(dst) bytes starting at addr, allocating
// nothing. Unwritten memory reads as zero.
func (s *Space) ReadInto(addr uint64, dst []byte) {
	n := len(dst)
	off := 0
	for off < n {
		p := s.page(addr+uint64(off), false)
		inPage := int((addr + uint64(off)) % PageSize)
		chunk := min(n-off, PageSize-inPage)
		if p != nil {
			copy(dst[off:off+chunk], p[inPage:inPage+chunk])
		} else {
			clear(dst[off : off+chunk])
		}
		off += chunk
	}
}

// Write stores data at addr.
func (s *Space) Write(addr uint64, data []byte) {
	off := 0
	for off < len(data) {
		p := s.page(addr+uint64(off), true)
		inPage := int((addr + uint64(off)) % PageSize)
		chunk := min(len(data)-off, PageSize-inPage)
		copy(p[inPage:inPage+chunk], data[off:off+chunk])
		off += chunk
	}
}

// ReadLine reads the 64-byte line containing addr (aligned down).
func (s *Space) ReadLine(addr uint64) []byte {
	return s.Read(addr&^uint64(LineSize-1), LineSize)
}

// ReadUint32 reads a little-endian uint32.
func (s *Space) ReadUint32(addr uint64) uint32 {
	var b [4]byte
	s.ReadInto(addr, b[:])
	return binary.LittleEndian.Uint32(b[:])
}

// WriteUint32 writes a little-endian uint32.
func (s *Space) WriteUint32(addr uint64, v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	s.Write(addr, b[:])
}

// ReadUint64 reads a little-endian uint64.
func (s *Space) ReadUint64(addr uint64) uint64 {
	var b [8]byte
	s.ReadInto(addr, b[:])
	return binary.LittleEndian.Uint64(b[:])
}

// WriteUint64 writes a little-endian uint64.
func (s *Space) WriteUint64(addr uint64, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	s.Write(addr, b[:])
}

// Buffer is a logical buffer whose pages may be spread across the
// interleaved space: logical offsets map to addresses page by page with a
// fixed stride. A striped buffer has stride = PageSize (contiguous); a
// GPU-local buffer has stride = numGPUs × PageSize.
type Buffer struct {
	space  *Space
	base   uint64
	size   uint64
	stride uint64
}

// Base returns the address of logical offset 0.
func (b Buffer) Base() uint64 { return b.base }

// Size returns the logical size in bytes.
func (b Buffer) Size() uint64 { return b.size }

// Addr translates a logical offset to a physical address.
func (b Buffer) Addr(off uint64) uint64 {
	if off >= b.size {
		panic(fmt.Sprintf("mem: buffer offset %d beyond size %d", off, b.size))
	}
	return b.base + off/PageSize*b.stride + off%PageSize
}

// Read copies n logical bytes starting at off.
func (b Buffer) Read(off uint64, n int) []byte {
	out := make([]byte, 0, n)
	for n > 0 {
		chunk := min(n, int(PageSize-off%PageSize))
		out = append(out, b.space.Read(b.Addr(off), chunk)...)
		off += uint64(chunk)
		n -= chunk
	}
	return out
}

// Write stores data at logical offset off.
func (b Buffer) Write(off uint64, data []byte) {
	for len(data) > 0 {
		chunk := min(len(data), int(PageSize-off%PageSize))
		b.space.Write(b.Addr(off), data[:chunk])
		off += uint64(chunk)
		data = data[chunk:]
	}
}
