package mem

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestInterleaveCoversAllControllers(t *testing.T) {
	s := NewSpace(4)
	seen := make(map[int]bool)
	for p := uint64(0); p < 32; p++ {
		addr := p * PageSize
		g, c := s.GPUOf(addr), s.ChannelOf(addr)
		if g < 0 || g >= 4 || c < 0 || c >= 8 {
			t.Fatalf("page %d mapped to GPU %d channel %d", p, g, c)
		}
		gc := s.GlobalChannelOf(addr)
		if gc != g*8+c {
			t.Fatalf("global channel inconsistent: %d vs %d/%d", gc, g, c)
		}
		if seen[gc] {
			t.Fatalf("controller %d hit twice in first 32 pages", gc)
		}
		seen[gc] = true
	}
	if len(seen) != 32 {
		t.Fatalf("first 32 pages covered %d controllers, want 32", len(seen))
	}
}

func TestInterleaveRotatesGPUsFirst(t *testing.T) {
	// Consecutive pages must rotate across GPUs (fine-grained NUMA spread).
	s := NewSpace(4)
	for p := uint64(0); p < 16; p++ {
		if g := s.GPUOf(p * PageSize); g != int(p%4) {
			t.Errorf("page %d on GPU %d, want %d", p, g, p%4)
		}
	}
	// Addresses within one page stay on one GPU.
	if s.GPUOf(100) != s.GPUOf(PageSize-1) {
		t.Error("intra-page addresses split across GPUs")
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	s := NewSpace(4)
	data := []byte("hello, multi-GPU world")
	addr := uint64(PageSize*3 + 100)
	s.Write(addr, data)
	if got := s.Read(addr, len(data)); !bytes.Equal(got, data) {
		t.Errorf("Read = %q, want %q", got, data)
	}
}

func TestReadUnwrittenMemoryIsZero(t *testing.T) {
	s := NewSpace(4)
	got := s.Read(1<<30, 128)
	for _, b := range got {
		if b != 0 {
			t.Fatal("unwritten memory not zero")
		}
	}
}

// ReadInto overwrites every byte of a reused buffer, unwritten memory
// included, and agrees with Read across page boundaries.
func TestReadIntoMatchesRead(t *testing.T) {
	s := NewSpace(4)
	data := make([]byte, PageSize)
	rand.New(rand.NewSource(2)).Read(data)
	s.Write(PageSize-100, data[:150]) // the second page is partly unwritten
	buf := bytes.Repeat([]byte{0xEE}, 3*LineSize)
	for _, addr := range []uint64{PageSize - 100, PageSize - 64, PageSize + 20, 9 * PageSize} {
		s.ReadInto(addr, buf)
		if want := s.Read(addr, len(buf)); !bytes.Equal(buf, want) {
			t.Errorf("ReadInto(%#x) differs from Read", addr)
		}
	}
}

func TestWriteAcrossPageBoundary(t *testing.T) {
	s := NewSpace(4)
	data := make([]byte, 3*PageSize)
	rng := rand.New(rand.NewSource(1))
	rng.Read(data)
	addr := uint64(PageSize - 17)
	s.Write(addr, data)
	if got := s.Read(addr, len(data)); !bytes.Equal(got, data) {
		t.Error("cross-page write round trip failed")
	}
}

func TestReadLineAligns(t *testing.T) {
	s := NewSpace(4)
	s.WriteUint32(128, 0xDEADBEEF)
	line := s.ReadLine(130) // unaligned address within the line
	if len(line) != LineSize {
		t.Fatalf("line length %d", len(line))
	}
	if got := s.ReadUint32(128); got != 0xDEADBEEF {
		t.Errorf("ReadUint32 = %#x", got)
	}
	if line[0] != 0xEF || line[1] != 0xBE {
		t.Error("ReadLine did not align down")
	}
}

func TestUint64RoundTrip(t *testing.T) {
	s := NewSpace(4)
	s.WriteUint64(4096*7+8, 0x0123456789ABCDEF)
	if got := s.ReadUint64(4096*7 + 8); got != 0x0123456789ABCDEF {
		t.Errorf("ReadUint64 = %#x", got)
	}
}

func TestAllocStripedIsContiguous(t *testing.T) {
	s := NewSpace(4)
	b := s.AllocStriped(3 * PageSize)
	for off := uint64(0); off < 3*PageSize; off += 1000 {
		if b.Addr(off) != b.Base()+off {
			t.Fatalf("striped buffer not contiguous at %d", off)
		}
	}
}

func TestAllocOnGPUOwnership(t *testing.T) {
	s := NewSpace(4)
	for gpu := 0; gpu < 4; gpu++ {
		b := s.AllocOnGPU(gpu, 10*PageSize)
		for off := uint64(0); off < b.Size(); off += 512 {
			if g := s.GPUOf(b.Addr(off)); g != gpu {
				t.Fatalf("GPU-%d buffer offset %d landed on GPU %d", gpu, off, g)
			}
		}
	}
}

func TestAllocationsNeverOverlap(t *testing.T) {
	s := NewSpace(4)
	type region struct{ buf Buffer }
	var regions []region
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 40; i++ {
		size := uint64(rng.Intn(5*PageSize) + 1)
		var b Buffer
		if rng.Intn(2) == 0 {
			b = s.AllocStriped(size)
		} else {
			b = s.AllocOnGPU(rng.Intn(4), size)
		}
		regions = append(regions, region{b})
	}
	// Write a distinct marker into each buffer, then verify none clobbered.
	for i, r := range regions {
		marker := make([]byte, r.buf.Size())
		for j := range marker {
			marker[j] = byte(i + 1)
		}
		r.buf.Write(0, marker)
	}
	for i, r := range regions {
		got := r.buf.Read(0, int(r.buf.Size()))
		for j, b := range got {
			if b != byte(i+1) {
				t.Fatalf("buffer %d byte %d clobbered (got %d)", i, j, b)
			}
		}
	}
}

func TestBufferLogicalReadWrite(t *testing.T) {
	s := NewSpace(4)
	b := s.AllocOnGPU(2, 3*PageSize)
	data := make([]byte, 2*PageSize+300)
	rng := rand.New(rand.NewSource(3))
	rng.Read(data)
	b.Write(100, data)
	if got := b.Read(100, len(data)); !bytes.Equal(got, data) {
		t.Error("buffer logical round trip failed")
	}
}

func TestBufferAddrPanicsOutOfRange(t *testing.T) {
	s := NewSpace(4)
	b := s.AllocOnGPU(0, 100)
	defer func() {
		if recover() == nil {
			t.Error("out-of-range Addr did not panic")
		}
	}()
	b.Addr(100)
}

// Property: Buffer.Addr is injective within a buffer and all addresses are
// owned by the right GPU.
func TestBufferAddressingProperty(t *testing.T) {
	s := NewSpace(4)
	f := func(gpuRaw uint8, pagesRaw uint8, offsets []uint16) bool {
		gpu := int(gpuRaw % 4)
		pages := uint64(pagesRaw%8) + 1
		b := s.AllocOnGPU(gpu, pages*PageSize)
		seen := make(map[uint64]bool)
		for _, o := range offsets {
			off := uint64(o) % (pages * PageSize)
			a := b.Addr(off)
			if s.GPUOf(a) != gpu {
				return false
			}
			if seen[a] {
				continue // same offset may repeat in input
			}
			seen[a] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
