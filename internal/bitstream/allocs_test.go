//go:build !race

package bitstream

import "testing"

// TestWriterReuseAllocationFree pins a reused Writer at zero allocations:
// once its buffer has grown, Reset, WriteBits and WriteBytes (aligned and
// unaligned) never reallocate. The race detector instruments allocations,
// so the file is excluded under -race.
func TestWriterReuseAllocationFree(t *testing.T) {
	payload := make([]byte, 64)
	for i := range payload {
		payload[i] = byte(i)
	}
	w := NewWriter()
	pass := func() {
		w.Reset()
		for _, n := range benchWidths {
			for j := 0; j < 64; j++ {
				w.WriteBits(0xA5A5A5A5A5A5A5A5, n)
			}
		}
		w.WriteBytes(payload)
		w.WriteBits(1, 3)
		w.WriteBytes(payload)
	}
	if got := testing.AllocsPerRun(10, pass); got != 0 {
		t.Errorf("%v allocs per reused-writer pass, want 0", got)
	}
}
