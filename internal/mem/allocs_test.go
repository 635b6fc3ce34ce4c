//go:build !race

package mem

import "testing"

// ReadInto and the fixed-width readers copy into caller storage and
// allocate nothing. The race detector instruments allocations, so the file
// is excluded under -race.
func TestReadIntoAllocationFree(t *testing.T) {
	s := NewSpace(4)
	s.Write(PageSize-8, make([]byte, 16)) // the line read below straddles a page
	var line [LineSize]byte
	var sum uint64
	got := testing.AllocsPerRun(20, func() {
		s.ReadInto(PageSize-32, line[:])
		s.ReadInto(8*PageSize, line[:]) // unwritten memory
		sum += uint64(s.ReadUint32(PageSize-2)) + s.ReadUint64(16)
	})
	if got != 0 {
		t.Errorf("%v allocs per run, want 0", got)
	}
}
