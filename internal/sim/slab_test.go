package sim

import "testing"

// TestSlabRecyclesSlots: Take returns what Put stored, zeroes the slot, and
// the next Put reuses the most recently freed slot instead of growing.
func TestSlabRecyclesSlots(t *testing.T) {
	var s Slab[Msg]
	a, b := &testMsg{payload: 1}, &testMsg{payload: 2}
	sa, sb := s.Put(a), s.Put(b)
	if sa == sb {
		t.Fatalf("two live values share slot %d", sa)
	}
	if got := s.Take(sa); got != Msg(a) {
		t.Fatalf("Take(%d) = %v, want %v", sa, got, a)
	}
	if s.items[sa] != nil {
		t.Fatal("a taken slot still references its value")
	}
	if sc := s.Put(&testMsg{payload: 3}); sc != sa || len(s.items) != 2 {
		t.Fatalf("Put after Take used slot %d of %d; want freed slot %d of 2", sc, len(s.items), sa)
	}
	if got := s.Take(sb); got != Msg(b) {
		t.Fatalf("Take(%d) = %v, want %v", sb, got, b)
	}
}
