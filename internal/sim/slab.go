package sim

// Slab stores values in numbered slots and recycles freed slots through a
// free stack, so a value can be handed around as a plain integer and, once
// the slab has reached its peak occupancy, Put and Take allocate nothing.
// The zero value is an empty slab.
type Slab[T any] struct {
	items []T
	free  []int
}

// Put stores v in a free slot and returns the slot.
func (s *Slab[T]) Put(v T) int {
	if n := len(s.free); n > 0 {
		slot := s.free[n-1]
		s.free = s.free[:n-1]
		s.items[slot] = v
		return slot
	}
	s.items = append(s.items, v)
	return len(s.items) - 1
}

// Take returns the value in slot and frees the slot, zeroing it so the slab
// retains nothing the value referenced.
func (s *Slab[T]) Take(slot int) T {
	var zero T
	v := s.items[slot]
	s.items[slot] = zero
	s.free = append(s.free, slot)
	return v
}
