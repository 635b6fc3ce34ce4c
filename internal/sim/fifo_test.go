package sim

import "testing"

// TestFIFOWraparound: interleaved pushes and pops walk the head around a
// ring that never grows, and elements come out in push order.
func TestFIFOWraparound(t *testing.T) {
	var q FIFO[int]
	next, want := 0, 0
	for i := 0; i < 3; i++ { // fill 3 of the initial 4 slots
		q.Push(next)
		next++
	}
	size := len(q.buf)
	for step := 0; step < 50; step++ {
		q.Push(next)
		next++
		if got := q.Pop(); got != want {
			t.Fatalf("step %d: Pop = %d, want %d", step, got, want)
		}
		want++
	}
	if len(q.buf) != size {
		t.Fatalf("ring grew from %d to %d slots at a constant depth", size, len(q.buf))
	}
	for q.Len() > 0 {
		if got := q.Pop(); got != want {
			t.Fatalf("drain: Pop = %d, want %d", got, want)
		}
		want++
	}
	if want != next {
		t.Fatalf("popped %d elements, pushed %d", want, next)
	}
}

// TestFIFOGrowthKeepsOrder: growing while the queued elements wrap around
// the end of the ring unwraps them in order.
func TestFIFOGrowthKeepsOrder(t *testing.T) {
	var q FIFO[int]
	next, want := 0, 0
	for round := 0; round < 6; round++ {
		// Advance the head so the live span wraps, then push past capacity.
		for i := 0; i < 3; i++ {
			q.Push(next)
			next++
		}
		for i := 0; i < 2; i++ {
			if got := q.Pop(); got != want {
				t.Fatalf("round %d: Pop = %d, want %d", round, got, want)
			}
			want++
		}
		for fill := q.Len() + len(q.buf) + 1; q.Len() < fill; {
			q.Push(next)
			next++
		}
		if q.Peek() != want {
			t.Fatalf("round %d: Peek = %d after growth, want %d", round, q.Peek(), want)
		}
	}
	for q.Len() > 0 {
		if got := q.Pop(); got != want {
			t.Fatalf("drain: Pop = %d, want %d", got, want)
		}
		want++
	}
	if want != next {
		t.Fatalf("popped %d elements, pushed %d", want, next)
	}
}

// TestFIFOPopZeroesSlot: a popped message is no longer referenced by the
// ring, so a drained queue retains nothing.
func TestFIFOPopZeroesSlot(t *testing.T) {
	var q FIFO[Msg]
	for i := 0; i < 6; i++ {
		q.Push(&testMsg{payload: i})
	}
	for i := 0; i < 6; i++ {
		q.Pop()
	}
	for i, m := range q.buf {
		if m != nil {
			t.Fatalf("slot %d still holds %v after its message was popped", i, m)
		}
	}
	if q.Peek() != nil {
		t.Fatal("Peek on an empty FIFO returned a message")
	}
}

// TestFIFOPopEmptyPanics: popping an empty queue is a caller bug.
func TestFIFOPopEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Pop on an empty FIFO did not panic")
		}
	}()
	var q FIFO[int]
	q.Pop()
}
