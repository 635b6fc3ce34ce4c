package sim

// FIFO is a first-in first-out queue on a ring buffer. It reuses its backing
// array, so once it has reached its peak depth Push and Pop allocate
// nothing, and Pop zeroes the slot it vacates so a popped message is not
// retained. Growth doubles the ring and keeps the queued order. The zero
// value is an empty queue; the backing array is allocated on first Push.
type FIFO[T any] struct {
	buf  []T // len(buf) is zero or a power of two
	head int
	n    int
}

// Len returns the number of queued elements.
func (q *FIFO[T]) Len() int { return q.n }

// Push appends v at the tail.
func (q *FIFO[T]) Push(v T) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
}

// Peek returns the head element without removing it, or the zero value
// when the queue is empty.
func (q *FIFO[T]) Peek() T {
	if q.n == 0 {
		var zero T
		return zero
	}
	return q.buf[q.head]
}

// Pop removes and returns the head element. Popping an empty queue panics.
func (q *FIFO[T]) Pop() T {
	if q.n == 0 {
		panic("sim: Pop on an empty FIFO")
	}
	var zero T
	v := q.buf[q.head]
	q.buf[q.head] = zero
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return v
}

// grow doubles the ring (minimum 4 slots), unwrapping the queued elements
// to the front of the new array.
func (q *FIFO[T]) grow() {
	size := 2 * len(q.buf)
	if size == 0 {
		size = 4
	}
	buf := make([]T, size)
	k := copy(buf, q.buf[q.head:])
	copy(buf[k:], q.buf[:q.head])
	q.buf = buf
	q.head = 0
}
