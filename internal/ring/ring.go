// Package ring provides a small growable deque over a power-of-two
// backing slice. It backs the MAC transmit queue, a bounded FIFO on the
// simulation hot path: all operations are O(1) amortized and steady state
// never allocates.
package ring

// Ring is a deque of T. The zero value is ready to use.
type Ring[T any] struct {
	buf  []T
	head int
	n    int
}

// Init gives an empty ring buf as its backing storage, so an owner that
// embeds the first backing array — the MAC keeps it next to its queue —
// allocates nothing until the ring outgrows it. len(buf) must be a power
// of two; a ring that is not empty, or a buf of another length, panics.
func (r *Ring[T]) Init(buf []T) {
	if r.n != 0 || len(buf) == 0 || len(buf)&(len(buf)-1) != 0 {
		panic("ring: Init needs an empty ring and a power-of-two buffer")
	}
	r.buf, r.head = buf, 0
}

// Len returns the number of queued elements.
func (r *Ring[T]) Len() int { return r.n }

// grow doubles the backing slice (power-of-two capacity), linearizing the
// live entries.
func (r *Ring[T]) grow() {
	size := len(r.buf) * 2
	if size == 0 {
		size = 16
	}
	buf := make([]T, size)
	for i := 0; i < r.n; i++ {
		buf[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	r.buf = buf
	r.head = 0
}

// PushBack appends v at the tail.
func (r *Ring[T]) PushBack(v T) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

// PushFront prepends v at the head.
func (r *Ring[T]) PushFront(v T) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.head = (r.head - 1) & (len(r.buf) - 1)
	r.buf[r.head] = v
	r.n++
}

// PopFront removes and returns the head element, zeroing its slot so the
// ring does not retain references. It panics on an empty ring.
func (r *Ring[T]) PopFront() T {
	if r.n == 0 {
		panic("ring: PopFront on empty ring")
	}
	var zero T
	v := r.buf[r.head]
	r.buf[r.head] = zero
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return v
}
