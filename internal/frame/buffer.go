package frame

import "math/bits"

// BufferPool is a size-classed free list of byte buffers for the
// simulation hot path: frame marshaling and the radio channel's one payload
// copy per transmission recycle through it instead of the garbage
// collector.
//
// Ownership rules (see DESIGN.md, "Performance model"):
//
//   - A buffer obtained with Get is owned by the caller until it is passed
//     to Put. Putting a buffer transfers ownership back to the pool; the
//     caller must not touch it afterwards.
//   - Code handed a pooled buffer by someone else (a radio Receiver, a MAC
//     handler) may read it only for the duration of the call, must not
//     write it — every receiver of a frame is handed the same copy — and
//     must copy what it wants to retain.
//
// The pool is deliberately not thread-safe: it lives on the
// single-goroutine simulation kernel, and a mutex or sync.Pool would cost
// more than the allocation it saves. Each simulation owns its pools, so
// parallel experiment workers never share one.
type BufferPool struct {
	classes [poolClasses][][]byte
}

const (
	poolMinShift = 6 // smallest class: 64 bytes
	poolClasses  = 17
	// poolClassCap bounds retained buffers per class so a burst cannot
	// pin memory forever.
	poolClassCap = 256
)

// class returns the size-class index for a buffer of capacity n: the
// smallest power of two ≥ n, floored at 64 bytes.
func class(n int) int {
	if n <= 1<<poolMinShift {
		return 0
	}
	return bits.Len(uint(n-1)) - poolMinShift
}

// Get returns a buffer with len n. Its contents are unspecified; callers
// that append must slice to [:0] first or overwrite every byte.
func (p *BufferPool) Get(n int) []byte {
	c := class(n)
	if c >= poolClasses {
		return make([]byte, n) // oversize: bypass the pool
	}
	if s := p.classes[c]; len(s) > 0 {
		b := s[len(s)-1]
		s[len(s)-1] = nil
		p.classes[c] = s[:len(s)-1]
		return b[:n]
	}
	return make([]byte, n, 1<<(c+poolMinShift))
}

// Put returns a buffer to the pool. Nil, undersized and oversize buffers
// are dropped; so are buffers beyond the per-class retention cap.
func (p *BufferPool) Put(b []byte) {
	c := cap(b)
	if c < 1<<poolMinShift {
		return
	}
	// File under the largest class the capacity fully covers, so Get's
	// cap promise holds even for buffers born outside the pool.
	cl := bits.Len(uint(c)) - 1 - poolMinShift
	if cl >= poolClasses {
		return
	}
	if len(p.classes[cl]) >= poolClassCap {
		return
	}
	p.classes[cl] = append(p.classes[cl], b[:0])
}
