package ring

import "testing"

func TestFIFOAndDeque(t *testing.T) {
	var r Ring[int]
	if r.Len() != 0 {
		t.Fatal("zero ring not empty")
	}
	for i := 0; i < 100; i++ {
		r.PushBack(i)
	}
	r.PushFront(-1)
	if r.Len() != 101 {
		t.Fatalf("Len = %d", r.Len())
	}
	if got := r.PopFront(); got != -1 {
		t.Fatalf("PopFront = %d, want -1", got)
	}
	for i := 0; i < 100; i++ {
		if got := r.PopFront(); got != i {
			t.Fatalf("PopFront = %d, want %d", got, i)
		}
	}
	if r.Len() != 0 {
		t.Fatal("ring not drained")
	}
}

func TestWrapAroundGrowth(t *testing.T) {
	var r Ring[int]
	// Force head to wander, then grow mid-wrap.
	for i := 0; i < 12; i++ {
		r.PushBack(i)
	}
	for i := 0; i < 12; i++ {
		if r.PopFront() != i {
			t.Fatal("fifo broke pre-wrap")
		}
	}
	for i := 0; i < 40; i++ { // grows twice while head != 0
		r.PushBack(i)
	}
	for i := 0; i < 40; i++ {
		if got := r.PopFront(); got != i {
			t.Fatalf("after growth: got %d, want %d", got, i)
		}
	}
}

func TestPopZeroesSlot(t *testing.T) {
	var r Ring[*int]
	x := 5
	r.PushBack(&x)
	r.PopFront()
	// Whitebox: the vacated slot must not retain the pointer.
	for _, p := range r.buf {
		if p != nil {
			t.Fatal("popped slot retains reference")
		}
	}
}

func TestSteadyStateAllocFree(t *testing.T) {
	var r Ring[int]
	for i := 0; i < 64; i++ {
		r.PushBack(i)
	}
	for r.Len() > 0 {
		r.PopFront()
	}
	allocs := testing.AllocsPerRun(1000, func() {
		r.PushFront(1)
		r.PushBack(2)
		r.PopFront()
		r.PopFront()
	})
	if allocs != 0 {
		t.Errorf("warm ring allocates %.1f objects, want 0", allocs)
	}
}

func TestInitUsesTheGivenBuffer(t *testing.T) {
	var backing [4]int
	var r Ring[int]
	r.Init(backing[:])
	for i := 0; i < 4; i++ {
		r.PushBack(i)
	}
	if backing != [4]int{0, 1, 2, 3} {
		t.Fatalf("Init's buffer holds %v, want the four pushed values", backing)
	}
	r.PushFront(-1) // outgrows the buffer: the ring moves to its own
	for want := -1; want < 4; want++ {
		if got := r.PopFront(); got != want {
			t.Fatalf("PopFront = %d, want %d", got, want)
		}
	}
	for _, buf := range [][]int{nil, make([]int, 3)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Init(len %d) did not panic", len(buf))
				}
			}()
			var r Ring[int]
			r.Init(buf)
		}()
	}
}
