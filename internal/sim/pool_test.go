package sim

import (
	"testing"
	"time"
)

// TestMassCancellation schedules 100k timers and cancels them all. With
// the pooled kernel each Stop removes its event from the heap in
// O(log n); the old lazy scheme left 100k dead records to be scanned at
// the next pop. The test pins the observable contract: after mass
// cancellation nothing is pending, nothing fires, and the pool recycles
// records for subsequent scheduling.
func TestMassCancellation(t *testing.T) {
	const n = 100_000
	k := NewKernel(7)
	fired := 0
	timers := make([]Timer, n)
	for i := 0; i < n; i++ {
		d := time.Duration(1+(i*7919)%n) * time.Microsecond
		timers[i] = k.After(d, func() { fired++ })
	}
	if got := k.Pending(); got != n {
		t.Fatalf("Pending() = %d, want %d", got, n)
	}
	for i := range timers {
		if !timers[i].Stop() {
			t.Fatalf("timer %d was not pending at Stop", i)
		}
	}
	if got := k.Pending(); got != 0 {
		t.Fatalf("Pending() after mass cancel = %d, want 0", got)
	}
	// Stopping again reports false and stays O(1).
	if timers[0].Stop() {
		t.Error("double Stop reported true")
	}
	k.Run()
	if fired != 0 {
		t.Fatalf("%d cancelled timers fired", fired)
	}
	// The arena must recycle: scheduling n more events must not grow it.
	before := len(k.pool)
	for i := 0; i < n; i++ {
		k.After(time.Duration(i+1)*time.Microsecond, func() { fired++ })
	}
	if len(k.pool) != before {
		t.Errorf("arena grew from %d to %d records despite a full free list",
			before, len(k.pool))
	}
	k.Run()
	if fired != n {
		t.Fatalf("fired = %d, want %d", fired, n)
	}
}

// TestInterleavedCancelKeepsOrder cancels every third timer out of a
// shuffled schedule and checks the survivors fire in timestamp order —
// heapRemove must preserve heap invariants under arbitrary interior
// removals.
func TestInterleavedCancelKeepsOrder(t *testing.T) {
	k := NewKernel(3)
	const n = 2000
	var fired []time.Duration
	timers := make([]Timer, n)
	ds := make([]time.Duration, n)
	for i := 0; i < n; i++ {
		d := time.Duration(1+(i*5471)%n) * time.Microsecond
		ds[i] = d
		timers[i] = k.After(d, func() { fired = append(fired, d) })
	}
	want := 0
	for i := range timers {
		if i%3 == 0 {
			timers[i].Stop()
		} else {
			want++
		}
	}
	k.Run()
	if len(fired) != want {
		t.Fatalf("fired %d, want %d", len(fired), want)
	}
	for i := 1; i < len(fired); i++ {
		if fired[i] < fired[i-1] {
			t.Fatalf("out of order at %d: %v after %v", i, fired[i], fired[i-1])
		}
	}
}

// stepHandler is a self-rescheduling Handler used by the allocation guard.
type stepHandler struct {
	k     *Kernel
	n     int
	limit int
}

func (h *stepHandler) OnEvent() {
	h.n++
	if h.n < h.limit {
		h.k.AfterHandler(time.Microsecond, h)
	}
}

// TestKernelDispatchAllocFree is the hot-path guard for the event kernel:
// scheduling and dispatching through Step must not allocate in steady
// state (the arena and heap are warm after the first pass) — for a
// Handler, and for an existing closure, whose conversion to the kernel's
// one callback kind is free.
func TestKernelDispatchAllocFree(t *testing.T) {
	k := NewKernel(1)
	h := &stepHandler{k: k, limit: 1} // fires once per schedule; a larger limit only lengthens the warm-up
	fired := 0
	fn := func() { fired++ }
	for _, tc := range []struct {
		name     string
		schedule func()
	}{
		{"handler", func() { k.AfterHandler(time.Microsecond, h) }},
		{"closure", func() { k.After(time.Microsecond, fn) }},
	} {
		// Warm the arena and heap.
		tc.schedule()
		k.Run()
		allocs := testing.AllocsPerRun(1000, func() {
			tc.schedule()
			for k.Step() {
			}
		})
		if allocs != 0 {
			t.Errorf("%s dispatch allocates %.1f objects per event, want 0", tc.name, allocs)
		}
	}
	if fired == 0 {
		t.Error("closure form never fired")
	}
}

// TestTimerHandleSafety pins the generation mechanism: a handle to a
// fired event must not cancel the event that recycled its slot.
func TestTimerHandleSafety(t *testing.T) {
	k := NewKernel(5)
	fired := false
	t1 := k.After(time.Millisecond, func() {})
	k.Run() // t1 fires; its slot returns to the free list
	t2 := k.After(time.Millisecond, func() { fired = true })
	if t1.Stop() {
		t.Error("stale handle stopped a recycled event")
	}
	if t1.Pending() {
		t.Error("stale handle reports pending")
	}
	if !t2.Pending() {
		t.Error("live handle reports not pending")
	}
	k.Run()
	if !fired {
		t.Error("recycled-slot event did not fire")
	}
	var zero Timer
	if zero.Stop() || zero.Pending() {
		t.Error("zero Timer is not inert")
	}
}
