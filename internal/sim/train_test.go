package sim

import (
	"fmt"
	"slices"
	"testing"
	"time"
)

// trainWorld drives one seeded random schedule on one kernel: trains,
// one-off events on the same timestamps as train firings (scheduled before
// and after the train), and events that a firing schedules at its train's
// next firing time. every selects how a train is scheduled — Kernel.Every,
// or its twin, n back-to-back At calls — and nothing else differs, so both
// worlds must log the same firings in the same order.
type trainWorld struct {
	k      *Kernel
	r      *RNG
	every  bool
	log    []string
	trains int
	times  []time.Duration // firing times of the trains scheduled so far
}

func (w *trainWorld) train(start, period time.Duration, n int) {
	id := w.trains
	w.trains++
	for i := 0; i < n; i++ {
		w.times = append(w.times, start+time.Duration(i)*period)
	}
	fn := func(i int) {
		w.log = append(w.log, fmt.Sprintf("%v train %d/%d", w.k.Now(), id, i))
		switch w.r.Intn(4) {
		case 0: // on the next firing's timestamp, behind the firing
			w.oneOff(w.k.Now() + period)
		case 1: // at once, behind every firing already due now
			w.oneOff(w.k.Now())
		case 2:
			if w.trains < 12 {
				w.train(w.k.Now()+time.Duration(w.r.Intn(3))*period, period, w.r.Intn(5))
			}
		}
	}
	if w.every {
		w.k.Every(start, period, n, fn)
		return
	}
	for i := 0; i < n; i++ {
		i := i
		w.k.At(start+time.Duration(i)*period, func() { fn(i) })
	}
}

// oneOff schedules a logged event at at, which may itself schedule another
// on a train firing's timestamp.
func (w *trainWorld) oneOff(at time.Duration) {
	id := len(w.log)
	w.k.At(at, func() {
		w.log = append(w.log, fmt.Sprintf("%v event %d", w.k.Now(), id))
		if w.r.Intn(3) == 0 {
			if t := w.firingTime(); t >= w.k.Now() {
				w.oneOff(t)
			}
		}
	})
}

// firingTime returns a random train firing time, or the kernel's time
// when no train has been scheduled.
func (w *trainWorld) firingTime() time.Duration {
	if len(w.times) == 0 {
		return w.k.Now()
	}
	return w.times[w.r.Intn(len(w.times))]
}

func runTrainWorld(seed int64, every bool) *trainWorld {
	w := &trainWorld{k: NewKernel(seed), r: NewKernel(seed).RNG("trains"), every: every}
	for t := 1 + w.r.Intn(4); t > 0; t-- {
		for e := w.r.Intn(4); e > 0; e-- { // on timestamps of earlier trains
			w.oneOff(w.firingTime())
		}
		period := time.Duration(w.r.Intn(4)) * time.Millisecond // 0 is a burst of ties
		w.train(time.Duration(w.r.Intn(10))*time.Millisecond, period, w.r.Intn(12))
		for e := w.r.Intn(4); e > 0; e-- { // on timestamps of this one
			w.oneOff(w.firingTime())
		}
	}
	w.k.Run()
	return w
}

// TestEveryMatchesAtCalls holds Kernel.Every to its oracle: a train
// scheduled as n At calls. Both must run the same events in the same
// order, which holds only if firing i keeps the sequence number reserved
// for it when the train was scheduled.
func TestEveryMatchesAtCalls(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		a, b := runTrainWorld(seed, true), runTrainWorld(seed, false)
		if a.k.EventsRun() != b.k.EventsRun() {
			t.Fatalf("seed %d: Every ran %d events, At calls %d", seed, a.k.EventsRun(), b.k.EventsRun())
		}
		if !slices.Equal(a.log, b.log) {
			t.Fatalf("seed %d: firing logs differ:\n Every: %v\n At:    %v", seed, a.log, b.log)
		}
	}

	t.Run("past start panics", func(t *testing.T) {
		k := NewKernel(1)
		k.RunUntil(time.Second)
		k.Every(0, time.Millisecond, 0, func(int) {}) // no At call, no panic
		defer func() {
			if recover() == nil {
				t.Error("a train starting in the past did not panic")
			}
		}()
		k.Every(500*time.Millisecond, time.Millisecond, 1, func(int) {})
	})

	t.Run("one pending event", func(t *testing.T) {
		k := NewKernel(1)
		fired := 0
		k.Every(0, time.Microsecond, 1<<20, func(int) { fired++ })
		if k.Pending() != 1 {
			t.Fatalf("a train leaves %d events pending, want 1", k.Pending())
		}
		k.Step() // warm the arena and heap
		if allocs := testing.AllocsPerRun(1000, func() { k.Step() }); allocs != 0 {
			t.Errorf("a train firing allocates %.1f objects, want 0", allocs)
		}
		if fired != 1002 || k.Pending() != 1 {
			t.Errorf("fired %d, pending %d; want 1002 and 1", fired, k.Pending())
		}
	})
}
