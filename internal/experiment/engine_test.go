package experiment

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestEngineDefaultsWorkers(t *testing.T) {
	if w := NewEngine(0).Workers(); w < 1 {
		t.Errorf("workers = %d", w)
	}
	if w := NewEngine(3).Workers(); w != 3 {
		t.Errorf("workers = %d, want 3", w)
	}
}

// TestEngineBoundsConcurrency submits many more jobs than workers and
// checks the in-flight count never exceeds the pool size.
func TestEngineBoundsConcurrency(t *testing.T) {
	const workers = 3
	eng := NewEngine(workers)
	var inFlight, peak atomic.Int64
	futs := make([]Future[int], 40)
	for i := range futs {
		futs[i] = goJob(eng, func() int {
			cur := inFlight.Add(1)
			for {
				p := peak.Load()
				if cur <= p || peak.CompareAndSwap(p, cur) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			inFlight.Add(-1)
			return i
		})
	}
	for i, f := range futs {
		if got := f.Wait(); got != i {
			t.Fatalf("job %d returned %d", i, got)
		}
	}
	if p := peak.Load(); p > workers {
		t.Errorf("in-flight peak %d exceeds %d workers", p, workers)
	}
	if n := eng.Jobs(); n != 40 {
		t.Errorf("jobs = %d, want 40", n)
	}
}

// TestEngineMemoizeSingleExecution hammers one key from many goroutines:
// the job must run exactly once and every caller must see its value.
func TestEngineMemoizeSingleExecution(t *testing.T) {
	eng := NewEngine(4)
	var runs atomic.Int64
	key := JobKey{Kind: "test", Seed: 1}
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f := Future[int64]{f: eng.memoize(key, func() any {
				time.Sleep(time.Millisecond)
				return runs.Add(1)
			})}
			if v := f.Wait(); v != 1 {
				t.Errorf("saw value %d, want 1", v)
			}
		}()
	}
	wg.Wait()
	if runs.Load() != 1 {
		t.Errorf("job ran %d times", runs.Load())
	}
	if eng.CacheHits() != 31 {
		t.Errorf("cache hits = %d, want 31", eng.CacheHits())
	}
}

func TestOptionsEngineFallback(t *testing.T) {
	var o Options
	if e := o.engine(); e == nil || e.Workers() != 1 {
		t.Error("nil Options.Engine should yield a one-worker engine")
	}
	shared := NewEngine(2)
	o.Engine = shared
	if o.engine() != shared {
		t.Error("configured engine not returned")
	}
}
