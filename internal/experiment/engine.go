package experiment

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/vanlan/vifi/internal/core"
	"github.com/vanlan/vifi/internal/trace"
)

// Engine schedules independent simulation runs — jobs — onto a bounded
// worker pool and memoizes their results. Every figure declares its
// simulation arms as jobs (each builds its own sim.Kernel from an explicit
// seed, so RNG streams never cross job boundaries) and then merges the
// results in declaration order, which keeps reports byte-identical to a
// serial execution no matter how many workers run.
//
// The memoizing run-cache deduplicates identical workloads across figures:
// a job keyed by (kind, seed, config, duration, spec) that has already been
// scheduled — even if it is still running — hands the same future to every
// requester. Fig 9, Fig 12 and Table 1, for example, all need the same
// collecting VanLAN ViFi TCP run; the engine computes it once.
//
// Rule: job functions must be leaves. A job must never Wait on another
// future from the same engine — with a bounded pool that is a deadlock
// (the waiting job holds the slot its dependency needs). Figures submit
// first, then Wait from the merge step only. That rule is also why there
// is one execution mode: "serial" is a one-worker pool (NewEngine(1)),
// which completes every figure because no job ever waits on a slot.
type Engine struct {
	workers int
	sem     chan struct{}
	// metricsInterval, when positive, makes every executed run attach an
	// obs sampler at this sim-time cadence (see metrics.go). Set once via
	// EnableMetrics before scheduling; engine-constant, so it never
	// appears in job keys.
	metricsInterval time.Duration

	mu     sync.Mutex
	memo   map[JobKey]*future
	traces map[traceKey]func() *trace.Trace // DieselNet trace memo (dieselNet)

	jobs atomic.Int64 // jobs actually executed
	hits atomic.Int64 // run-cache hits (jobs avoided)
}

// NewEngine returns an engine with the given number of workers; values
// below 1 default to GOMAXPROCS.
func NewEngine(workers int) *Engine {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Engine{
		workers: workers,
		sem:     make(chan struct{}, workers),
		memo:    map[JobKey]*future{},
		traces:  map[traceKey]func() *trace.Trace{},
	}
}

// Workers returns the pool size.
func (e *Engine) Workers() int { return e.workers }

// Jobs returns the number of jobs executed so far.
func (e *Engine) Jobs() int64 { return e.jobs.Load() }

// CacheHits returns the number of scheduled jobs satisfied by the
// run-cache instead of being recomputed.
func (e *Engine) CacheHits() int64 { return e.hits.Load() }

// JobKey identifies one simulation run for memoization. Two jobs with
// equal keys must be observationally identical, so the key carries every
// input that influences the result: the job kind, the seed, the full
// protocol configuration (core.Config is flat and comparable) and the
// duration. Extra carries the rest (a fleet run's spec key, shard count
// and collection; the probe trace's trip count).
type JobKey struct {
	Kind  string
	Seed  int64
	Cfg   core.Config
	Dur   time.Duration
	Extra string
}

// future is the untyped result slot jobs deliver into.
type future struct {
	done chan struct{}
	val  any
}

func newFuture() *future { return &future{done: make(chan struct{})} }

func (f *future) wait() any {
	<-f.done
	return f.val
}

// Future is a typed handle on a scheduled job's result.
type Future[T any] struct{ f *future }

// Wait blocks until the job completes and returns its result. Memoized
// results are shared between callers and must be treated as immutable.
func (f Future[T]) Wait() T { return f.f.wait().(T) }

// launch runs fn on a pool slot and delivers its result into f.
func (e *Engine) launch(f *future, fn func() any) {
	go func() {
		e.sem <- struct{}{}
		defer func() { <-e.sem }()
		e.jobs.Add(1)
		f.val = fn()
		close(f.done)
	}()
}

// submit schedules fn on the pool with no memoization. Used for jobs whose
// side effects (event collectors) make their results non-shareable.
func (e *Engine) submit(fn func() any) *future {
	f := newFuture()
	e.launch(f, fn)
	return f
}

// memoize schedules fn under key, deduplicating against every job already
// scheduled (completed or in flight) with the same key.
func (e *Engine) memoize(key JobKey, fn func() any) *future {
	e.mu.Lock()
	if f, ok := e.memo[key]; ok {
		e.mu.Unlock()
		e.hits.Add(1)
		return f
	}
	f := newFuture()
	e.memo[key] = f
	e.mu.Unlock()
	e.launch(f, fn)
	return f
}

// goJob schedules an arbitrary leaf computation with no memoization and
// returns a typed future. Figures use it for one-off arms (ablation
// sweeps, Monte Carlo halves) that are never shared across figures.
func goJob[T any](e *Engine, fn func() T) Future[T] {
	return Future[T]{f: e.submit(func() any { return fn() })}
}
