// Coupler runs several Kernels as one coherent simulation: each kernel is
// a shard advancing through bounded time windows in lockstep, and events
// that cross shard boundaries are exchanged at window barriers and injected
// at their exact timestamps. The scheme is classic conservative parallel
// discrete-event simulation: if every cross-shard interaction takes at
// least L (the lookahead) of simulated time to arrive, then a window of
// width L can run in every shard concurrently — no event posted during
// window [T, T+L) can be due before T+L, so by the time any shard needs it,
// the barrier has already delivered it.
//
// Determinism contract: injection order at a barrier is sorted by
// (arrival time, posting time, source shard, per-source sequence), a total
// order independent of goroutine scheduling, and each injected event is
// scheduled before any window event runs, so the receiving kernel's
// (at, seq) heap order — and therefore its behavior — is a pure function
// of the posted events, never of wall-clock interleaving.
package sim

import (
	"fmt"
	"sort"
	"time"
)

// crossEvent is one cross-shard event in flight between barriers.
type crossEvent struct {
	at       time.Duration // arrival timestamp in the destination shard
	schedAt  time.Duration // source-shard clock when posted
	srcShard int
	seq      uint64 // per-source posting sequence
	dst      int
	fn       Event
}

// ShardStats reports one shard's execution counters after a coupled run.
type ShardStats struct {
	Events        uint64 // events executed by the shard's kernel
	Rounds        int    // windows the shard advanced through
	StalledRounds int    // windows in which the shard ran no event at all
	Posted        int    // cross-shard events this shard posted
	Injected      int    // cross-shard events injected into this shard
}

// Coupler synchronizes a set of shard kernels under a conservative
// lookahead. Zero value is not usable; construct with NewCoupler, add
// shards and at least one lookahead bound, then Run.
type Coupler struct {
	kernels   []*Kernel
	lookahead time.Duration
	windowEnd time.Duration // current window's exclusive upper bound
	running   bool

	// outbox[s] collects events posted by shard s during the current
	// window. Only shard s's goroutine touches it between barriers.
	outbox  [][]crossEvent
	postSeq []uint64
	stats   []ShardStats
}

// NewCoupler returns an empty coupler. Lookahead starts unset; every
// coupled subsystem must register its minimum cross-shard latency with
// AddLookahead before Run.
func NewCoupler() *Coupler {
	return &Coupler{}
}

// AddShard registers a kernel as the next shard and returns its index.
func (c *Coupler) AddShard(k *Kernel) int {
	c.kernels = append(c.kernels, k)
	c.outbox = append(c.outbox, nil)
	c.postSeq = append(c.postSeq, 0)
	c.stats = append(c.stats, ShardStats{})
	return len(c.kernels) - 1
}

// AddLookahead lowers the coupling window to d if it is tighter than the
// current bound. Every subsystem able to carry an event across shards
// (the backplane's minimum transit delay, a radio halo margin) must
// register its bound; the coupler runs at the minimum.
func (c *Coupler) AddLookahead(d time.Duration) {
	if d <= 0 {
		panic(fmt.Sprintf("sim: coupler lookahead %v must be positive", d))
	}
	if c.lookahead == 0 || d < c.lookahead {
		c.lookahead = d
	}
}

// Post schedules fn to run in shard dst at absolute time at. It must be
// called from shard src's goroutine while that shard is inside a window
// (i.e. from an event executing under Run). at must be at least the end of
// the current window — a violation means the poster's latency undercuts
// the registered lookahead, which would break the conservative contract.
func (c *Coupler) Post(src, dst int, at time.Duration, fn Event) {
	if !c.running {
		panic("sim: coupler Post outside Run")
	}
	if at < c.windowEnd {
		panic(fmt.Sprintf("sim: coupler Post at %v inside current window (ends %v): lookahead violated", at, c.windowEnd))
	}
	c.postSeq[src]++
	c.stats[src].Posted++
	c.outbox[src] = append(c.outbox[src], crossEvent{
		at:       at,
		schedAt:  c.kernels[src].Now(),
		srcShard: src,
		seq:      c.postSeq[src],
		dst:      dst,
		fn:       fn,
	})
}

// Run advances every shard to exactly `until` (clock included), executing
// all events with timestamps ≤ until and exchanging cross-shard events at
// window barriers. Single-shard couplers run the plain serial path.
// Events posted with timestamps > until are dropped, matching the serial
// semantics of RunUntil leaving post-deadline events unexecuted.
func (c *Coupler) Run(until time.Duration) []ShardStats {
	r := c.Begin(until)
	for {
		if _, done := r.Step(); done {
			return r.Finish()
		}
	}
}

// windowCmd is one window order to a shard worker.
type windowCmd struct {
	deadline time.Duration
	final    bool
}

// CoupledRun is an in-flight coupled execution. Begin starts the shard
// workers; each Step advances every shard through exactly one more
// window barrier; Finish returns the stats once Step reported done.
//
// The window-command sequence a CoupledRun issues is a pure function of
// (until, lookahead, the posted events) — identical whether Steps run
// back to back (Run) or with arbitrary wall-clock pauses in between.
// That is what lets a serving frontend pause a sharded session at a
// barrier and resume it later with byte-identical results: simulation
// state only ever changes inside Step.
type CoupledRun struct {
	c     *Coupler
	until time.Duration
	t     time.Duration // next non-final window start
	phase int           // 0 windows, 1 drain, 2 done

	cmds   []chan windowCmd
	done   chan int
	panics []any
}

// ShardStatsAt exposes shard s's live execution counters for sampling.
// During a window only shard s's own goroutine may read them (its
// events/rounds fields are being written there); between barriers — or
// after the run — any goroutine may.
func (c *Coupler) ShardStatsAt(s int) *ShardStats { return &c.stats[s] }

// Begin starts a coupled execution toward `until` and returns the
// stepping handle. Single-shard couplers skip the worker machinery: the
// one Step runs the plain serial path.
func (c *Coupler) Begin(until time.Duration) *CoupledRun {
	if len(c.kernels) == 0 {
		panic("sim: coupler Begin with no shards")
	}
	if c.running {
		panic("sim: coupler Begin while a run is active")
	}
	r := &CoupledRun{c: c, until: until}
	if len(c.kernels) == 1 {
		return r
	}
	if c.lookahead <= 0 {
		panic("sim: coupler Begin with no registered lookahead")
	}
	c.running = true

	// Persistent worker goroutines, one per shard: each waits for a window
	// deadline, advances its kernel, and reports back. Channel round-trips
	// per window are the entire synchronization cost.
	n := len(c.kernels)
	r.cmds = make([]chan windowCmd, n)
	r.done = make(chan int, n)
	r.panics = make([]any, n)
	for s := 0; s < n; s++ {
		r.cmds[s] = make(chan windowCmd, 1)
		go func(s int, k *Kernel) {
			window := func(cmd windowCmd) {
				defer func() { r.panics[s] = recover() }()
				before := k.EventsRun()
				if cmd.final {
					k.RunUntil(cmd.deadline)
				} else {
					k.RunBefore(cmd.deadline)
				}
				ran := k.EventsRun() - before
				c.stats[s].Events += ran
				c.stats[s].Rounds++
				if ran == 0 {
					c.stats[s].StalledRounds++
				}
			}
			for cmd := range r.cmds[s] {
				window(cmd)
				r.done <- s
			}
		}(s, c.kernels[s])
	}
	return r
}

// runWindow advances every shard through one window and exchanges the
// posted events, returning how many were injected.
func (r *CoupledRun) runWindow(deadline time.Duration, final bool) int {
	c := r.c
	n := len(c.kernels)
	c.windowEnd = deadline
	for s := 0; s < n; s++ {
		r.cmds[s] <- windowCmd{deadline: deadline, final: final}
	}
	for i := 0; i < n; i++ {
		<-r.done
	}
	// Re-raise a shard panic on the coordinator goroutine so callers
	// see it as a normal panic out of Step, not a process crash.
	for s := 0; s < n; s++ {
		if p := r.panics[s]; p != nil {
			r.close()
			panic(p)
		}
	}
	return c.exchange(r.until)
}

func (r *CoupledRun) close() {
	for _, ch := range r.cmds {
		close(ch)
	}
	r.cmds = nil
	r.c.running = false
	r.phase = 2
}

// Step advances every shard through one more window barrier and returns
// the barrier's simulation time plus whether the run is complete. After
// the bounded windows reach `until`, Step keeps draining final passes —
// a pass can inject events due at exactly `until` (the conservative
// bound is inclusive), which serial execution would still run — until
// one injects nothing.
func (r *CoupledRun) Step() (time.Duration, bool) {
	c := r.c
	if len(c.kernels) == 1 {
		// Serial passthrough: one window is the whole run.
		if r.phase != 2 {
			k := c.kernels[0]
			before := k.EventsRun()
			k.RunUntil(r.until)
			c.stats[0].Events += k.EventsRun() - before
			c.stats[0].Rounds++
			r.phase = 2
		}
		return r.until, true
	}
	switch r.phase {
	case 0:
		end := r.t + c.lookahead
		if end > r.until {
			end = r.until
		}
		r.runWindow(end, false)
		r.t += c.lookahead
		if r.t >= r.until {
			r.phase = 1
		}
		return end, false
	case 1:
		if r.runWindow(r.until, true) == 0 {
			r.close()
			return r.until, true
		}
		return r.until, false
	default:
		return r.until, true
	}
}

// Finish asserts completion and returns the accumulated per-shard stats.
func (r *CoupledRun) Finish() []ShardStats {
	if r.phase != 2 {
		panic("sim: CoupledRun.Finish before Step reported done")
	}
	return r.c.stats
}

// exchange drains every shard's outbox and injects the events into their
// destination kernels in the deterministic merge order, returning how many
// were injected. Events landing beyond `until` are dropped: their serial
// counterparts would sit unexecuted in the heap past the deadline.
func (c *Coupler) exchange(until time.Duration) int {
	var all []crossEvent
	for s := range c.outbox {
		all = append(all, c.outbox[s]...)
		c.outbox[s] = c.outbox[s][:0]
	}
	if len(all) == 0 {
		return 0
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.at != b.at {
			return a.at < b.at
		}
		if a.schedAt != b.schedAt {
			return a.schedAt < b.schedAt
		}
		if a.srcShard != b.srcShard {
			return a.srcShard < b.srcShard
		}
		return a.seq < b.seq
	})
	injected := 0
	for _, ev := range all {
		if ev.at > until {
			continue
		}
		c.kernels[ev.dst].At(ev.at, ev.fn)
		c.stats[ev.dst].Injected++
		injected++
	}
	return injected
}
