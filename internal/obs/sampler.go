package obs

import (
	"time"

	"github.com/vanlan/vifi/internal/sim"
)

// Sampler drives a Registry on a fixed simulation-time cadence: one tick
// at every multiple of the interval in (0, until], each appending one row
// to the recording. It schedules itself as an ordinary kernel event
// through the closure-free Handler path, so attaching it to a running
// simulation costs one heap entry per tick and zero allocations in
// steady state.
type Sampler struct {
	k        *sim.Kernel
	reg      *Registry
	interval time.Duration
	until    time.Duration
	next     time.Duration
	rec      *Recording
}

// Attach registers a sampler on the kernel: ticks at interval,
// 2·interval, … up to and including until (the simulated horizon sizes
// the recording's backing array). meta is stored verbatim in the
// recording. The registry must be fully populated; series added later
// would corrupt the row stride.
func Attach(k *sim.Kernel, reg *Registry, interval, until time.Duration, meta map[string]string) *Sampler {
	if interval <= 0 {
		panic("obs: sampler interval must be positive")
	}
	rows := int(until / interval)
	if rows < 0 {
		rows = 0
	}
	s := &Sampler{
		k: k, reg: reg, interval: interval, until: until, next: interval,
		rec: &Recording{
			Meta:     meta,
			Interval: interval,
			Start:    interval,
			Series:   reg.Defs(),
			data:     make([]int64, 0, rows*reg.Len()),
		},
	}
	if s.next <= s.until {
		k.AtHandler(s.next, s)
	}
	return s
}

// OnEvent implements sim.Handler: take one sample row, reschedule.
func (s *Sampler) OnEvent() {
	s.rec.data = s.reg.sample(s.rec.data)
	s.next += s.interval
	if s.next <= s.until {
		s.k.AtHandler(s.next, s)
	}
}

// Recording returns the rows accumulated so far. The recording keeps
// growing until the horizon passes, on the kernel's goroutine, so read it
// only while the kernel is stopped. Each tick writes a new row into the
// capacity Attach reserved and never rewrites an older one: a Snapshot
// taken while the kernel is stopped stays readable from any goroutine as
// the kernel runs on.
func (s *Sampler) Recording() *Recording { return s.rec }
