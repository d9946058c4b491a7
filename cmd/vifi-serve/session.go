package main

import (
	"bytes"
	"fmt"
	"sync"
	"time"

	"github.com/vanlan/vifi/internal/core"
	"github.com/vanlan/vifi/internal/experiment"
	"github.com/vanlan/vifi/internal/obs"
	"github.com/vanlan/vifi/internal/scenario"
)

// session is one hosted scenario run: a fleet simulation advancing on
// its own goroutine in barrier-aligned steps, pausable between steps,
// with a live metrics history accumulated from the per-shard sampling
// callbacks. All mutable state is guarded by mu; cond signals
// pause/resume transitions to the runner goroutine.
type session struct {
	id       string
	specStr  string
	spec     scenario.Spec
	protocol string
	cfg      core.Config
	seed     int64
	shards   int
	duration time.Duration
	interval time.Duration

	mu   sync.Mutex
	cond *sync.Cond

	state     string // starting | running | paused | done | failed | cancelled
	now       time.Duration
	end       time.Duration
	eff       int
	lanes     int // halo-band stripe lanes inside the single kernel (0 = none)
	wantPause bool
	pauseAt   time.Duration // pending pause barrier (0 = none)
	cancelled chan struct{} // closed by cancel: the runner stops at its next barrier
	err       error

	report []byte

	// Live metrics: per-tick rows summed across shards — the session's one
	// recording (liveRecording). pending holds partially merged ticks until
	// every shard has contributed.
	series   []obs.SeriesDef
	samples  []liveSample
	pending  map[time.Duration][]int64
	pendingN map[time.Duration]int

	subs    map[int]chan liveSample
	nextSub int
}

// liveSample is one fully merged sampling tick.
type liveSample struct {
	At     time.Duration `json:"at_ns"`
	Values []int64       `json:"values"`
}

func newSession(id string) *session {
	s := &session{
		id:        id,
		state:     "starting",
		pending:   map[time.Duration][]int64{},
		pendingN:  map[time.Duration]int{},
		subs:      map[int]chan liveSample{},
		cancelled: make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// terminal reports whether the run has ended, one way or another. Callers
// hold mu.
func (s *session) terminal() bool {
	return s.state == "done" || s.state == "failed" || s.state == "cancelled"
}

// onSample is the sampling callback; it runs on shard worker goroutines
// during a step and merges rows tick-by-tick. A tick is published once
// all effective shards have contributed.
func (s *session) onSample(shard int, at time.Duration, row []int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p := s.pending[at]
	if p == nil {
		p = make([]int64, len(row))
		s.pending[at] = p
	}
	for i, v := range row {
		p[i] += v
	}
	s.pendingN[at]++
	if s.pendingN[at] < s.eff {
		return
	}
	delete(s.pending, at)
	delete(s.pendingN, at)
	sm := liveSample{At: at, Values: p}
	s.samples = append(s.samples, sm)
	for _, ch := range s.subs {
		select {
		case ch <- sm:
		default: // slow subscriber: drop rather than stall the run
		}
	}
}

// subscribe registers a live-sample listener and returns it with the
// history snapshot taken under the same lock (no tick is lost between
// snapshot and subscription).
func (s *session) subscribe() (int, chan liveSample, []liveSample, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	hist := append([]liveSample(nil), s.samples...)
	if s.terminal() {
		return 0, nil, hist, false
	}
	id := s.nextSub
	s.nextSub++
	ch := make(chan liveSample, 256)
	s.subs[id] = ch
	return id, ch, hist, true
}

func (s *session) unsubscribe(id int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ch, ok := s.subs[id]; ok {
		delete(s.subs, id)
		close(ch)
	}
}

// finishSubs closes every live subscriber once the run ends.
func (s *session) finishSubs() {
	for id, ch := range s.subs {
		delete(s.subs, id)
		close(ch)
	}
}

// pause requests a pause: immediately (at ≤ 0, lands at the next
// barrier) or once the clock reaches the given sim time.
func (s *session) pause(at time.Duration) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.terminal() {
		return fmt.Errorf("session %s already %s", s.id, s.state)
	}
	if at <= 0 || s.now >= at {
		s.wantPause = true
	} else {
		s.pauseAt = at
	}
	return nil
}

// resume clears any pause state and wakes the runner.
func (s *session) resume() {
	s.mu.Lock()
	s.wantPause = false
	s.pauseAt = 0
	s.cond.Broadcast()
	s.mu.Unlock()
}

// liveRecording rebuilds an obs.Recording from the merged live history,
// the only copy of the run's samples the session keeps. Unlike the
// samplers' own buffers (touched by kernel goroutines during a step), the
// history is session-owned, so this is safe at any time — mid-run, while
// paused and after the end — and a later download only adds rows.
func (s *session) liveRecording() *obs.Recording {
	s.mu.Lock()
	defer s.mu.Unlock()
	meta := map[string]string{
		"kind":     "serve",
		"session":  s.id,
		"spec":     s.spec.Key(),
		"protocol": s.protocol,
		"seed":     fmt.Sprint(s.seed),
		"duration": s.duration.String(),
	}
	rec := obs.NewRecording(meta, s.interval, s.interval, s.series)
	for _, sm := range s.samples {
		rec.Append(sm.Values...)
	}
	return rec
}

// cancel asks a session that is still going to stop: the runner ends it in
// the cancelled state at its next barrier — at once if it is paused or
// waiting for a slot. It reports false, and does nothing, when the session
// has already ended.
func (s *session) cancel() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.terminal() {
		return false
	}
	if !s.stopping() { // else a second DELETE before the barrier
		close(s.cancelled)
		s.cond.Broadcast() // a paused runner waits on cond
	}
	return true
}

// stopping reports whether cancel has been called.
func (s *session) stopping() bool {
	select {
	case <-s.cancelled:
		return true
	default:
		return false
	}
}

// close puts the session in a terminal state without a result (failed,
// cancelled) and releases its subscribers and waiters.
func (s *session) close(state string, err error) {
	s.mu.Lock()
	s.state, s.err = state, err
	s.finishSubs()
	s.cond.Broadcast()
	s.mu.Unlock()
}

// runLoop drives the session to completion. slots bounds the number of
// concurrently advancing sessions; a paused session gives its slot back
// so pausing can never starve other sessions.
func (s *session) runLoop(slots chan struct{}) {
	// acquire takes a slot unless the session is cancelled first; the slot
	// held when the loop returns, if any, is given back.
	held := false
	acquire := func() bool {
		select {
		case slots <- struct{}{}:
			held = true
		case <-s.cancelled:
		}
		return held
	}
	defer func() {
		if held {
			<-slots
		}
	}()
	// The simulation panics on states only a bug can produce (a
	// retransmission percentile above 1, a send across a district
	// boundary, shard recordings that diverged). Every such panic is
	// raised on this goroutine with no session lock held and the slot
	// taken; it ends this session, not the daemon and the sessions beside
	// it.
	defer func() {
		if p := recover(); p != nil {
			s.close("failed", fmt.Errorf("panic: %v", p))
		}
	}()

	if !acquire() {
		s.close("cancelled", nil)
		return
	}
	l, err := experiment.StartLiveRun(s.seed, s.spec, s.cfg, s.duration, s.shards, s.interval, s.onSample)
	if err != nil {
		s.close("failed", err)
		return
	}
	s.mu.Lock()
	s.state = "running"
	s.end = l.End()
	s.eff = l.Shards()
	s.lanes = l.Lanes()
	s.series = l.Series()
	s.mu.Unlock()

	for {
		s.mu.Lock()
		if s.wantPause && !s.stopping() {
			s.state = "paused"
			s.mu.Unlock()
			<-slots // release while paused
			held = false
			s.mu.Lock()
			for s.wantPause && !s.stopping() {
				s.cond.Wait()
			}
			s.mu.Unlock()
			acquire()
			s.mu.Lock()
		}
		if s.stopping() {
			s.mu.Unlock()
			l.Abandon()
			s.close("cancelled", nil)
			return
		}
		s.state = "running"
		s.mu.Unlock()

		t, done := l.Step()

		s.mu.Lock()
		s.now = t
		if s.pauseAt > 0 && t >= s.pauseAt {
			s.wantPause, s.pauseAt = true, 0
		}
		s.mu.Unlock()
		if done {
			break
		}
	}

	run := l.Finish()
	var buf bytes.Buffer
	experiment.FprintFleetReport(&buf, run, s.protocol, s.duration, s.seed)

	s.mu.Lock()
	s.report = buf.Bytes()
	s.state = "done"
	s.finishSubs()
	s.cond.Broadcast()
	s.mu.Unlock()
}

// waitDone blocks until the session reaches a terminal state (tests).
func (s *session) waitDone() {
	s.mu.Lock()
	for !s.terminal() {
		s.cond.Wait()
	}
	s.mu.Unlock()
}
