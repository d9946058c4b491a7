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
// whose metrics history is the run's own recording as of the last barrier.
// All mutable state is guarded by mu; cond signals pause/resume
// transitions to the runner goroutine.
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

	// hist is the session's one history: a Snapshot of the LiveRun's
	// recording taken at the last barrier (the zero Recording until the
	// run starts). Rows below its length are never written again, so a
	// reader shares them after dropping mu. grew is closed and replaced
	// each time hist is published and when the session ends.
	hist obs.Recording
	grew chan struct{}
}

// liveSample is one run-wide sampling tick, the wire form of a row of
// hist; it exists only while a response is being encoded.
type liveSample struct {
	At     time.Duration `json:"at_ns"`
	Values []int64       `json:"values"`
}

func newSession(id string) *session {
	s := &session{
		id:        id,
		state:     "starting",
		cancelled: make(chan struct{}),
		grew:      make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// terminal reports whether the run has ended, one way or another. Callers
// hold mu.
func (s *session) terminal() bool {
	return s.state == "done" || s.state == "failed" || s.state == "cancelled"
}

// publish stores rec's rows up to this barrier as the session's history
// and wakes every reader waiting on grew. Callers hold mu; rec is the
// LiveRun's recording, read between steps on the runner goroutine.
func (s *session) publish(rec *obs.Recording) {
	s.hist = rec.Snapshot()
	s.wake()
}

// wake wakes every reader waiting on grew. Callers hold mu.
func (s *session) wake() {
	close(s.grew)
	s.grew = make(chan struct{})
}

// view returns the history, the channel that is closed when it next grows
// or the session ends, and whether the session has ended (so hist is
// final).
func (s *session) view() (obs.Recording, <-chan struct{}, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hist, s.grew, s.terminal()
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

// liveRecording returns the session's history under the serve meta. It
// shares the history's rows and copies none, so it is safe at any time —
// mid-run, while paused and after the end — and a later download only
// adds rows.
func (s *session) liveRecording() *obs.Recording {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec := s.hist
	rec.Meta = map[string]string{
		"kind":     "serve",
		"session":  s.id,
		"spec":     s.spec.Key(),
		"protocol": s.protocol,
		"seed":     fmt.Sprint(s.seed),
		"duration": s.duration.String(),
	}
	rec.Interval, rec.Start = s.interval, s.interval
	return &rec
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
// cancelled) and wakes its readers. The history keeps the rows of the
// last barrier reached.
func (s *session) close(state string, err error) {
	s.mu.Lock()
	s.state, s.err = state, err
	s.wake()
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
	// boundary, a kernel missing a sample row at a barrier). Every such
	// panic is raised on this goroutine with no session lock held and the
	// slot taken; it ends this session, not the daemon and the sessions
	// beside it.
	defer func() {
		if p := recover(); p != nil {
			s.close("failed", fmt.Errorf("panic: %v", p))
		}
	}()

	if !acquire() {
		s.close("cancelled", nil)
		return
	}
	l, err := experiment.StartLiveRun(s.seed, s.spec, s.cfg, s.duration, s.shards, s.interval, nil)
	if err != nil {
		s.close("failed", err)
		return
	}
	s.mu.Lock()
	s.state = "running"
	s.end = l.End()
	s.eff = l.Shards()
	s.lanes = l.Lanes()
	s.publish(l.Recording())
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
		s.publish(l.Recording())
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
	s.wake()
	s.mu.Unlock()
}
