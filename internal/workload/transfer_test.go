package workload

import (
	"sort"
	"testing"
	"time"

	"github.com/vanlan/vifi/internal/sim"
	"github.com/vanlan/vifi/internal/transport"
)

// wire is a delayed datagram service for driving TCP and Web without the
// protocol stack: up and down each carry a datagram to the far side's
// Deliver after delay, unless dead reports an outage. It counts upstream
// sends and remembers the last downstream datagram.
type wire struct {
	k        *sim.Kernel
	delay    time.Duration
	dead     func() bool
	d        Driver
	upSent   int
	lastDown []byte
}

func (w *wire) port() Port { return Port{K: w.k, SendUp: w.up, SendDown: w.down} }

func (w *wire) carry(b []byte, deliver func(Driver, []byte)) bool {
	if w.dead != nil && w.dead() {
		return true // swallowed by the outage
	}
	buf := append([]byte(nil), b...)
	w.k.After(w.delay, func() { deliver(w.d, buf) })
	return true
}

func (w *wire) up(b []byte) bool {
	w.upSent++
	return w.carry(b, Driver.DeliverUp)
}

func (w *wire) down(b []byte) bool {
	w.lastDown = append(w.lastDown[:0], b...)
	return w.carry(b, Driver.DeliverDown)
}

// TestTCPSessionsOnFlappingLink drives a session through two 25 s
// outages, each long enough for the stall rule, and checks its Metrics
// against a hand count of the transfers as they settle: a session ends at
// each abort and at Stop, so TransfersPerSession is the mean of the
// hand-kept per-session counts.
func TestTCPSessionsOnFlappingLink(t *testing.T) {
	const end = 120 * time.Second
	k := sim.NewKernel(8)
	w := &wire{k: k, delay: 15 * time.Millisecond, dead: func() bool {
		now := k.Now()
		return (now > 20*time.Second && now < 45*time.Second) ||
			(now > 70*time.Second && now < 95*time.Second)
	}}
	d := NewTCP(k, DefaultConfig().TransferBytes, w.port(), 0, 0, end)
	w.d = d
	d.Start()
	var sessions []int
	run, seen := 0, LiveStats{}
	for k.Now() < end && k.Step() {
		live := d.Live()
		if live.Completed > seen.Completed {
			run++
		}
		if live.Aborted > seen.Aborted {
			sessions = append(sessions, run)
			run = 0
		}
		seen = live
	}
	sessions = append(sessions, run)
	m := d.Stop()

	completed := 0
	for _, n := range sessions {
		completed += n
	}
	if m.Aborted < 2 || m.Aborted != len(sessions)-1 {
		t.Fatalf("aborted = %d, hand count %d sessions %v; want ≥2 aborts", m.Aborted, len(sessions), sessions)
	}
	if m.Completed != completed || len(m.TransferSecs) != completed || completed < 10 {
		t.Errorf("completed = %d (%d times), hand count %d", m.Completed, len(m.TransferSecs), completed)
	}
	if want := float64(completed) / float64(len(sessions)); m.TransfersPerSession() != want {
		t.Errorf("transfers/session = %v, hand count %v", m.TransfersPerSession(), want)
	}
	if !sort.Float64sAreSorted(m.TransferSecs) {
		t.Error("transfer times not sorted")
	}
	if med := m.TransferQuantile(0.5); med <= 0 || med > 2 {
		t.Errorf("median transfer time = %v s", med)
	}
}

// TestTCPStatsAccounting books a fixed sequence of settled transfers —
// two completions, an abort, one more completion — and checks the
// Metrics Stop reports: two sessions of two and one transfers, times
// sorted.
func TestTCPStatsAccounting(t *testing.T) {
	k := sim.NewKernel(8)
	d := NewTCP(k, DefaultConfig().TransferBytes, (&wire{k: k}).port(), 0, 0, time.Minute)
	d.settled(transport.TransferResult{Completed: true, Duration: 2 * time.Second})
	d.settled(transport.TransferResult{Completed: true, Duration: time.Second})
	d.settled(transport.TransferResult{Completed: false})
	d.settled(transport.TransferResult{Completed: true, Duration: time.Second})
	if live := d.Live(); live.Completed != 3 || live.Aborted != 1 {
		t.Errorf("live completed/aborted = %d/%d", live.Completed, live.Aborted)
	}
	m := d.Stop()
	if m.Completed != 3 || m.Aborted != 1 {
		t.Errorf("completed/aborted = %d/%d", m.Completed, m.Aborted)
	}
	if got := m.TransfersPerSession(); got != 1.5 {
		t.Errorf("transfers/session = %v, want 1.5", got)
	}
	if want := []float64{1, 1, 2}; len(m.TransferSecs) != 3 ||
		m.TransferSecs[0] != want[0] || m.TransferSecs[1] != want[1] || m.TransferSecs[2] != want[2] {
		t.Errorf("transfer times = %v, want %v", m.TransferSecs, want)
	}
}

// TestLateDuplicateBetweenTransfers pins the one behavioural difference
// the shared transfer engine preserves: a datagram of the previous
// connection arriving after its transfer settled is re-acknowledged by
// TCP, which keeps its endpoints through the gap, and ignored by Web,
// which drops them while the user thinks.
func TestLateDuplicateBetweenTransfers(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func(*sim.Kernel, Port) Driver
		reack int
	}{
		{"tcp", func(k *sim.Kernel, p Port) Driver {
			return NewTCP(k, DefaultConfig().TransferBytes, p, 0, 0, time.Minute)
		}, 1},
		{"web", func(k *sim.Kernel, p Port) Driver {
			return NewWeb(k, time.Hour, p, 0, 0, time.Minute, k.RNG("late-dup"))
		}, 0},
	} {
		k := sim.NewKernel(12)
		w := &wire{k: k, delay: 5 * time.Millisecond}
		w.d = tc.build(k, w.port())
		w.d.Start()
		for w.d.Live().Completed == 0 {
			if !k.Step() {
				t.Fatalf("%s: queue drained before the first transfer completed", tc.name)
			}
		}
		// The first connection has just settled; the next one is at least
		// a gap (or a think time) away. Replay its last data segment.
		before := w.upSent
		w.d.DeliverDown(w.lastDown)
		if got := w.upSent - before; got != tc.reack {
			t.Errorf("%s: late duplicate drew %d acknowledgements, want %d", tc.name, got, tc.reack)
		}
	}
}

// TestNewUsesSpecKnobs checks that the two application knobs a scenario
// spec sets reach the drivers workload.New builds: the TCP driver fetches
// files of TransferBytes, and the web driver's pauses between pages
// average Think.
func TestNewUsesSpecKnobs(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TransferBytes = 20480
	cfg.Think = 5 * time.Second

	k := sim.NewKernel(14)
	w := &wire{k: k, delay: 5 * time.Millisecond}
	tcp := New(k, cfg, TCPKind, w.port(), 0, 0, time.Minute, k.RNG("knobs", "tcp")).(*TCP)
	w.d = tcp
	tcp.Start()
	for tcp.Live().Completed == 0 {
		if !k.Step() {
			t.Fatal("tcp: queue drained before the first transfer completed")
		}
	}
	if got := tcp.x.sender.Progress(); got != cfg.TransferBytes {
		t.Errorf("tcp: first transfer moved %d bytes, want %d", got, cfg.TransferBytes)
	}

	const end = 2000 * time.Second
	k = sim.NewKernel(15)
	w = &wire{k: k, delay: 5 * time.Millisecond}
	web := New(k, cfg, WebKind, w.port(), 0, 0, end, k.RNG("knobs", "web")).(*Web)
	w.d = web
	web.Start()
	var pauses []time.Duration
	var loaded time.Duration
	seen, pageStart := 0, web.pageStart
	for k.Now() < end && k.Step() {
		if web.Live().Completed > seen {
			seen, loaded = web.Live().Completed, k.Now()
		}
		if web.pageStart != pageStart {
			pageStart = web.pageStart
			pauses = append(pauses, pageStart-loaded)
		}
	}
	var sum time.Duration
	for _, p := range pauses {
		sum += p
	}
	if len(pauses) < 100 {
		t.Fatalf("web: %d pages in %v", len(pauses), end)
	}
	if mean := sum / time.Duration(len(pauses)); mean < 4*time.Second || mean > 6*time.Second {
		t.Errorf("web: mean think %v over %d pages, want ≈ %v", mean, len(pauses), cfg.Think)
	}
}
