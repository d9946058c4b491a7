package workload

import (
	"testing"
	"time"

	"github.com/vanlan/vifi/internal/sim"
	"github.com/vanlan/vifi/internal/stats"
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

func TestTCPSessionsOnFlappingLink(t *testing.T) {
	// A link that dies for 25 s mid-run must abort a transfer (ending a
	// session) and recover afterwards.
	k := sim.NewKernel(8)
	w := &wire{k: k, delay: 15 * time.Millisecond, dead: func() bool {
		now := k.Now()
		return now > 20*time.Second && now < 45*time.Second
	}}
	d := NewTCP(k, DefaultTCPConfig(), w.port(), 0, 0, 90*time.Second)
	w.d = d
	d.Start()
	k.RunUntil(90 * time.Second)
	d.Stop()
	st := d.Stats()

	if st.Completed < 10 {
		t.Errorf("completed only %d transfers", st.Completed)
	}
	if st.Aborted == 0 {
		t.Error("the outage aborted no transfer")
	}
	if len(st.Sessions) < 2 {
		t.Errorf("sessions = %v, want the outage to split them", st.Sessions)
	}
	if st.MedianTransferTime() <= 0 || st.MedianTransferTime() > 2 {
		t.Errorf("median transfer time = %v s", st.MedianTransferTime())
	}
}

func TestTCPStatsAccounting(t *testing.T) {
	ws := &TCPStats{TransferTimes: stats.NewSample(4)}
	ws.transferDone(transport.TransferResult{Completed: true, Duration: time.Second})
	ws.transferDone(transport.TransferResult{Completed: true, Duration: 2 * time.Second})
	ws.transferDone(transport.TransferResult{Completed: false})
	ws.transferDone(transport.TransferResult{Completed: true, Duration: time.Second})
	ws.finish()
	if ws.Completed != 3 || ws.Aborted != 1 {
		t.Errorf("completed/aborted = %d/%d", ws.Completed, ws.Aborted)
	}
	if len(ws.Sessions) != 2 || ws.Sessions[0] != 2 || ws.Sessions[1] != 1 {
		t.Errorf("sessions = %v", ws.Sessions)
	}
	if got := ws.TransfersPerSession(); got != 1.5 {
		t.Errorf("transfers/session = %v, want 1.5", got)
	}
}

// TestLateDuplicateBetweenTransfers pins the one behavioural difference
// the shared transfer engine preserves: a datagram of the previous
// connection arriving after its transfer settled is re-acknowledged by
// TCP, which keeps its endpoints through the gap, and ignored by Web,
// which drops them while the user thinks.
func TestLateDuplicateBetweenTransfers(t *testing.T) {
	tcpCfg := DefaultTCPConfig()
	tcpCfg.Gap = time.Second
	webCfg := DefaultWebConfig()
	webCfg.MaxExtraObjects = 0
	webCfg.Think = time.Hour
	for _, tc := range []struct {
		name  string
		build func(*sim.Kernel, Port) Driver
		reack int
	}{
		{"tcp", func(k *sim.Kernel, p Port) Driver {
			return NewTCP(k, tcpCfg, p, 0, 0, time.Minute)
		}, 1},
		{"web", func(k *sim.Kernel, p Port) Driver {
			return NewWeb(k, webCfg, p, 0, 0, time.Minute, k.RNG("late-dup"))
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
