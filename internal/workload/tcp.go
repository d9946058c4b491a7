package workload

import (
	"sort"
	"time"

	"github.com/vanlan/vifi/internal/sim"
	"github.com/vanlan/vifi/internal/transport"
)

// gap is the pause between consecutive transfers of a session.
const gap = 100 * time.Millisecond

// TCP is the §5.3.1 session: the vehicle downloads a fixed-size file from
// the wired host over and over — next transfer, settled, gap — with the
// ten-second no-progress abort ending a session.
type TCP struct {
	k          *sim.Kernel
	bytes      int // the file size (10 KB in the paper)
	x          transfer
	veh        int
	start, end time.Duration
	completed  int
	aborted    int
	secs       []float64 // completed transfer times in seconds
	final      Metrics
}

// NewTCP builds the driver, which fetches a bytes-long file each time.
// The loop starts at start; no new transfer begins at or after end,
// though one already in flight may still settle before Stop.
func NewTCP(k *sim.Kernel, bytes int, port Port, veh int, start, end time.Duration) *TCP {
	t := &TCP{k: k, bytes: bytes, veh: veh, start: start, end: end}
	t.x = transfer{k: k, port: port, settled: t.settled}
	return t
}

// Start schedules the first transfer.
func (t *TCP) Start() { t.k.At(t.start, t.next) }

// next opens one more transfer unless the session is over.
func (t *TCP) next() {
	if t.x.stopped || t.k.Now() >= t.end {
		return
	}
	t.x.open(t.bytes)
}

// settled books the finished transfer and pauses before the next. The
// endpoints stay up through the gap. An abort ends a session (§5.3.1).
func (t *TCP) settled(r transport.TransferResult) {
	if r.Completed {
		t.completed++
		t.secs = append(t.secs, r.Duration.Seconds())
	} else {
		t.aborted++
	}
	if !t.x.stopped {
		t.k.After(gap, t.next)
	}
}

// DeliverDown feeds a datagram that arrived at the vehicle (the client).
func (t *TCP) DeliverDown(p []byte) { t.x.deliverDown(p) }

// DeliverUp feeds a datagram that arrived at the gateway (the server).
func (t *TCP) DeliverUp(p []byte) { t.x.deliverUp(p) }

// Live reports transfers completed and aborted so far.
func (t *TCP) Live() LiveStats {
	return LiveStats{Completed: t.completed, Aborted: t.aborted}
}

// Stop halts the loop and reports transfer metrics, times sorted.
func (t *TCP) Stop() Metrics {
	if t.x.stopped {
		return t.final
	}
	t.x.stop()
	sort.Float64s(t.secs)
	t.final = Metrics{
		App: TCPKind, Vehicle: t.veh, Span: span(t.start, t.end),
		Completed: t.completed, Aborted: t.aborted, TransferSecs: t.secs,
	}
	return t.final
}
