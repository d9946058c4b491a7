package workload

import (
	"time"

	"github.com/vanlan/vifi/internal/sim"
	"github.com/vanlan/vifi/internal/stats"
	"github.com/vanlan/vifi/internal/transport"
)

// TCPConfig parameterizes the repeated-transfer workload of §5.3.1.
type TCPConfig struct {
	TCP transport.Config
	// TransferBytes is the file size (10 KB in the paper).
	TransferBytes int
	// StallTimeout aborts a transfer making no progress (10 s).
	StallTimeout time.Duration
	// Gap is the pause between consecutive transfers.
	Gap time.Duration
}

// DefaultTCPConfig returns the paper's workload.
func DefaultTCPConfig() TCPConfig {
	return TCPConfig{
		TCP:           transport.DefaultConfig(),
		TransferBytes: 10 * 1024,
		StallTimeout:  10 * time.Second,
		Gap:           100 * time.Millisecond,
	}
}

// TCPStats aggregates the paper's two TCP measures: per-transfer
// completion times and completed transfers per session, where a session
// ends when a transfer is terminated for lack of progress (§5.3.1).
type TCPStats struct {
	TransferTimes *stats.Sample // seconds, completed transfers only
	Sessions      []int         // completed transfers per session
	Completed     int
	Aborted       int
	currentRun    int
}

func (s *TCPStats) transferDone(r transport.TransferResult) {
	if r.Completed {
		s.Completed++
		s.currentRun++
		s.TransferTimes.Add(r.Duration.Seconds())
	} else {
		s.Aborted++
		s.finish()
	}
}

// finish closes the current session.
func (s *TCPStats) finish() {
	s.Sessions = append(s.Sessions, s.currentRun)
	s.currentRun = 0
}

// MedianTransferTime returns the median completion time in seconds.
func (s *TCPStats) MedianTransferTime() float64 { return s.TransferTimes.Median() }

// TransfersPerSession returns the mean completed transfers per session
// (Fig 9b).
func (s *TCPStats) TransfersPerSession() float64 {
	if len(s.Sessions) == 0 {
		return float64(s.Completed)
	}
	total := 0
	for _, n := range s.Sessions {
		total += n
	}
	return float64(total) / float64(len(s.Sessions))
}

// TCP is the §5.3.1 session: the vehicle downloads a fixed-size file from
// the wired host over and over — next transfer, settled, gap — with the
// ten-second no-progress abort ending a session.
type TCP struct {
	k          *sim.Kernel
	cfg        TCPConfig
	x          transfer
	veh        int
	start, end time.Duration
	// stats is its own allocation: results keep it (TCPRun.Stats sits in
	// the engine's run-cache) long after the driver, and a pointer into
	// the driver would pin the kernel and the whole cell with it.
	stats *TCPStats
	final Metrics
}

// NewTCP builds the driver. The loop starts at start; no new transfer
// begins at or after end, though one already in flight may still settle
// before Stop.
func NewTCP(k *sim.Kernel, cfg TCPConfig, port Port, veh int, start, end time.Duration) *TCP {
	t := &TCP{k: k, cfg: cfg, veh: veh, start: start, end: end,
		stats: &TCPStats{TransferTimes: stats.NewSample(256)}}
	t.x = transfer{k: k, cfg: cfg.TCP, port: port, timeout: cfg.StallTimeout, settled: t.settled}
	return t
}

// Start schedules the first transfer.
func (t *TCP) Start() { t.k.At(t.start, t.next) }

// next opens one more transfer unless the session is over.
func (t *TCP) next() {
	if t.x.stopped || t.k.Now() >= t.end {
		return
	}
	t.x.open(t.cfg.TransferBytes)
}

// settled books the finished transfer and pauses before the next. The
// endpoints stay up through the gap.
func (t *TCP) settled(r transport.TransferResult) {
	t.stats.transferDone(r)
	if !t.x.stopped {
		t.k.After(t.cfg.Gap, t.next)
	}
}

// Stats exposes the session's transfer statistics: still accumulating
// while the loop runs, final (trailing session closed, times sorted)
// after Stop.
func (t *TCP) Stats() *TCPStats { return t.stats }

// DeliverDown feeds a datagram that arrived at the vehicle (the client).
func (t *TCP) DeliverDown(p []byte) { t.x.deliverDown(p) }

// DeliverUp feeds a datagram that arrived at the gateway (the server).
func (t *TCP) DeliverUp(p []byte) { t.x.deliverUp(p) }

// Live reports transfers completed and aborted so far.
func (t *TCP) Live() LiveStats {
	return LiveStats{Completed: t.stats.Completed, Aborted: t.stats.Aborted}
}

// Stop halts the loop, closes the trailing session and reports transfer
// metrics.
func (t *TCP) Stop() Metrics {
	if t.x.stopped {
		return t.final
	}
	t.x.stop()
	t.stats.finish()
	t.stats.TransferTimes.Sort()
	t.final = Metrics{
		App: TCPKind, Vehicle: t.veh, Span: span(t.start, t.end),
		Completed: t.stats.Completed, Aborted: t.stats.Aborted,
		TransferSecs: append([]float64(nil), t.stats.TransferTimes.Values()...),
	}
	return t.final
}
