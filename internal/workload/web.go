package workload

import (
	"time"

	"github.com/vanlan/vifi/internal/sim"
	"github.com/vanlan/vifi/internal/transport"
)

// WebConfig parameterizes the browsing session: a page is one main
// object plus up to MaxExtraObjects embedded objects, fetched
// back-to-back over mini-TCP; between pages the user thinks. The stall
// rule matches §5.3.1: an object making no progress for StallTimeout
// aborts the whole page.
type WebConfig struct {
	TCP             transport.Config
	PageBytes       int           // main object size
	ObjectBytes     int           // embedded object size
	MaxExtraObjects int           // embedded objects per page, drawn 0..Max
	Think           time.Duration // mean think time between pages (exponential)
	StallTimeout    time.Duration
}

// DefaultWebConfig returns a 10 KB-page browsing profile shaped like the
// paper's web workload: an 8 KB main object plus up to four 2 KB
// embedded objects, three-second mean think time, ten-second stall rule.
func DefaultWebConfig() WebConfig {
	return WebConfig{
		TCP:             transport.DefaultConfig(),
		PageBytes:       8 * 1024,
		ObjectBytes:     2 * 1024,
		MaxExtraObjects: 4,
		Think:           3 * time.Second,
		StallTimeout:    10 * time.Second,
	}
}

// Web is a browsing session: request/response bursts over mini-TCP. The
// vehicle (client) requests; the wired side (server) streams each object
// down through the cell. Page-load time spans the whole burst, so
// anchor handoffs mid-page stretch measured latency exactly like the
// paper's transfer metric.
type Web struct {
	k          *sim.Kernel
	cfg        WebConfig
	x          transfer
	veh        int
	start, end time.Duration
	rng        *sim.RNG

	pageStart time.Duration
	objsLeft  int

	completed int
	aborted   int
	pageSecs  []float64

	final Metrics
}

// NewWeb builds the driver. rng drives page shapes and think times and
// must be dedicated to this driver.
func NewWeb(k *sim.Kernel, cfg WebConfig, port Port, veh int, start, end time.Duration, rng *sim.RNG) *Web {
	w := &Web{k: k, cfg: cfg, veh: veh, start: start, end: end, rng: rng}
	w.x = transfer{k: k, cfg: cfg.TCP, port: port, timeout: cfg.StallTimeout, settled: w.objectDone}
	return w
}

// Start schedules the first page.
func (w *Web) Start() { w.k.At(w.start, w.startPage) }

// startPage begins a new burst: the main object plus a drawn number of
// embedded objects.
func (w *Web) startPage() {
	if w.x.stopped || w.k.Now() >= w.end {
		return
	}
	w.pageStart = w.k.Now()
	w.objsLeft = 1 + w.rng.Intn(w.cfg.MaxExtraObjects+1)
	w.x.open(w.cfg.PageBytes)
}

// objectDone advances the burst or closes the page. A stalled object
// abandons the whole page: the §5.3.1 rule applied to the burst.
func (w *Web) objectDone(r transport.TransferResult) {
	if w.x.stopped {
		return
	}
	if !r.Completed {
		w.aborted++
		w.think()
		return
	}
	w.objsLeft--
	if w.objsLeft > 0 {
		w.x.open(w.cfg.ObjectBytes)
		return
	}
	w.completed++
	w.pageSecs = append(w.pageSecs, (w.k.Now() - w.pageStart).Seconds())
	w.think()
}

// think drops the page's endpoints and schedules the next page after an
// exponential pause.
func (w *Web) think() {
	w.x.drop()
	pause := time.Duration(w.rng.ExpFloat64() * float64(w.cfg.Think))
	w.k.After(pause, w.startPage)
}

// DeliverDown feeds a datagram that arrived at the vehicle (the client).
func (w *Web) DeliverDown(p []byte) { w.x.deliverDown(p) }

// DeliverUp feeds a datagram that arrived at the gateway (the server).
func (w *Web) DeliverUp(p []byte) { w.x.deliverUp(p) }

// Live reports pages loaded and aborted so far.
func (w *Web) Live() LiveStats { return LiveStats{Completed: w.completed, Aborted: w.aborted} }

// Stop halts the session and reports page metrics.
func (w *Web) Stop() Metrics {
	if w.x.stopped {
		return w.final
	}
	w.x.stop()
	w.final = Metrics{
		App: WebKind, Vehicle: w.veh, Span: span(w.start, w.end),
		Completed: w.completed, Aborted: w.aborted,
		TransferSecs: w.pageSecs,
	}
	return w.final
}
