package workload

import (
	"time"

	"github.com/vanlan/vifi/internal/sim"
	"github.com/vanlan/vifi/internal/transport"
)

// A page is one pageBytes main object plus 0..maxExtraObjects embedded
// objects of objectBytes each, fetched back-to-back over mini-TCP: a
// 10 KB-page profile shaped like the paper's web workload. The stall rule
// matches §5.3.1: an object making no progress for stallTimeout aborts
// the whole page.
const (
	pageBytes       = 8 * 1024
	objectBytes     = 2 * 1024
	maxExtraObjects = 4
)

// Web is a browsing session: request/response bursts over mini-TCP. The
// vehicle (client) requests; the wired side (server) streams each object
// down through the cell. Page-load time spans the whole burst, so
// anchor handoffs mid-page stretch measured latency exactly like the
// paper's transfer metric.
type Web struct {
	k          *sim.Kernel
	meanThink  time.Duration // mean think time between pages (exponential)
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

// NewWeb builds the driver; between pages the user thinks for an
// exponential pause of mean think. rng drives page shapes and think
// times and must be dedicated to this driver.
func NewWeb(k *sim.Kernel, think time.Duration, port Port, veh int, start, end time.Duration, rng *sim.RNG) *Web {
	w := &Web{k: k, meanThink: think, veh: veh, start: start, end: end, rng: rng}
	w.x = transfer{k: k, port: port, settled: w.objectDone}
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
	w.objsLeft = 1 + w.rng.Intn(maxExtraObjects+1)
	w.x.open(pageBytes)
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
		w.x.open(objectBytes)
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
	pause := time.Duration(w.rng.ExpFloat64() * float64(w.meanThink))
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
