// Package mac implements the broadcast-mode 802.11-style MAC used by the
// ViFi reproduction (§4.8 of the paper): all frames are broadcast (no
// link-layer retransmission, no exponential backoff), collision avoidance
// relies on carrier sense, at most one frame is pending at the interface
// at any time, and every node emits periodic beacons.
//
// The MAC sits between a protocol entity (internal/core, internal/handoff)
// and the radio channel (internal/radio); frames cross it as wire bytes
// via internal/frame.
package mac

import (
	"time"

	"github.com/vanlan/vifi/internal/frame"
	"github.com/vanlan/vifi/internal/mobility"
	"github.com/vanlan/vifi/internal/radio"
	"github.com/vanlan/vifi/internal/ring"
	"github.com/vanlan/vifi/internal/sim"
)

// Config holds the MAC's one tunable. A zero BeaconInterval takes
// DefaultConfig's.
type Config struct {
	// BeaconInterval is the period of beacon emission. The paper's nodes
	// beacon periodically (§4.6); we default to the common 100 ms.
	BeaconInterval time.Duration
}

// DefaultConfig returns the standard MAC configuration.
func DefaultConfig() Config {
	return Config{BeaconInterval: 100 * time.Millisecond}
}

// The MAC's fixed queue and carrier-sense backoff.
const (
	// queueCap bounds the transmit queue in frames; beyond it, new frames
	// are dropped (drop-tail).
	queueCap = 64
	// backoffMin and backoffMax bound the uniform retry delay when the
	// medium is sensed busy.
	backoffMin = 100 * time.Microsecond
	backoffMax = 900 * time.Microsecond
)

// Handler consumes decoded frames arriving from the radio. The frame, its
// Beacon and its Payload are shared by every receiver of the transmission
// (radio.Channel.Decode): read-only, valid for the upcall, so a handler
// writes none of them and copies whatever it keeps (DESIGN.md §6).
type Handler interface {
	HandleFrame(f *frame.Frame, info radio.RxInfo)
}

// HandlerFunc adapts a function to Handler.
type HandlerFunc func(f *frame.Frame, info radio.RxInfo)

// HandleFrame implements Handler.
func (h HandlerFunc) HandleFrame(f *frame.Frame, info radio.RxInfo) { h(f, info) }

// Stats counts MAC-level events.
type Stats struct {
	Enqueued     int
	Sent         int
	SentByType   [8]int // indexed by frame.Type
	DroppedFull  int
	BusyDefers   int
	DecodeErrors int
	BeaconsSent  int
}

// txItem is one queued, already-marshaled frame. The buffer comes from
// the channel's pool and returns to it after the broadcast copies it out.
type txItem struct {
	buf []byte
	typ frame.Type
}

// beaconTask, pumpTask and txDoneTask are the MAC's sim.Handler adapters:
// allocated once with the MAC, scheduled forever after without a closure.
type beaconTask struct{ m *MAC }

func (t *beaconTask) OnEvent() { t.m.beaconTick() }

type pumpTask struct{ m *MAC }

func (t *pumpTask) OnEvent() { t.m.pump() }

type txDoneTask struct{ m *MAC }

func (t *txDoneTask) OnEvent() {
	t.m.sending = false
	t.m.pump()
}

// MAC is one node's medium access entity.
type MAC struct {
	K   *sim.Kernel
	ch  *radio.Channel
	id  radio.NodeID
	cfg Config
	rng *sim.RNG

	handler  Handler
	beaconFn func() *frame.Frame

	// queue holds marshaled frames; SendPriority pushes at the front.
	queue   ring.Ring[txItem]
	sending bool
	stats   Stats

	beaconH beaconTask
	pumpH   pumpTask
	txDoneH txDoneTask
}

// New attaches a new MAC to the channel. name must be unique per channel;
// mover supplies the node's position over time.
func New(k *sim.Kernel, ch *radio.Channel, name string, mover mobility.Mover) *MAC {
	m := &MAC{
		K:   k,
		ch:  ch,
		cfg: DefaultConfig(),
		rng: k.RNG("mac", name),
	}
	m.beaconH.m, m.pumpH.m, m.txDoneH.m = m, m, m
	m.id = ch.Attach(name, mover, radio.ReceiverFunc(m.radioReceive))
	return m
}

// NewWithConfig is New with explicit configuration.
func NewWithConfig(k *sim.Kernel, ch *radio.Channel, name string, mover mobility.Mover, cfg Config) *MAC {
	m := New(k, ch, name, mover)
	if cfg.BeaconInterval != 0 {
		m.cfg = cfg
	}
	return m
}

// ID returns the node's radio identifier; protocol layers use it as the
// node's address (uint16 on the wire).
func (m *MAC) ID() radio.NodeID { return m.id }

// Addr returns the node's wire address.
func (m *MAC) Addr() uint16 { return uint16(m.id) }

// SetHandler installs the upper-layer frame consumer.
func (m *MAC) SetHandler(h Handler) { m.handler = h }

// Buffers exposes the channel's buffer pool so protocol layers can
// marshal into (and recycle) pooled buffers.
func (m *MAC) Buffers() *frame.BufferPool { return m.ch.Buffers() }

// Stats returns a copy of the MAC counters.
func (m *MAC) Stats() Stats { return m.stats }

// QueueLen reports frames waiting (not counting one on the air).
func (m *MAC) QueueLen() int { return m.queue.Len() }

// StartBeacons begins periodic beacon emission. fn is invoked at each
// beacon time to produce the frame; returning nil skips that beacon. The
// first beacon fires after a random fraction of the interval so that
// nodes desynchronize.
func (m *MAC) StartBeacons(fn func() *frame.Frame) {
	m.beaconFn = fn
	first := time.Duration(m.rng.Float64() * float64(m.cfg.BeaconInterval))
	m.K.AfterHandler(first, &m.beaconH)
}

func (m *MAC) beaconTick() {
	if m.beaconFn != nil {
		if f := m.beaconFn(); f != nil {
			if m.send(f, false) {
				m.stats.BeaconsSent++
			}
		}
	}
	m.K.AfterHandler(m.cfg.BeaconInterval, &m.beaconH)
}

// Send queues a frame for transmission. It reports whether the frame was
// accepted (false means the queue was full and the frame dropped).
func (m *MAC) Send(f *frame.Frame) bool { return m.send(f, false) }

// SendPriority queues a frame at the head of the queue. ViFi uses it for
// acknowledgments, which must win the race against relay timers at other
// nodes (§4.3 step 2).
func (m *MAC) SendPriority(f *frame.Frame) bool { return m.send(f, true) }

func (m *MAC) send(f *frame.Frame, front bool) bool {
	pool := m.ch.Buffers()
	buf, err := f.AppendTo(pool.Get(f.WireSize())[:0])
	if err != nil {
		panic("mac: unmarshalable frame: " + err.Error())
	}
	if m.queue.Len() >= queueCap {
		pool.Put(buf)
		m.stats.DroppedFull++
		return false
	}
	it := txItem{buf: buf, typ: f.Type}
	if front {
		m.queue.PushFront(it)
	} else {
		m.queue.PushBack(it)
	}
	m.stats.Enqueued++
	m.pump()
	return true
}

// pump moves the head frame to the air when allowed: never more than one
// outstanding frame, defer while the medium is busy.
func (m *MAC) pump() {
	if m.sending || m.queue.Len() == 0 {
		return
	}
	if m.ch.Busy(m.id) {
		m.stats.BusyDefers++
		d := backoffMin + time.Duration(m.rng.Float64()*float64(backoffMax-backoffMin))
		m.K.AfterHandler(d, &m.pumpH)
		return
	}
	it := m.queue.PopFront()
	m.sending = true
	m.stats.Sent++
	if int(it.typ) < len(m.stats.SentByType) {
		m.stats.SentByType[it.typ]++
	}
	m.ch.Broadcast(m.id, it.buf, &m.txDoneH)
	// Broadcast copied the payload for its receivers before returning; the
	// marshal buffer can recycle immediately.
	m.ch.Buffers().Put(it.buf)
}

// radioReceive decodes and dispatches an arriving frame.
func (m *MAC) radioReceive(payload []byte, info radio.RxInfo) {
	f, err := m.ch.Decode(payload)
	if err != nil {
		m.stats.DecodeErrors++
		return
	}
	if m.handler != nil {
		m.handler.HandleFrame(f, info)
	}
}
