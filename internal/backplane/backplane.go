// Package backplane models the inter-basestation communication plane of
// the ViFi paper (§4.1): basestations reach each other and the Internet
// over relatively thin broadband links or a wireless mesh, so the plane is
// bandwidth-limited, adds latency, and can drop traffic.
//
// The model is a star: every node owns an access link (uplink + downlink,
// each with its own serialization rate, propagation delay, random loss and
// finite queue) joined by a core with a fixed transit delay. A message
// from A to B crosses A's uplink, the core, and B's downlink. This is the
// topology of "DSL-attached home/shop basestations behind an ISP" and is
// deliberately not a high-capacity enterprise LAN — ViFi's claim is that
// it works without one (§7, comparison with MRD/Divert).
//
// The package also powers failure injection: links can be taken down to
// partition a basestation (used by the ViFi salvage tests).
package backplane

import (
	"fmt"
	"time"

	"github.com/vanlan/vifi/internal/frame"
	"github.com/vanlan/vifi/internal/sim"
)

// queueBytes is the FIFO capacity of every access link direction.
const queueBytes = 64 << 10

// LinkSpec describes one direction of an access link. Its FIFO holds
// queueBytes.
type LinkSpec struct {
	RateBps float64       // serialization rate in bits/s
	Delay   time.Duration // propagation delay
	Loss    float64       // random loss probability per message
}

// Config describes the backplane.
type Config struct {
	Access    LinkSpec      // applied to every node's uplink and downlink
	CoreDelay time.Duration // transit delay between any two access links
}

// DefaultConfig models a thin broadband backplane: 5 Mbit/s access links
// with 8 ms one-way delay, 64 KiB of buffering and a 4 ms core.
func DefaultConfig() Config {
	return Config{
		Access: LinkSpec{
			RateBps: 5e6,
			Delay:   8 * time.Millisecond,
			Loss:    0,
		},
		CoreDelay: 4 * time.Millisecond,
	}
}

// Handler consumes messages delivered to a node. The payload is a pooled
// buffer owned by the backplane: it is valid only for the duration of the
// call, and handlers must copy anything they retain (a frame.Decoder
// copies out of it, so decode-and-dispatch is safe) — the DESIGN.md §6
// ownership rules.
type Handler func(from uint16, payload []byte)

// BackplaneReceive implements Receiver.
func (h Handler) BackplaneReceive(from uint16, payload []byte) { h(from, payload) }

// Receiver is what a port delivers to: Handler as an interface, so an
// owner can attach a long-lived adapter instead of a method-value closure.
// The payload rules are Handler's.
type Receiver interface {
	BackplaneReceive(from uint16, payload []byte)
}

// Stats counts backplane events.
type Stats struct {
	Sent           int
	Delivered      int
	DroppedQueue   int
	DroppedLoss    int
	DroppedDown    int
	BytesSent      int
	BytesDelivered int
}

// qlink is one direction of an access link with a byte-counted FIFO.
type qlink struct {
	spec      LinkSpec
	busyUntil time.Duration
	queued    int // bytes committed but not yet serialized
}

// admit decides whether a message fits and returns its serialization
// completion time at the given effective rate (the spec rate, scaled
// down during brownouts). The caller must schedule the dequeue itself.
func (l *qlink) admit(now time.Duration, size int, rateBps float64) (done time.Duration, ok bool) {
	if l.queued+size > queueBytes {
		return 0, false
	}
	start := now
	if l.busyUntil > start {
		start = l.busyUntil
	}
	ser := time.Duration(float64(size*8) / rateBps * float64(time.Second))
	done = start + ser
	l.busyUntil = done
	l.queued += size
	return done, true
}

// Port is one node's attachment to the plane: its receiver, both
// directions of its access link and its loss-coin stream, all by value.
// The zero value is ready for AttachPort; an owner of many ports (core's
// basestations) embeds them, so attaching one allocates nothing. A Port
// must not move once attached.
type Port struct {
	recv   Receiver
	up     qlink
	down   qlink
	isDown bool
	rng    sim.RNG // per-port loss-coin stream; see the Send contract
}

// Net is the backplane network.
type Net struct {
	K       *sim.Kernel
	cfg     Config
	ports   map[uint16]*Port
	foreign map[uint16]bool // addresses owned by another district kernel
	stats   Stats
	bufs    frame.BufferPool
	free    *transit // free list of in-flight message records
	brown   Brownout
	browned bool
}

// Brownout describes a plane-wide degradation window: every access link
// serializes at RateFactor of its configured rate, every message takes
// ExtraDelay longer through the core, and ExtraLoss adds to each leg's
// loss probability. Brownouts compose with SetDown partitions — a
// partitioned port stays partitioned regardless of brownout state.
type Brownout struct {
	RateFactor float64       // rate multiplier in (0, 1]; 0 or 1 means no slowdown
	ExtraDelay time.Duration // added once per message at the core hop
	ExtraLoss  float64       // added to each leg's loss probability (clamped to 1)
}

// SetBrownout enters a degradation window. Stream stability: a brownout
// changes loss probabilities, never the number of draws — Send draws its
// two coins unconditionally (PR 3 contract) — so draws after the window
// land on exactly the positions they would have without it.
func (n *Net) SetBrownout(b Brownout) { n.brown, n.browned = b, true }

// ClearBrownout ends the degradation window.
func (n *Net) ClearBrownout() { n.brown, n.browned = Brownout{}, false }

// effRate scales a link rate during brownouts.
func (n *Net) effRate(rateBps float64) float64 {
	if n.browned && n.brown.RateFactor > 0 && n.brown.RateFactor < 1 {
		return rateBps * n.brown.RateFactor
	}
	return rateBps
}

// effLoss inflates a leg's loss probability during brownouts.
func (n *Net) effLoss(loss float64) float64 {
	if n.browned {
		loss += n.brown.ExtraLoss
		if loss > 1 {
			loss = 1
		}
	}
	return loss
}

// extraDelay is the brownout's per-message core delay penalty.
func (n *Net) extraDelay() time.Duration {
	if n.browned {
		return n.brown.ExtraDelay
	}
	return 0
}

// New creates a backplane over the kernel.
func New(k *sim.Kernel, cfg Config) *Net {
	return &Net{
		K:     k,
		cfg:   cfg,
		ports: map[uint16]*Port{},
	}
}

// Attach registers a node address with its delivery handler (nil
// delivers nowhere): AttachPort on a port of its own.
func (n *Net) Attach(addr uint16, h Handler) {
	var r Receiver
	if h != nil {
		r = h
	}
	n.AttachPort(addr, new(Port), r)
}

// AttachPort registers a node address on p, a zero Port the caller keeps,
// with its receiver (nil delivers nowhere) — the one way a port comes
// into being, which Attach wraps. Its loss coins are the
// ("backplane", fmt.Sprint(addr)) stream, seeded in place. Attaching an
// existing address replaces its receiver but keeps its port and link
// state; p is then left untouched.
func (n *Net) AttachPort(addr uint16, p *Port, r Receiver) {
	if old, ok := n.ports[addr]; ok {
		old.recv = r
		return
	}
	p.recv = r
	p.up.spec, p.down.spec = n.cfg.Access, n.cfg.Access
	n.K.Seed(&p.rng, []string{"backplane"}, int(addr))
	n.ports[addr] = p
}

// AttachForeign registers an address whose port lives on another district
// kernel's Net. Nothing may be sent to it: districts exchange no backplane
// traffic (DESIGN §10), so Send panics rather than drop a message the
// serial run would deliver.
func (n *Net) AttachForeign(addr uint16) {
	if n.foreign == nil {
		n.foreign = map[uint16]bool{}
	}
	n.foreign[addr] = true
}

// SetDown partitions (or heals) a node's access link. While down, all
// traffic to and from the node is dropped. Unknown and foreign addresses
// are ignored: fault injection flips every port on every district
// kernel's Net, and only the owning one holds it.
func (n *Net) SetDown(addr uint16, down bool) {
	if p, ok := n.ports[addr]; ok {
		p.isDown = down
	}
}

// IsDown reports whether the port is administratively partitioned.
func (n *Net) IsDown(addr uint16) bool {
	if p, ok := n.ports[addr]; ok {
		return p.isDown
	}
	return false
}

// Stats returns a copy of the counters.
func (n *Net) Stats() Stats { return n.stats }

// transit stage values: the stages a message passes through after
// admission to the sender's uplink.
const (
	stageUpDone   = iota // uplink serialization finished: dequeue
	stageArrive          // reached the destination's downlink: admit
	stageDownDone        // downlink serialization finished: dequeue
	stageDeliver         // propagation done: hand to the handler
)

// transit is one in-flight backplane message. The record is pooled on the
// Net and doubles as its own scheduled event (sim.Handler), advancing
// through its stages strictly sequentially, so the steady-state delivery
// path performs no allocation: the payload copy recycles through the
// buffer pool and the record through the free list.
type transit struct {
	n     *Net
	src   *Port
	dst   *Port
	size  int
	buf   []byte // pooled payload copy; nil when the message was lost
	stage uint8
	from  uint16
	next  *transit // free-list link
}

// OnEvent advances the message one stage.
func (t *transit) OnEvent() {
	n := t.n
	switch t.stage {
	case stageUpDone:
		t.src.up.queued -= t.size
		if t.buf == nil {
			n.freeTransit(t) // lost in flight: uplink slot reclaimed, done
			return
		}
		t.stage = stageArrive
		n.K.AtHandler(n.K.Now()+t.src.up.spec.Delay+n.cfg.CoreDelay+n.extraDelay(), t)
	case stageArrive:
		downDone, ok := t.dst.down.admit(n.K.Now(), t.size, n.effRate(t.dst.down.spec.RateBps))
		if !ok {
			n.stats.DroppedQueue++
			n.bufs.Put(t.buf)
			n.freeTransit(t)
			return
		}
		t.stage = stageDownDone
		n.K.AtHandler(downDone, t)
	case stageDownDone:
		t.dst.down.queued -= t.size
		t.stage = stageDeliver
		n.K.AtHandler(n.K.Now()+t.dst.down.spec.Delay, t)
	case stageDeliver:
		dst, buf := t.dst, t.buf
		from := t.from
		n.freeTransit(t)
		if dst.isDown {
			n.stats.DroppedDown++
			n.bufs.Put(buf)
			return
		}
		n.stats.Delivered++
		n.stats.BytesDelivered += len(buf)
		if dst.recv != nil {
			dst.recv.BackplaneReceive(from, buf)
		}
		n.bufs.Put(buf)
	}
}

// allocTransit takes a message record from the free list.
func (n *Net) allocTransit() *transit {
	if t := n.free; t != nil {
		n.free = t.next
		t.next = nil
		return t
	}
	return &transit{n: n}
}

// freeTransit recycles a settled message record (not its buffer).
func (n *Net) freeTransit(t *transit) {
	t.src, t.dst, t.buf = nil, nil, nil
	t.next = n.free
	n.free = t
}

// Send queues a message from one attached node to another. Unknown
// addresses and partitioned endpoints drop silently (counted); the
// delivery path is uplink serialization → core delay → downlink
// serialization → handler. It reports whether the message was admitted to
// the sender's uplink. The payload is copied (into a pooled buffer)
// before Send returns; the caller keeps ownership of the passed slice.
// A foreign destination panics (see AttachForeign): dropping it silently
// would let a districted run diverge from the serial one.
func (n *Net) Send(from, to uint16, payload []byte) bool {
	src, ok := n.ports[from]
	if !ok {
		return false
	}
	dst, ok := n.ports[to]
	if !ok {
		if n.foreign[to] {
			panic(fmt.Sprintf("backplane: send from %d to %d crosses a district boundary", from, to))
		}
		return false
	}
	n.stats.Sent++
	n.stats.BytesSent += len(payload)
	now := n.K.Now()
	size := len(payload)

	upDone, ok := src.up.admit(now, size, n.effRate(src.up.spec.RateBps))
	if !ok {
		n.stats.DroppedQueue++
		return false
	}

	// Loss coins for both legs are drawn unconditionally from the SENDER's
	// per-port stream: a short-circuit would make the number of draws
	// depend on the first outcome, and a plane-wide shared stream would
	// interleave unrelated senders' draws — under spatial sharding the set
	// of senders on one Net depends on the partition, so only per-sender
	// streams keep every port's coins byte-identical at any shard count.
	// The same contract covers fault injection: the coins come before the
	// partition check below, so a SetDown window never shifts a stream,
	// and a brownout (which inflates probabilities, never draw counts)
	// leaves every post-window draw on its original position.
	lostUp := src.rng.Float64() < n.effLoss(src.up.spec.Loss)
	lostDown := src.rng.Float64() < n.effLoss(dst.down.spec.Loss)

	t := n.allocTransit()
	t.src, t.dst, t.size = src, dst, size
	t.from = from
	t.stage = stageUpDone
	if src.isDown || dst.isDown {
		n.stats.DroppedDown++
		// t.buf stays nil: the uplink still serializes the doomed bytes,
		// exactly like a message lost in flight.
		n.K.AtHandler(upDone, t)
		return false
	}
	if lostUp || lostDown {
		n.stats.DroppedLoss++
		// t.buf stays nil: the uplink still serializes the doomed bytes.
	} else {
		t.buf = n.bufs.Get(size)
		copy(t.buf, payload)
	}
	n.K.AtHandler(upDone, t)
	return true
}
