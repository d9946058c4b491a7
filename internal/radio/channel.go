package radio

import (
	"fmt"
	"math"
	"time"

	"github.com/vanlan/vifi/internal/frame"
	"github.com/vanlan/vifi/internal/mobility"
	"github.com/vanlan/vifi/internal/sim"
)

// NodeID identifies a radio attached to a Channel. IDs are small dense
// integers assigned by Attach in attachment order.
type NodeID int

// RxInfo is what a receiver learns of a frame besides its bytes: the
// radio that sent it. A receiver that wants the time reads its kernel.
type RxInfo struct {
	From NodeID
}

// Receiver consumes frames delivered by the channel.
type Receiver interface {
	// RadioReceive is called once per frame that reached the receiver. The
	// payload is a pooled buffer owned by the channel and shared by every
	// receiver of the frame: read-only, valid only for the call, copied by
	// whoever keeps it. Channel.Decode decodes it once for all of them.
	RadioReceive(payload []byte, info RxInfo)
}

// ReceiverFunc adapts a function to the Receiver interface.
type ReceiverFunc func(payload []byte, info RxInfo)

// RadioReceive implements Receiver.
func (f ReceiverFunc) RadioReceive(payload []byte, info RxInfo) { f(payload, info) }

// LinkFactory builds the LinkModel for a directed (from, to) pair. A
// channel given no factory builds independent FadingLinks inline in its
// per-pair state; trace-driven experiments install ScheduleLinks instead.
// Factories must be pure functions of (from, to): the channel instantiates
// a directed pair whenever it first needs it.
type LinkFactory func(from, to NodeID) LinkModel

// reception is one in-flight frame at one receiver. It carries its own
// damage state so that collisions can void it without racing against
// receptions that complete at the same instant. Records are pooled on the
// channel, and a surviving one is completed by its transmission's txEnd
// (see Broadcast), so steady-state delivery performs no allocation.
type reception struct {
	dst       *node
	reading   // the frame's RSSI, noise transformed on first read
	end       time.Duration
	ok        bool
	scheduled bool       // a pending txEnd owns (and will free) this record
	next      *reception // free-list link
	later     *reception // the next survivor of the same transmission
}

// reading is an RSSI whose noise has been drawn but not yet computed: the
// noise-free base and the two uniforms of the link's Box–Muller variate.
// Drawing the uniforms is all a reading does to the link's rssi stream, so
// whether and when it is settled — the transform run, the level kept in
// base and u set to 1, the mark of a spent pair — moves no later draw.
// Most readings never are: a frame's RSSI is read only when it has to be
// weighed against another frame (captures).
type reading struct {
	base, u, v float64
}

// level returns the RSSI, settling the reading on first use.
func (r *reading) level() float64 {
	if r.u != 1 {
		r.base, r.u = r.base+sim.NormFrom(r.u, r.v)*RSSINoiseDB, 1
	}
	return r.base
}

// captureGuardDB widens the band inside which captures falls back to the
// exact comparison. What it guards against is rounding alone — the bracket
// argument is about reals, the levels are sums of floats near 100 dB, a few
// ulps or some 1e-13 dB apart from them — so it only has to dwarf that, and
// erring large costs nothing but an exact comparison now and then.
const captureGuardDB = 1e-6

// captures reports whether the frame read as r takes a receiver locked on
// the frame read as prev: level(r) ≥ level(prev) + captureDB. sim.NormBracket
// places each variate to within a few hundredths, its sign included (a
// settled reading brackets as exactly 0), so the answer is known unless the
// noise-free gap plus the bracketed noise difference straddles the guard.
// Only then are the two transforms run and the levels compared; until then
// neither reading is settled.
func (r *reading) captures(prev *reading) bool {
	gap := r.base - prev.base - captureDB
	lo, hi := sim.NormBracket(r.u, r.v)
	prevLo, prevHi := sim.NormBracket(prev.u, prev.v)
	least, most := RSSINoiseDB*(lo-prevHi), RSSINoiseDB*(hi-prevLo)
	switch {
	case gap+least > captureGuardDB:
		return true
	case gap+most < -captureGuardDB:
		return false
	}
	return r.level() >= prev.level()+captureDB
}

// nbrEntry is one cached broadcast candidate: a node bucketed in the
// transmitter's 3×3 grid neighborhood. What the entry holds depends on
// whether the pair can move (see candidates, which builds it, and inRange,
// which reads it):
//
//   - Two fixed radios (fixed set): the pair's geometry never changes, so
//     the list build resolved it for good — dist is their distance, ls their
//     link, and an entry exists only if the pair is within both the channel
//     cutoff and the link's reach. The entry owns the link, which the pair
//     map never holds, and a rebuild hands it to the pair's new entry. The
//     hot loop neither asks for a position nor tests a range.
//   - A pair with a mover: ls is resolved on the pair's first in-cutoff
//     frame, from the channel's pair map, and memoized, so the steady-state
//     broadcast probes no map and a link comes into being only for a pair
//     that got within the cutoff (a 3×3 neighborhood holds several times
//     more candidates than the cutoff disc). farUntil is the kinetic bound a
//     failed cutoff test leaves behind: the pair cannot be back within the
//     cutoff before then, so it is skipped without a Position call.
//     Rebuilding the list forgets it. Under delivery lanes ls is resolved at
//     build instead, because worker lanes must never touch the pair map.
//
// owner is the delivery lane owning this candidate (the stripe of its
// bucket cell column); zero, and never read, without lanes.
type nbrEntry struct {
	dst      *node
	ls       *linkState
	dist     float64
	farUntil time.Duration
	fixed    bool
	owner    uint8
}

// node is the channel's view of one attached radio.
type node struct {
	id      NodeID
	name    string
	mover   mobility.Mover
	speed   float64 // speed bound in m/s (see speedBound); exactly 0 marks a fixed radio
	recv    Receiver
	txUntil time.Duration // transmitting until (half duplex)
	cur     *reception    // latest reception locking this receiver
	down    bool          // radio muted by fault injection (SetDown)

	// nbr caches the candidate list of the node's last broadcast: a grid
	// neighborhood in walk order, valid while the grid version and the
	// node's query cell are unchanged — then a fresh walk would return the
	// exact same nodes in the same order, so reuse is byte-identical. Its
	// length is its capacity. nbrVer 0 marks no list: a node is inserted,
	// and the version bumped, before it can broadcast.
	nbr     []nbrEntry
	nbrVer  uint64
	nbrCell uint64
}

// Stats aggregates channel-level counters, used by the efficiency
// experiments (Fig 12) and by tests.
type Stats struct {
	Transmissions int // frames put on the air
	Deliveries    int // frame receptions (per receiver)
	Collisions    int // receptions destroyed by overlap
	HalfDuplex    int // receptions missed because receiver was sending
	ChannelLosses int // receptions lost to the link model
}

// rxLane is what a delivery decision is charged to: the counters it
// bumps and the pool its reception records come from. The channel owns
// one (all of Stats, and the pool txEnd frees completed receptions into);
// under StartShards every worker lane owns another, so concurrent
// decisions share nothing.
type rxLane struct {
	stats  Stats
	freeRx *reception
}

// rxChunk is how many reception records an empty pool takes at once.
const rxChunk = 64

// alloc takes a reception record from the lane's pool. An empty pool is
// refilled with a chunk of rxChunk records, so a lane allocates once per
// chunk of receptions it ever holds at once, not once per record.
func (ln *rxLane) alloc() *reception {
	if ln.freeRx == nil {
		chunk := make([]reception, rxChunk)
		for i := range chunk[1:] {
			chunk[i+1].next = ln.freeRx
			ln.freeRx = &chunk[i+1]
		}
		return &chunk[0]
	}
	r := ln.freeRx
	ln.freeRx = r.next
	r.next = nil
	return r
}

// put returns a record to the lane's pool.
func (ln *rxLane) put(r *reception) {
	r.dst = nil
	r.later = nil
	r.scheduled = false
	r.next = ln.freeRx
	ln.freeRx = r
}

// linkState is everything the channel keeps per directed link, as one
// pointer-free value. The three streams are seeded once, from the labels
// ("link"|"loss"|"rssi", from, to), and advanced across the whole
// simulation; recreating them per frame would freeze the coin flips.
//
// The fields are ordered by who reads them. Nearly every decision delivers
// nothing, and all it touches is the first 128 bytes: the two per-frame
// streams, the two distance memos and the modulators' deadlines and flags.
// rssiAt/rssiBase memoize RSSIBase on the last distance, keyed
// like fading's mean: a repeated distance yields the very float it yielded
// before. Behind them lies what a sojourn's end, a mean that has to be
// computed or a list build needs. stream drives fading — built in place
// when the channel has no factory; on a channel with one both stay unused
// and custom indexes the factory's model (FixedLink, a trace replay) in
// Channel.models. reach caches the model's advertised Ranged cutoff (+Inf
// when the model has none); the candidate lists and inRange consult it.
//
// Links come from the channel's slab (newLink), 64-byte aligned and three
// cache lines each; TestLinkLayout pins both.
type linkState struct {
	loss     sim.RNG // the per-frame reception coin
	noise    sim.RNG // the per-frame RSSI noise
	rssiAt   float64
	rssiBase float64
	fading   fading

	stream sim.RNG // drives fading: shadow, bursts, gray periods
	reach  float64
	custom int32
}

// rssi returns the noise-free RSSI of the link at dist.
func (ls *linkState) rssi(dist float64) float64 {
	if dist != ls.rssiAt {
		ls.rssiAt, ls.rssiBase = dist, RSSIBase(dist)
	}
	return ls.rssiBase
}

// txEnd is the always-scheduled end-of-airtime event for one transmission,
// and the transmission's only event: it completes the frame's receptions,
// keeps the active-transmitter list exact and invokes the sender's txDone
// handler. Records are pooled.
type txEnd struct {
	ch     *Channel
	src    *node
	txDone sim.Handler
	rx     *reception // the survivors, in candidate order, linked by later
	buf    []byte     // their one shared payload copy; nil when none survived
	next   *txEnd
}

func (t *txEnd) OnEvent() {
	c, src, done, rx, buf := t.ch, t.src, t.txDone, t.rx, t.buf
	t.txDone, t.src, t.rx, t.buf = nil, nil, nil, nil
	t.next = c.freeTx
	c.freeTx = t
	// Complete the receptions in candidate order (Broadcast says why that
	// order): release the receiver lock if the record still holds it,
	// recycle the record, and hand a frame that is still ok to its
	// receiver. An upcall may answer at once; what it schedules runs after
	// this event.
	c.rxBuf, c.decF, c.decErr = buf, nil, nil
	for rx != nil {
		r := rx
		rx = r.later
		d, ok := r.dst, r.ok
		if d.cur == r {
			d.cur = nil
		}
		c.put(r)
		if !ok {
			continue // destroyed by a collision or half-duplex turnaround
		}
		c.stats.Deliveries++
		if d.recv != nil {
			d.recv.RadioReceive(buf, RxInfo{From: src.id})
		}
	}
	c.rxBuf = nil
	if buf != nil {
		c.bufs.Put(buf)
	}
	// Swap-delete the finished transmitter. The list is tiny (frames on
	// the air right now) and its order never influences results: Busy
	// does no RNG draws and any in-range hit returns true.
	for i, n := range c.activeTx {
		if n == src {
			last := len(c.activeTx) - 1
			c.activeTx[i] = c.activeTx[last]
			c.activeTx[last] = nil
			c.activeTx = c.activeTx[:last]
			break
		}
	}
	if done != nil {
		done.OnEvent()
	}
}

// Channel is the shared broadcast medium. All attached nodes hear all
// transmissions subject to the per-link LinkModel, half-duplex operation
// and collision rules. The channel is single-threaded on the simulation
// kernel.
type Channel struct {
	K       *sim.Kernel
	P       Params      // read-only once links exist: default links point into it
	factory LinkFactory // nil: FadingLinks over P, built inline (see newLink)
	nodes   []*node
	// nodeSlab is the unused rest of the node records NewChannelSized set
	// aside for the radios it was told of; Attach carves from it.
	nodeSlab []node
	// lazy is the link table of the directed pairs with a mover, keyed
	// from<<32|to and populated when a pair is first needed: a mover leaves
	// a transmitter's candidate list and comes back, so its link must
	// outlive the list. A fixed pair's link is owned by its transmitter's
	// candidate entry instead (nbrEntry) and is never keyed here. When a
	// link comes into being never moves a coin flip: link RNG streams are
	// label-derived (see newLink). The links themselves are carved off
	// slab, the unused rest of the current chunk, and built counts them;
	// models holds what a factory returned, indexed by linkState.custom.
	lazy   map[uint64]*linkState
	slab   []linkState
	built  int
	models []LinkModel
	// scratch is where candidates builds a list before copying it out at
	// its exact length, and carry hands the build each fixed entry's old
	// link by destination. Both are the channel's, reused by every build;
	// carry is all nil between builds.
	scratch []nbrEntry
	carry   []*linkState
	// lists is the unused rest of the chunk radios' first candidate lists
	// are carved from, and listed counts the radios that have had one.
	lists  []nbrEntry
	listed int
	bufs   frame.BufferPool
	rxLane // the channel's own counters and reception pool
	freeTx *txEnd
	// batch and batchTail hold the survivors of the transmission Broadcast
	// is deciding, linked by later, and batchBuf their shared payload copy,
	// until scheduleTxEnd hands all three to the transmission's txEnd.
	batch, batchTail *reception
	batchBuf         []byte
	// activeTx lists the transmitters currently on the air, maintained by
	// Broadcast and txEnd.OnEvent, so carrier sense scans frames in
	// flight instead of every attached node.
	activeTx []*node
	grid     *grid
	cutoff   float64 // the reception cutoff (see NewChannel); +Inf on a reach-less channel
	// revalAt is the timestamp of the earliest pending revalidation event;
	// revalPending is false when none is scheduled. Revalidation is
	// event-driven (scheduled at the grid's exact drift deadlines) rather
	// than piggybacked on Broadcast, so bucket state at any instant is a
	// pure function of node positions and speed bounds — never of when the
	// local traffic happened to query the index. Sharded runs depend on
	// that: every shard sees identical bucket state at identical times.
	// reval is the one handler every revalidation event runs.
	revalAt      time.Duration
	revalPending bool
	reval        revalidation
	// shard, when non-nil, fans each broadcast's delivery
	// decisions out across stripe-owned worker lanes (see shard.go).
	// Byte-identity with serial holds by construction: one kernel, one
	// event order, same per-link streams, commit in candidate order.
	shard *channelShard
	// txEnd lends its payload (rxBuf) to its reception loop, and Decode
	// decodes it once into dec; decF and decErr are both nil until then.
	dec    frame.Decoder
	rxBuf  []byte
	decF   *frame.Frame
	decErr error
}

// NewChannel creates a channel over the kernel with the given parameters.
// If factory is nil, independent FadingLinks are created per directed pair,
// each seeded from the kernel's labeled RNG streams.
//
// The channel's reception cutoff alone sizes its grid: the grid serves only
// Broadcast — carrier sense scans the active-transmitter list — so folding
// SenseRangeM in would only inflate the candidate sets. With no factory it is
// CutoffM, which describes exactly the links newLink builds by default. A
// custom factory may install models the fading parameters say nothing
// about (FixedLink, trace replays), so only an explicit MaxRangeM cuts its
// deliveries off. A channel left without a finite
// cutoff — such a factory — is reach-less: its
// cutoff is +Inf, every position falls in cell (0,0), and its one-cell grid
// decides every receiver in attach order, which is the full sweep (DESIGN
// §6).
func NewChannel(k *sim.Kernel, p Params, factory LinkFactory) *Channel {
	c := &Channel{K: k, P: p, factory: factory, lazy: map[uint64]*linkState{}}
	c.cutoff = p.MaxRangeM
	if factory == nil {
		c.cutoff = p.CutoffM()
	}
	if !(c.cutoff > 0) {
		c.cutoff = math.Inf(1)
	}
	c.grid = newGrid(c.cutoff)
	c.reval.c = c
	return c
}

// NewChannelSized is NewChannel with a capacity hint from a caller that
// knows the deployment size up front (scenario generators, fleet cells).
// The hint pre-sizes the node table and the grid's, and sets aside the
// node records themselves, one slab for the radios it announces.
func NewChannelSized(k *sim.Kernel, p Params, factory LinkFactory, capacity int) *Channel {
	c := NewChannel(k, p, factory)
	if capacity > 0 {
		c.nodes = make([]*node, 0, capacity)
		c.nodeSlab = make([]node, capacity)
		c.grid.nodes = make([]gridNode, 0, capacity)
	}
	return c
}

// maxSlabLinks caps a slab chunk: 48 KB, which is also the most a channel
// can have set aside and never used.
const maxSlabLinks = 256

// newLink builds the state of one directed link. Each link's RNG streams
// are derived from stable labels, so the coin flips do not depend on when
// the link is constructed. The default model reads the channel's Params; P
// is read-only once links exist. The caller keeps the link where it is
// read: a fixed pair's in its transmitter's candidate entry, any other in
// the pair map (link).
//
// Links are carved from chunks sized by the pairs the attached population
// still lacks, so a cell of a dozen radios allocates once and exactly, and
// consecutive links — a transmitter's fixed neighbours are resolved in
// candidate order, by one list build — are consecutive in memory. A chunk
// holds no pointers, so the allocator hands it out aligned to its size
// class, a multiple of the cache line.
func (c *Channel) newLink(from, to NodeID) *linkState {
	if len(c.slab) == 0 {
		n := len(c.nodes)
		c.slab = make([]linkState, min(max(n*(n-1)-c.built, 1), maxSlabLinks))
	}
	ls := &c.slab[0]
	c.slab = c.slab[1:]
	c.built++
	ls.reach, ls.rssiAt = math.Inf(1), math.NaN()
	c.K.SeedPair(&ls.loss, "loss", int(from), int(to))
	c.K.SeedPair(&ls.noise, "rssi", int(from), int(to))
	if c.factory == nil {
		ls.reach = c.initFading(&ls.stream, &ls.fading, from, to)
		return ls
	}
	model := c.factory(from, to)
	ls.custom = int32(len(c.models))
	c.models = append(c.models, model)
	if r, ok := model.(Ranged); ok {
		if reach := r.MaxRangeM(); reach > 0 {
			ls.reach = reach
		}
	}
	return ls
}

// initFading seeds rng with the default link (from, to)'s "link" stream,
// starts f on it and returns the link's reach, +Inf when that is not
// positive. newLink runs it on the link it builds; fadingReach runs it on
// stack values to learn the reach without building the link — the same
// draws, so the same value.
func (c *Channel) initFading(rng *sim.RNG, f *fading, from, to NodeID) float64 {
	c.K.SeedPair(rng, "link", int(from), int(to))
	f.init(rng)
	if reach := f.maxRange(&c.P); reach > 0 {
		return reach
	}
	return math.Inf(1)
}

// fadingReach is the reach newLink gives the default link (from, to),
// without building it.
func (c *Channel) fadingReach(from, to NodeID) float64 {
	var rng sim.RNG
	var f fading
	return c.initFading(&rng, &f, from, to)
}

// pairKey packs a directed pair into the link-table key.
func pairKey(from, to NodeID) uint64 {
	return uint64(uint32(from))<<32 | uint64(uint32(to))
}

// Attach registers a radio with the channel and returns its NodeID. No
// link state is built here — pairs are instantiated when a broadcast first
// needs them — so a large fleet never pays O(N²) link memory or a quadratic
// attach cost. What is recorded is the mover's speed bound: a node that
// advertises exactly 0 is a fixed radio for as long as it is attached. The
// node is bucketed in the grid at once, so bucket order is attach order.
func (c *Channel) Attach(name string, mover mobility.Mover, recv Receiver) NodeID {
	id := NodeID(len(c.nodes))
	var n *node
	if len(c.nodeSlab) > 0 {
		n, c.nodeSlab = &c.nodeSlab[0], c.nodeSlab[1:]
	} else {
		n = new(node)
	}
	*n = node{id: id, name: name, mover: mover, speed: speedBound(mover), recv: recv}
	c.nodes = append(c.nodes, n)
	c.grid.insert(n, c.K.Now())
	c.scheduleReval()
	return id
}

// SetReceiver replaces the receiver of an attached node (used when protocol
// stacks are wired up after attachment).
func (c *Channel) SetReceiver(id NodeID, recv Receiver) { c.nodes[id].recv = recv }

// NodeName returns the name given at attachment.
func (c *Channel) NodeName(id NodeID) string { return c.nodes[id].name }

// SetDown mutes a node's radio: its broadcasts put nothing on the air
// (though airtime still elapses and txDone still fires, so MAC gates keep
// advancing), it receives nothing, and it senses an idle medium. A frame
// it is currently receiving is voided. Stream stability: muting touches
// no RNG — a down receiver is skipped before any loss/noise draw on its
// (private, per-directed-pair) streams, and a down transmitter draws
// nothing for anyone — so every live pair's coin flips are byte-identical
// with or without a down bystander. Frames already in flight from this
// node complete delivery (the crash takes effect at the next frame
// boundary, a deliberate simplification).
func (c *Channel) SetDown(id NodeID) {
	n := c.nodes[id]
	n.down = true
	if n.cur != nil && n.cur.end > c.K.Now() && n.cur.ok {
		n.cur.ok = false
	}
}

// SetUp restores a radio muted by SetDown.
func (c *Channel) SetUp(id NodeID) { c.nodes[id].down = false }

// Down reports whether the node's radio is muted.
func (c *Channel) Down(id NodeID) bool { return c.nodes[id].down }

// NumNodes returns the number of attached radios.
func (c *Channel) NumNodes() int { return len(c.nodes) }

// Stats returns a copy of the channel counters. On a sharded channel the
// per-lane counters (collision, half-duplex and channel-loss decisions
// run on worker lanes) are folded in, so the totals match a serial run
// exactly at any point between broadcasts.
func (c *Channel) Stats() Stats {
	st := c.stats
	if c.shard != nil {
		for _, ln := range c.shard.lanes {
			st.HalfDuplex += ln.stats.HalfDuplex
			st.Collisions += ln.stats.Collisions
			st.ChannelLosses += ln.stats.ChannelLosses
		}
	}
	return st
}

// Buffers exposes the channel's buffer pool so the MAC layer can marshal
// frames into recycled buffers.
func (c *Channel) Buffers() *frame.BufferPool { return &c.bufs }

// Decode decodes a payload the channel handed its receivers. In a
// completion the lent payload is decoded once, CRC check included, and
// every receiver gets that frame (or error): shared, read-only, valid for
// the upcall (DESIGN §6). Other bytes — outside a completion, or not the
// lent buffer — decode into fresh storage.
func (c *Channel) Decode(payload []byte) (*frame.Frame, error) {
	if len(payload) == 0 || len(payload) != len(c.rxBuf) || &payload[0] != &c.rxBuf[0] {
		return frame.Unmarshal(payload)
	}
	if c.decF == nil && c.decErr == nil {
		c.decF, c.decErr = c.dec.Decode(payload)
	}
	return c.decF, c.decErr
}

// link returns the pair map's state for the directed pair, a pair with a
// mover, instantiating it on first use (see Channel.lazy).
func (c *Channel) link(from, to NodeID) *linkState {
	key := pairKey(from, to)
	ls := c.lazy[key]
	if ls == nil {
		ls = c.newLink(from, to)
		c.lazy[key] = ls
	}
	return ls
}

// Busy reports whether the medium is sensed busy at the node: either the
// node itself is transmitting, or some in-flight transmission originates
// within carrier-sense range. Only the active-transmitter list is
// scanned — cost follows frames on the air, never the attached node
// count. An entry whose airtime ended exactly now (its txEnd event has
// not fired yet) is skipped by the txUntil check, matching the full
// sweep's semantics exactly.
func (c *Channel) Busy(id NodeID) bool {
	now := c.K.Now()
	me := c.nodes[id]
	if me.down {
		return false // a muted radio senses nothing
	}
	if me.txUntil > now {
		return true
	}
	if len(c.activeTx) == 0 {
		return false // nobody is on the air: skip the position checks
	}
	pos := me.mover.Position(now)
	for _, n := range c.activeTx {
		if n.id == id || n.txUntil <= now {
			continue
		}
		if n.mover.Position(now).Dist(pos) <= SenseRangeM {
			return true
		}
	}
	return false
}

// Transmitting reports whether the node is currently on the air.
func (c *Channel) Transmitting(id NodeID) bool {
	return c.nodes[id].txUntil > c.K.Now()
}

// Broadcast puts a frame on the air from the given node. Every other node
// receives it with its link-model probability, subject to half-duplex and
// collision rules. Returns the frame's airtime. If txDone is non-nil its
// OnEvent is invoked when the frame leaves the air (the MAC uses this to
// release its one-outstanding-frame gate); the channel always schedules
// the end-of-airtime event so virtual time advances even when every
// reception is lost.
//
// That event is the transmission's only one: the frame's surviving
// receptions complete in it, in candidate order, before txDone. It is the
// order one event per reception at end, scheduled in candidate order just
// before the txEnd, would give: nothing else is scheduled between the
// decisions and the txEnd, so events already due at end still run first
// and whatever an upcall schedules at end still runs after txDone.
//
// The payload is copied once, into a pooled buffer, when the first
// receiver survives, and every receiver is handed that copy; the caller
// keeps ownership of the passed slice and may reuse it as soon as
// Broadcast returns.
func (c *Channel) Broadcast(from NodeID, payload []byte, txDone sim.Handler) time.Duration {
	now := c.K.Now()
	src := c.nodes[from]
	airtime := Airtime(len(payload))
	end := now + airtime
	if src.txUntil > now {
		// Model guard: the MAC enforces one outstanding frame, so this is
		// a programming error in the caller.
		panic(fmt.Sprintf("radio: node %d (%s) transmit while transmitting", from, src.name))
	}
	if src.down {
		// Muted transmitter: nothing reaches the air — no deliveries, no
		// carrier occupancy, no transmission counted — but the airtime
		// still elapses for the caller and txDone still fires, so the
		// MAC's one-outstanding-frame gate advances normally. No RNG is
		// touched, keeping every live pair's streams byte-identical.
		c.scheduleTxEnd(src, txDone, end)
		return airtime
	}
	src.txUntil = end
	c.activeTx = append(c.activeTx, src)
	c.stats.Transmissions++

	// A node that begins transmitting loses any frame it was receiving.
	if src.cur != nil && src.cur.end > now && src.cur.ok {
		src.cur.ok = false
		c.stats.HalfDuplex++
	}

	srcPos := src.mover.Position(now)
	nbr := c.candidates(src, srcPos, now)
	if c.shard != nil {
		c.dispatchLanes(src, srcPos, payload, now, end)
	} else {
		for i := range nbr {
			nb := &nbr[i]
			if dist, ok := c.inRange(src, srcPos, nb, now); ok {
				c.deliver(&c.rxLane, nb.dst, nb.ls, dist, payload, now, end)
			}
		}
	}
	c.scheduleTxEnd(src, txDone, end)
	return airtime
}

// scheduleTxEnd arms the pooled end-of-airtime event for one transmission,
// handing it the batch of survivors and their payload copy.
func (c *Channel) scheduleTxEnd(src *node, txDone sim.Handler, end time.Duration) {
	te := c.freeTx
	if te != nil {
		c.freeTx = te.next
		te.next = nil
	} else {
		te = &txEnd{ch: c}
	}
	te.src, te.txDone, te.rx, te.buf = src, txDone, c.batch, c.batchBuf
	c.batch, c.batchTail, c.batchBuf = nil, nil, nil
	c.K.AtHandler(end, te)
}

// candidates returns src's broadcast candidate list, rebuilding the
// per-transmitter cache when it went stale, so the steady-state broadcast
// does no map lookups at all. The list is the 3×3 grid neighborhood in
// walk order, valid while the grid version and the transmitter's query
// cell hold still (stationary nodes: until the next bucket change
// anywhere; movers: also bounded by their own cell crossings) — then a
// fresh walk would return the exact same nodes in the same order, so
// reuse is byte-identical. On a reach-less channel it is every other node
// in ID order, valid until the next attach.
//
// It is the one place a list is built, and it settles here everything a
// pair's geometry fixes (addCandidate). The build runs in the channel's
// scratch slice and the list is copied out at its exact length, into the
// old backing array when that has it. A fixed entry owns its link, so
// the old list's fixed links are handed over by destination through
// carry, which is cleared again after the walk: a fixed pair's
// neighbourhood never loses it, so every link a fixed entry owned finds
// its new entry. A pair with a mover keeps its link lazy (resolved by
// inRange on its first in-cutoff frame) except under delivery lanes,
// where it resolves here — on the coordinator — together with each
// candidate's stripe owner, because lanes must never touch the pair map.
// Either timing is invisible to results: link RNG streams are
// label-derived, so instantiation time never moves a coin flip, and
// untouched links draw nothing. The eager cost is materializing mover
// links in the fringe (inside the 3×3 cells but beyond the cutoff) the
// lazy path would have skipped.
func (c *Channel) candidates(src *node, srcPos mobility.Point, now time.Duration) []nbrEntry {
	g := c.grid
	cell := g.cellKey(srcPos)
	if src.nbrVer != g.version || src.nbrCell != cell {
		lanes := c.ShardLanes()
		src.nbrVer, src.nbrCell = g.version, cell
		if len(c.carry) < len(c.nodes) {
			c.carry = make([]*linkState, len(c.nodes), cap(c.nodes))
		}
		for _, nb := range src.nbr {
			if nb.fixed {
				c.carry[nb.dst.id] = nb.ls
			}
		}
		c.scratch = c.scratch[:0]
		g.neighborhood(srcPos, func(id NodeID, cellX int32) {
			if id != src.id {
				c.addCandidate(src, c.nodes[id], srcPos, now, cellX, lanes)
			}
		})
		for _, nb := range src.nbr {
			c.carry[nb.dst.id] = nil
		}
		switch n := len(c.scratch); {
		case cap(src.nbr) == n:
			src.nbr = src.nbr[:n]
		case src.nbr == nil:
			src.nbr = c.firstList(n)
		default:
			src.nbr = make([]nbrEntry, n)
		}
		copy(src.nbr, c.scratch)
	}
	return src.nbr
}

// maxListChunk caps a chunk of first candidate lists: 40 KB.
const maxListChunk = 1024

// firstList returns room for a radio's first candidate list of n entries,
// carved at its exact capacity from a chunk the channel shares among first
// lists. The chunk is sized by the radios still without one, as if each
// list were as long as this one, so a cell's first lists take a few
// allocations in all. A later list of another length is the radio's own.
func (c *Channel) firstList(n int) []nbrEntry {
	c.listed++
	if len(c.lists) < n {
		c.lists = make([]nbrEntry, min(n*(len(c.nodes)-c.listed+1), max(maxListChunk, n)))
	}
	l := c.lists[:n:n]
	c.lists = c.lists[n:]
	return l
}

// addCandidate appends dst to the list candidates is building for src. Two
// fixed radios are resolved for good: their distance now is their distance
// on every later frame, so it is stored, the link is carried over or
// materialized, and the pair is left out when it lies beyond the channel
// cutoff or the link's reach — the very `continue` inRange would otherwise
// take for it on every frame, before any draw. A default link's reach is
// read before the link is built (fadingReach), so a pair beyond it gets
// none; a factory's model is built to be asked (no factory in the repo
// returns a Ranged one). Under lanes every listed pair gets its link and
// its stripe owner.
func (c *Channel) addCandidate(src, dst *node, srcPos mobility.Point, now time.Duration, cellX int32, lanes int) {
	nb := nbrEntry{dst: dst}
	if src.speed == 0 && dst.speed == 0 {
		nb.fixed = true
		nb.dist = srcPos.Dist(dst.mover.Position(now))
		if nb.dist > c.cutoff {
			return
		}
		nb.ls = c.carry[dst.id]
		switch {
		case nb.ls != nil:
		case c.factory == nil && nb.dist > c.fadingReach(src.id, dst.id):
			return
		default:
			nb.ls = c.newLink(src.id, dst.id)
		}
		if nb.dist > nb.ls.reach {
			return
		}
	}
	if lanes > 0 {
		if nb.ls == nil {
			nb.ls = c.link(src.id, dst.id)
		}
		nb.owner = uint8(laneOf(cellX, lanes))
	}
	c.scratch = append(c.scratch, nb)
}

// inRange is the one range test, shared by the serial loop and laneRun:
// it reports nb's distance from the transmitter and whether the delivery
// decision runs for it, leaving nb.ls resolved when it does.
//
// A receiver beyond the channel cutoff — or beyond the link model's own
// advertised reach — is skipped entirely, so neither its loss/noise streams
// nor any collision state is touched. Per-link streams make that safe: the
// skipped draws are guaranteed losses, and every other link's flips are
// unchanged. On a reach-less channel neither test ever skips.
//
// A fixed pair was range-tested once, by addCandidate. For a pair with a
// mover a failed cutoff test at distance d also says when the next one can
// succeed: the two close at no more than the sum of their speed bounds, so
// they stay beyond the cutoff for (d − cutoff)/(v_src + v_dst) — the same
// honest-speed-bound premise the grid's drift deadlines rest on (grid.go).
// Until then the test is known to fail and is not repeated.
func (c *Channel) inRange(src *node, srcPos mobility.Point, nb *nbrEntry, now time.Duration) (float64, bool) {
	if nb.fixed {
		return nb.dist, true
	}
	if now < nb.farUntil {
		return 0, false
	}
	dist := srcPos.Dist(nb.dst.mover.Position(now))
	if dist > c.cutoff {
		nb.farUntil = closingTime(now, dist-c.cutoff, src.speed+nb.dst.speed)
		return dist, false
	}
	if nb.ls == nil {
		nb.ls = c.link(src.id, nb.dst.id)
	}
	return dist, !(dist > nb.ls.reach)
}

// closingTime returns the earliest instant at which a gap of gapM meters
// can have closed at speedMPS: now + gap/speed, rounded down, and never
// when that is not a representable time (a zero speed sum, a bound so
// small the quotient overflows a Duration).
func closingTime(now time.Duration, gapM, speedMPS float64) time.Duration {
	if ns := gapM / speedMPS * float64(time.Second); ns < float64(never-now) {
		return now + time.Duration(ns)
	}
	return never
}

// Indexed reports whether the channel runs the spatially indexed broadcast
// path. Every channel does — a reach-less one on its one-cell grid — so it
// always reports true.
func (c *Channel) Indexed() bool { return true }

// NeighborIDs appends to buf the IDs of the nodes currently bucketed in
// the 3×3 grid neighborhood of id's position, excluding id itself, and
// returns the extended slice. It is a read-only diagnostic view of the
// index — it never inserts, rebuckets or revalidates, so calling it cannot
// perturb delivery order. On a reach-less channel it is every other node.
//
// The neighborhood over-approximates radio range: it is the candidate
// set Broadcast would filter by exact distance, not the set of reachable
// nodes. Protocol layers must not filter their own state by it —
// probability estimates legitimately outlive range — which is why only
// instrumentation and tests consume it.
func (c *Channel) NeighborIDs(id NodeID, buf []NodeID) []NodeID {
	pos := c.nodes[id].mover.Position(c.K.Now())
	c.grid.neighborhood(pos, func(nid NodeID, _ int32) {
		if nid != id {
			buf = append(buf, nid)
		}
	})
	return buf
}

// scheduleReval arranges a kernel event at the grid's earliest drift
// deadline. Revalidation thereby happens at instants that are a pure
// function of positions and speed bounds — identical in every shard of a
// partitioned run — instead of at whatever time the next local broadcast
// queried the index. An event made stale by an earlier deadline (insert
// can lower nextDeadline) reschedules itself without sweeping.
func (c *Channel) scheduleReval() {
	g := c.grid
	if g.nextDeadline == never {
		return
	}
	if c.revalPending && c.revalAt <= g.nextDeadline {
		return
	}
	c.revalPending = true
	c.revalAt = g.nextDeadline
	c.K.AtHandler(g.nextDeadline, &c.reval)
}

// revalidation is the channel's revalidation event. Every one it schedules
// runs the same handler: an event fires at the instant it was scheduled
// for, so the clock says which deadline it is.
type revalidation struct{ c *Channel }

func (r *revalidation) OnEvent() {
	c := r.c
	now := c.K.Now()
	if c.revalAt == now {
		c.revalPending = false
	}
	c.grid.revalidate(c.nodes, now)
	c.scheduleReval()
}

// deliver decides the reception of one frame at one node — the single
// delivery decision, charged to ln's counters and reception pool. Handed
// the channel's own lane it also commits a surviving frame inline (to the
// transmission's batch) and returns nil; a worker lane must touch neither
// the buffer pool nor the batch, so it gets the record back — non-nil
// exactly when the frame survived — and the coordinator commits in
// candidate order (see dispatchLanes).
func (c *Channel) deliver(ln *rxLane, dst *node, ls *linkState, dist float64, payload []byte, now, end time.Duration) *reception {
	if dst.down {
		// Muted receiver: skipped before any draw, so only this directed
		// pair's private streams advance less — a guaranteed loss, same
		// argument as the out-of-range skip.
		return nil
	}
	// The link's model is advanced to now by every decision, here. A
	// factory's model can only be asked for its probability; a default link
	// moves its modulators and leaves the arithmetic to whoever needs it.
	custom := c.factory != nil
	var pr float64
	if custom {
		pr = c.models[ls.custom].ReceiveProb(now, dist)
	} else {
		ls.fading.advance(&ls.stream, now)
	}

	// Half duplex: a transmitting receiver hears nothing.
	if dst.txUntil > now {
		if !custom {
			pr = ls.fading.prob(&c.P, dist)
		}
		if pr > 0 {
			ln.stats.HalfDuplex++
		}
		return nil
	}

	// The RSSI noise is drawn here, so the link's stream ends every
	// decision where it always did, and computed only where it is read.
	in := reading{base: ls.rssi(dist)}
	in.u, in.v = ls.noise.NormUniforms()

	// Collision handling: if the destination is locked onto another frame
	// that is still in flight (strictly: ends after now), the stronger
	// frame survives only with a clear capture margin; otherwise both are
	// destroyed. A frame ending exactly now has completed reception and
	// is not collided with. An incumbent that is already dead — nearly all
	// of them are — has nothing left to lose, so the one question is
	// whether the new frame captures, and captures mostly answers it from
	// the noise brackets alone.
	if prev := dst.cur; prev != nil && prev.end > now {
		switch {
		case in.captures(&prev.reading):
			// New frame captures the receiver; the old one is lost.
			if prev.ok {
				prev.ok = false
				ln.stats.Collisions++
			}
		case prev.ok && prev.captures(&in):
			// Existing frame survives; the new one is lost.
			ln.stats.Collisions++
			return nil
		default:
			// Mutual destruction.
			if prev.ok {
				prev.ok = false
				ln.stats.Collisions++
			}
			ln.stats.Collisions++
			return nil
		}
	}

	// Channel loss? A default link answers without its probability when the
	// coin is out of reach (fading.receives).
	var ok bool
	if coin := ls.loss.Float64(); custom {
		ok = coin < pr
	} else {
		ok = ls.fading.receives(&c.P, dist, coin)
	}
	rx := ln.alloc()
	rx.dst, rx.reading, rx.end, rx.ok = dst, in, end, ok
	// rx becomes the receiver's locking reception. A displaced record that
	// no txEnd owns (a lost frame that completed) is recycled here;
	// scheduled records are freed by their txEnd.
	if prev := dst.cur; prev != nil && !prev.scheduled {
		ln.put(prev)
	}
	dst.cur = rx
	if !ok {
		ln.stats.ChannelLosses++
		return nil
	}
	if ln != &c.rxLane {
		return rx
	}
	c.commit(rx, payload)
	return nil
}

// commit appends a reception that survived deliver to the transmission's
// batch. The first survivor copies the payload into the pooled buffer
// every receiver of the frame is handed.
func (c *Channel) commit(rx *reception, payload []byte) {
	if c.batch == nil {
		c.batchBuf = c.bufs.Get(len(payload))
		copy(c.batchBuf, payload)
		c.batch = rx
	} else {
		c.batchTail.later = rx
	}
	c.batchTail = rx
	rx.scheduled = true
}
