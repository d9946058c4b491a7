package core

import (
	"maps"
	"slices"
	"time"

	"github.com/vanlan/vifi/internal/backplane"
	"github.com/vanlan/vifi/internal/frame"
	"github.com/vanlan/vifi/internal/mac"
	"github.com/vanlan/vifi/internal/radio"
	"github.com/vanlan/vifi/internal/sim"
)

// DeliverFunc receives deduplicated application payloads. For a vehicle it
// fires on downstream packets; for the gateway on upstream ones. from is
// the original link-layer source. The payload is borrowed from the
// receiver's frame decoder: it is valid only during the call, and a
// consumer copies what it keeps.
type DeliverFunc func(id frame.PacketID, payload []byte, from uint16)

// vehState is a basestation's view of one vehicle, learned from its
// beacons (§4.3: "Beacons enable all nearby BSes to learn the current
// anchor and the set of auxiliary BSes").
type vehState struct {
	amAnchor   bool // this BS believes it is the vehicle's anchor
	anchor     uint16
	aux        []uint16
	lastBeacon time.Duration
	// regRetry marks a Register the backplane refused to admit (anchor
	// partitioned or uplink queue full at handoff time); the anchor
	// retries on the vehicle's next beacon so a fault window cannot leave
	// the gateway pointing at a stale anchor forever.
	regRetry bool
	// salvage records downstream packets for potential salvaging (§4.5),
	// in arrival order — which is also seq order and fromNetAt order.
	salvage []downPkt
}

// outPkt is one in-flight outgoing packet at a source: it is in
// outstanding from its first transmission until settle (ack, give-up or
// ColdRestart) takes it out. Records are pooled on the node and double as
// their own retransmission-timer event (sim.Handler), so the send path
// does not allocate in steady state.
type outPkt struct {
	n       *Node
	seq     uint32
	dst     uint16 // fixed for anchors; re-resolved per attempt on vehicles
	payload []byte // pooled; given back by settle
	attempt uint8
	txAt    time.Duration
	timer   sim.Timer
	dir     Direction
	free    *outPkt // free-list link
}

// OnEvent fires the retransmission timer.
func (p *outPkt) OnEvent() { p.n.retxFire(p) }

// pendKey identifies one overheard transmission at an auxiliary.
type pendKey struct {
	id      frame.PacketID
	attempt uint8
}

// pendPkt is an overheard, not-yet-decided packet at an auxiliary: what
// relay needs of the frame beyond its pendKey, held by value with the
// auxiliary's own copy of the payload (the decoded frame is only borrowed,
// and this record lives up to pendTTL).
type pendPkt struct {
	src, dst    uint16
	fromVehicle bool
	payload     []byte // pooled; given back wherever the entry dies
	heardAt     time.Duration
	veh         uint16
}

// pendEntry is one slot of the auxiliary's pending list, from the moment
// the packet is overheard until relayTick decides it, an ack suppresses
// it or a newer entry evicts it. The list is a small insertion-ordered
// slice (bounded by pendingCap): linear scans beat a map at this size,
// keep eviction order exact, and never allocate.
type pendEntry struct {
	key pendKey
	pkt pendPkt
}

// downPkt is an anchor's record of a downstream packet for salvaging
// (§4.5): what arrived from the Internet, when, and under which of the
// anchor's sequence numbers it went out. It stays in the salvage cache
// only while the vehicle may still need it: the vehicle's ack, a
// hand-over to the new anchor, trimSalvage and ColdRestart remove it.
type downPkt struct {
	seq       uint32
	payload   []byte // pooled; given back when the entry leaves the cache
	fromNetAt time.Duration
}

// ackedInfo remembers a packet the node has acknowledged, for
// deduplication and bitmap-triggered re-acknowledgment (§4.8).
type ackedInfo struct {
	attempt uint8
	lastAck time.Duration
}

// reAckMin rate-limits bitmap-triggered acknowledgment repeats.
const reAckMin = 20 * time.Millisecond

// windowTask and relayTask are the node's periodic-timer sim.Handler
// adapters, embedded in the node.
type windowTask struct{ n *Node }

func (t *windowTask) OnEvent() { t.n.windowTick() }

type relayTask struct{ n *Node }

func (t *relayTask) OnEvent() { t.n.relayTick() }

// upcalls is the node's adapter for the layers below it — the MAC's frame
// handler and beacon source, the backplane port's receiver — embedded in
// the node like the timer adapters, so wiring the node allocates no
// method-value closure.
type upcalls struct{ n *Node }

func (u *upcalls) HandleFrame(f *frame.Frame, info radio.RxInfo) { u.n.handleFrame(f, info) }

func (u *upcalls) Beacon() *frame.Frame { return u.n.buildBeacon() }

func (u *upcalls) BackplaneReceive(from uint16, payload []byte) { u.n.handleBackplane(from, payload) }

// Node is one ViFi protocol entity — a vehicle or a basestation. Both run
// the same engine; the isVehicle flag enables anchor selection and
// beaconed designations, while basestations additionally run the
// auxiliary (relay) and anchor (forwarding/salvage) roles.
type Node struct {
	K           *sim.Kernel
	cfg         Config
	mac         *mac.MAC
	bp          *backplane.Net
	bpDec       frame.Decoder // backplane receive storage; air frames come decoded by the channel
	addr        uint16
	isVehicle   bool
	gatewayAddr uint16

	probs   ProbTable
	rng     sim.RNG // the ("core", addr) stream
	events  EventFunc
	deliver DeliverFunc

	// Sender state. The maps here and below are made on first write.
	nextSeq     uint32
	outstanding map[uint32]*outPkt
	pktFree     *outPkt
	pktSlab     []outPkt // the unused rest of allocPkt's current block
	delays      delaySampler

	acked map[frame.PacketID]ackedInfo // receiver state, kept a dedupHorizon past last use

	// Vehicle state.
	anchor     uint16
	prevAnchor uint16
	auxList    []uint16

	// Basestation state: vehs holds the per-vehicle state by vehicle
	// address; pending is the auxiliary's overheard-packet list.
	vehs    map[uint16]*vehState
	pending []pendEntry
	// relayScratch is relayTick's reusable index buffer (sorted there for
	// deterministic relay decisions).
	relayScratch []int32
	relayCtx     RelayContext
	// relayNext is the next instant of the relay-timer chain; relayArmed
	// says relayH is scheduled there (true only while pending may be
	// non-empty — see relayTick).
	relayNext  time.Duration
	relayArmed bool

	// Reusable frame scratch for synchronous sends (the MAC marshals
	// before returning, so one scratch serves all send sites).
	txFrame    frame.Frame
	beaconBody frame.Beacon

	windowH windowTask
	relayH  relayTask
	up      upcalls

	beaconSeq uint32

	// evCounts tallies every probe event by kind whether or not a
	// collector is installed — the observability layer's rolling
	// counters (EventCount). Plain increments on the emit funnel: no
	// allocation, no behavior change.
	evCounts [NumEventKinds]uint64
}

// newNode builds a protocol entity in place, in n (a zero Node that must
// not move afterwards), and wires it onto its attached MAC and, for a
// basestation, onto port, its place on the backplane. newCell is the only
// caller: it keeps a cell's nodes, MACs and ports in one slab per layer,
// so a node allocates nothing here. Its probability table, its ("core",
// addr) stream and its upcall and timer adapters are fields, and the
// table takes its room from rooms, the cell's slab, at its first touch;
// the one-shot ("corewin", addr) stream that places its first window
// lives on the stack; its maps are made on first write. Both streams carry the labels
// k.RNG("core", fmt.Sprint(addr)) and k.RNG("corewin", …) would, and the
// first beacon is scheduled before the first window: labels and order are
// part of every seeded run's bytes.
func newNode(n *Node, k *sim.Kernel, cfg Config, m *mac.MAC, bp *backplane.Net, port *backplane.Port,
	rooms *roomSlab, gatewayAddr uint16, isVehicle bool, events EventFunc) {

	*n = Node{
		K:           k,
		cfg:         cfg,
		mac:         m,
		bp:          bp,
		addr:        m.Addr(),
		isVehicle:   isVehicle,
		gatewayAddr: gatewayAddr,
		events:      events,
		delays:      newDelaySampler(512),
		anchor:      frame.None,
		prevAnchor:  frame.None,
	}
	n.probs.init(cfg.ProbAlpha, cfg.ProbStale)
	n.probs.src = rooms
	k.Seed(&n.rng, []string{"core"}, int(n.addr))
	n.windowH.n, n.relayH.n, n.up.n = n, n, n
	m.SetHandler(&n.up)
	if bp != nil && !isVehicle {
		bp.AttachPort(n.addr, port, &n.up)
	}
	m.StartBeaconsFrom(&n.up)
	var win sim.RNG
	k.Seed(&win, []string{"corewin"}, int(n.addr))
	k.AfterHandler(probWindow+win.Jitter(probWindow/4), &n.windowH)
	if !isVehicle && cfg.EnableRelay {
		n.relayNext = k.Now() + relayCheck + n.rng.Jitter(relayCheck)
	}
}

// Addr returns the node's link-layer address.
func (n *Node) Addr() uint16 { return n.addr }

// Anchor returns the vehicle's current anchor (frame.None when none).
func (n *Node) Anchor() uint16 { return n.anchor }

// AuxCount returns the vehicle's current number of designated auxiliary
// basestations (Table 1 row A1 samples this).
func (n *Node) AuxCount() int { return len(n.auxList) }

// EventCount returns how many probe events of the given kind this node
// has emitted so far. Maintained unconditionally (collector or not), so
// the observability layer can sample protocol activity — anchor changes,
// salvages, deliveries — as rolling counters without installing an
// EventFunc. Pure read.
func (n *Node) EventCount(kind EventKind) uint64 { return n.evCounts[kind] }

// SetDeliver installs the application delivery callback (vehicle side).
func (n *Node) SetDeliver(d DeliverFunc) { n.deliver = d }

// MAC exposes the node's MAC entity (stats, address).
func (n *Node) MAC() *mac.MAC { return n.mac }

// Probs exposes the node's probability table (diagnostics).
func (n *Node) Probs() *ProbTable { return &n.probs }

// ensureVeh returns the state for a vehicle, creating it on first beacon.
func (n *Node) ensureVeh(veh uint16) *vehState {
	vs := n.vehs[veh]
	if vs == nil {
		if n.vehs == nil {
			n.vehs = map[uint16]*vehState{}
		}
		vs = &vehState{anchor: frame.None}
		n.vehs[veh] = vs
	}
	return vs
}

// emit sends a probe event if a collector is installed.
func (n *Node) emit(kind EventKind, dir Direction, id frame.PacketID, attempt uint8, peer uint16, medium Medium) {
	n.evCounts[kind]++
	if n.events == nil {
		return
	}
	n.events(Event{Kind: kind, Dir: dir, ID: id, Attempt: attempt,
		Node: n.addr, Peer: peer, Medium: medium, At: n.K.Now()})
}

// --- Periodic work -------------------------------------------------------

// windowTick closes a probability window and, on vehicles, re-evaluates
// the anchor/auxiliary designations. On basestations it also sweeps every
// salvage cache, so the caches of vehicles that moved on expire too. Every
// node forgets acked packets past the dedup horizon (a delete-only sweep).
func (n *Node) windowTick() {
	now := n.K.Now()
	n.probs.flush(n.addr, float64(probWindow)/float64(n.cfg.BeaconInterval), now)
	if n.isVehicle {
		n.selectAnchor(now)
	}
	for _, vs := range n.vehs {
		n.trimSalvage(vs)
	}
	maps.DeleteFunc(n.acked, func(_ frame.PacketID, a ackedInfo) bool { return now-a.lastAck > n.cfg.dedupHorizon() })
	n.K.AfterHandler(probWindow, &n.windowH)
}

// usableBS is the minimum averaged beacon reception ratio for a
// basestation to serve as anchor or auxiliary.
const usableBS = 0.05

// selectAnchor applies BRR anchor selection (§4.3: "Our implementation
// uses BRR") and refreshes the auxiliary list ("all BSes that the vehicle
// hears").
func (n *Node) selectAnchor(now time.Duration) {
	best := frame.None
	bestVal := usableBS
	for _, peer := range n.probs.FreshLocalPeers(n.addr, now) {
		if n.probs.isVehicle(peer) {
			continue // only basestations can anchor (fleet deployments)
		}
		v := n.probs.Get(peer, n.addr, now)
		if v > bestVal {
			best, bestVal = peer, v
		}
	}
	// Keep the current anchor while it stays usable and no strictly better
	// candidate exists (argmax with first-wins stability).
	if best != frame.None && best != n.anchor {
		cur := 0.0
		if n.anchor != frame.None {
			cur = n.probs.Get(n.anchor, n.addr, now)
		}
		if bestVal > cur {
			if n.anchor != frame.None {
				n.prevAnchor = n.anchor
			}
			n.anchor = best
			n.emit(EvAnchorChange, Up, frame.PacketID{}, 0, best, MediumAir)
		}
	} else if n.anchor != frame.None && n.probs.Get(n.anchor, n.addr, now) < usableBS {
		// Anchor lost entirely.
		n.prevAnchor = n.anchor
		n.anchor = frame.None
	}
	// Auxiliaries: every other usable basestation.
	n.auxList = n.auxList[:0]
	for _, peer := range n.probs.FreshLocalPeers(n.addr, now) {
		if peer == n.anchor || n.probs.isVehicle(peer) {
			continue
		}
		if n.probs.Get(peer, n.addr, now) >= usableBS {
			n.auxList = append(n.auxList, peer)
		}
	}
	if len(n.auxList) > 255 {
		n.auxList = n.auxList[:255]
	}
}

// buildBeacon produces this node's periodic beacon (§4.3, §4.6). The
// frame, body and aux list are node-owned scratch: the MAC marshals the
// result before the next beacon is built.
func (n *Node) buildBeacon() *frame.Frame {
	now := n.K.Now()
	n.beaconSeq++
	b := &n.beaconBody
	b.Anchor, b.PrevAnchor = frame.None, frame.None
	b.Aux = b.Aux[:0]
	b.Probs = n.probs.Report(n.addr, now)
	if n.isVehicle {
		b.Anchor = n.anchor
		b.PrevAnchor = n.prevAnchor
		b.Aux = append(b.Aux, n.auxList...)
	}
	f := &n.txFrame
	*f = frame.Frame{
		Type: frame.TypeBeacon, Src: n.addr, Dst: frame.Broadcast,
		Seq: n.beaconSeq, FromVehicle: n.isVehicle, Beacon: b,
	}
	return f
}

// --- Frame dispatch ------------------------------------------------------

// handleFrame is the MAC upcall for every decoded over-the-air frame.
func (n *Node) handleFrame(f *frame.Frame, info radio.RxInfo) {
	switch f.Type {
	case frame.TypeBeacon:
		n.handleBeacon(f)
	case frame.TypeData:
		n.handleData(f)
	case frame.TypeRelay:
		n.handleAirRelay(f)
	case frame.TypeAck:
		n.handleAck(f)
	}
}

// handleBeacon ingests probability reports and vehicle designations.
func (n *Node) handleBeacon(f *frame.Frame) {
	now := n.K.Now()
	var probs []frame.ProbEntry
	if f.Beacon != nil {
		probs = f.Beacon.Probs
	}
	n.probs.observeBeacon(f.Src, n.addr, f.FromVehicle, probs, now)
	if !f.FromVehicle || n.isVehicle || f.Beacon == nil {
		return
	}
	// Basestation learning a vehicle's designations.
	veh := f.Src
	vs := n.ensureVeh(veh)
	vs.anchor = f.Beacon.Anchor
	vs.aux = append(vs.aux[:0], f.Beacon.Aux...)
	vs.lastBeacon = now

	amAnchor := f.Beacon.Anchor == n.addr
	if amAnchor && !vs.amAnchor {
		n.becomeAnchor(veh, f.Beacon.PrevAnchor)
	} else if amAnchor && vs.regRetry {
		n.retryRegister(veh, vs)
	} else if !amAnchor && vs.amAnchor {
		vs.amAnchor = false
		vs.regRetry = false
	}
}

// handleData processes a non-relayed data frame heard on the air.
func (n *Node) handleData(f *frame.Frame) {
	if f.Dst == n.addr {
		dir := Up
		if n.isVehicle {
			dir = Down
		}
		n.emit(EvDstRecvDirect, dir, f.ID(), f.Attempt, f.Src, MediumAir)
		n.ackAndDeliver(f.ID(), f.Attempt, f.Payload, dir)
		n.handleBitmap(f)
		return
	}
	// Not for us: auxiliary opportunity (basestations only).
	if !n.isVehicle && n.cfg.EnableRelay {
		n.considerPending(f)
	}
}

// handleAirRelay processes a relayed data frame on the air (downstream
// relaying, §4.3 step 3).
func (n *Node) handleAirRelay(f *frame.Frame) {
	if f.Dst != n.addr {
		return // relays are never re-relayed (§4.3: "only once")
	}
	dir := Up
	if n.isVehicle {
		dir = Down
	}
	n.emit(EvDstRecvRelay, dir, f.ID(), f.Attempt, f.Src, MediumAir)
	n.ackAndDeliver(f.ID(), f.Attempt, f.Payload, dir)
}

// handleAck processes an over-the-air acknowledgment: sources settle
// outstanding packets, auxiliaries suppress pending relays.
func (n *Node) handleAck(f *frame.Frame) {
	now := n.K.Now()
	if f.AckSrc == n.addr {
		if pkt, ok := n.outstanding[f.AckSeq]; ok {
			if f.AckAttempt == pkt.attempt {
				n.delays.add(now - pkt.txAt)
			}
			dir, dst := pkt.dir, pkt.dst
			n.settle(pkt)
			if dir == Down {
				n.salvageAcked(dst, f.AckSeq)
			}
			n.emit(EvAckRecv, dir, frame.PacketID{Src: n.addr, Seq: f.AckSeq}, f.AckAttempt, f.Src, MediumAir)
		}
	}
	// Suppress any pending relay for this packet, regardless of attempt
	// (the packet is at the destination).
	if !n.isVehicle && n.cfg.EnableRelay {
		id := frame.PacketID{Src: f.AckSrc, Seq: f.AckSeq}
		n.pending = slices.DeleteFunc(n.pending, func(e pendEntry) bool {
			if e.key.id != id {
				return false
			}
			n.emit(EvAuxSuppressed, dirOf(&e.pkt), id, e.key.attempt, f.Src, MediumAir)
			n.mac.Buffers().Put(e.pkt.payload)
			return true
		})
	}
}

// handleBitmap re-acknowledges packets the sender still thinks are
// unacknowledged (§4.8's 1-byte bitmap optimization).
func (n *Node) handleBitmap(f *frame.Frame) {
	if f.AckBitmap == 0 {
		return
	}
	now := n.K.Now()
	for i := 0; i < 8; i++ {
		if f.AckBitmap&(1<<i) == 0 {
			continue
		}
		if uint32(i+1) > f.Seq {
			break
		}
		id := frame.PacketID{Src: f.Src, Seq: f.Seq - 1 - uint32(i)}
		if info, ok := n.acked[id]; ok && now-info.lastAck >= reAckMin {
			info.lastAck = now
			n.acked[id] = info
			n.sendAck(id, info.attempt)
		}
	}
}

// ackAndDeliver acknowledges a received data packet and delivers it once.
func (n *Node) ackAndDeliver(id frame.PacketID, attempt uint8, payload []byte, dir Direction) {
	now := n.K.Now()
	if info, seen := n.acked[id]; seen {
		// Duplicate (retransmission or relay duplicate): re-acknowledge,
		// do not re-deliver.
		info.attempt = attempt
		info.lastAck = now
		n.acked[id] = info
		n.sendAck(id, attempt)
		return
	}
	if n.acked == nil {
		n.acked = map[frame.PacketID]ackedInfo{}
	}
	n.acked[id] = ackedInfo{attempt: attempt, lastAck: now}
	n.sendAck(id, attempt)

	if n.isVehicle {
		n.emit(EvDeliver, dir, id, attempt, id.Src, MediumAir)
		if n.deliver != nil {
			n.deliver(id, payload, id.Src)
		}
		return
	}
	// Anchor (or stale anchor) role: forward upstream payload to the
	// Internet gateway over the backplane.
	if n.bp != nil {
		fwd := &n.txFrame
		*fwd = frame.Frame{Type: frame.TypeRelay, Src: n.addr, Dst: n.gatewayAddr,
			Seq: id.Seq, Orig: id.Src, Attempt: attempt, Payload: payload}
		n.sendBackplane(n.gatewayAddr, fwd)
	}
}

// sendBackplane marshals a frame into a pooled buffer and puts it on the
// inter-BS plane (which copies what it admits).
func (n *Node) sendBackplane(to uint16, f *frame.Frame) bool {
	pool := n.mac.Buffers()
	buf, err := f.AppendTo(pool.Get(f.WireSize())[:0])
	if err != nil {
		return false
	}
	ok := n.bp.Send(n.addr, to, buf)
	pool.Put(buf)
	return ok
}

// sendAck broadcasts an acknowledgment with queue priority (§4.3 step 2).
func (n *Node) sendAck(id frame.PacketID, attempt uint8) {
	f := &n.txFrame
	*f = frame.Frame{
		Type: frame.TypeAck, Src: n.addr, Dst: frame.Broadcast,
		AckSrc: id.Src, AckSeq: id.Seq, AckAttempt: attempt,
		FromVehicle: n.isVehicle,
	}
	n.mac.SendPriority(f)
}

// dirOf infers a pending packet's direction.
func dirOf(p *pendPkt) Direction {
	if p.fromVehicle {
		return Up
	}
	return Down
}
