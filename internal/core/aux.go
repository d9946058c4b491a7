package core

import (
	"cmp"
	"slices"
	"time"

	"github.com/vanlan/vifi/internal/frame"
)

// pendTTL is a safety bound on how long an undecided overheard packet can
// linger at an auxiliary.
const pendTTL = 500 * time.Millisecond

// considerPending evaluates an overheard, non-relayed data frame for the
// auxiliary role (§4.3 step 3). The basestation must be in the vehicle's
// current auxiliary set for the packet's vehicle.
func (n *Node) considerPending(f *frame.Frame) {
	now := n.K.Now()
	// Identify the vehicle: upstream frames come from it, downstream
	// frames are addressed to it.
	var veh uint16
	if f.FromVehicle {
		veh = f.Src
	} else if n.vehs[f.Dst] != nil {
		veh = f.Dst
	} else {
		return
	}
	vs := n.vehs[veh]
	if vs == nil || now-vs.lastBeacon > n.cfg.ProbStale {
		return
	}
	if !contains(vs.aux, n.addr) {
		return // not designated an auxiliary for this vehicle
	}
	id := f.ID()
	key := pendKey{id: id, attempt: f.Attempt}
	for i := range n.pending {
		if n.pending[i].key == key {
			return
		}
	}
	n.emit(EvAuxHeard, dirOfFrame(f), id, f.Attempt, f.Src, MediumAir)
	if len(n.pending) >= pendingCap {
		// Evict the oldest pending entry (insertion order is age order).
		copy(n.pending, n.pending[1:])
		n.pending[len(n.pending)-1] = pendEntry{}
		n.pending = n.pending[:len(n.pending)-1]
	}
	n.pending = append(n.pending, pendEntry{
		key: key,
		pkt: pendPkt{src: f.Src, dst: f.Dst, fromVehicle: f.FromVehicle,
			payload: append([]byte(nil), f.Payload...), heardAt: now, veh: veh},
	})
	if !n.relayArmed {
		// Wake the dormant chain: skip the instants that passed while there
		// was nothing to decide, drawing each one's jitter as its (no-op)
		// tick would have. An instant equal to now is skipped too: this
		// entry's age there is 0 < ackWait, so that tick decides nothing.
		for n.relayNext <= now {
			n.relayNext += n.relayPeriod()
		}
		n.relayArmed = true
		n.K.AtHandler(n.relayNext, &n.relayH)
	}
}

func dirOfFrame(f *frame.Frame) Direction {
	if f.FromVehicle {
		return Up
	}
	return Down
}

func contains(xs []uint16, x uint16) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// relayPeriod draws the gap to the chain's next instant. Gaps are jittered
// so auxiliaries stay desynchronized, which suppresses duplicate relays
// via overheard acknowledgments.
func (n *Node) relayPeriod() time.Duration {
	return relayCheck + n.rng.Jitter(relayCheck/2)
}

// relayTick is the auxiliary's relay timer (§4.4: "Each auxiliary BS has a
// timer that fires periodically... decides whether it needs to relay any
// unacknowledged packet"). The period is a fixed chain of instants
// (relayNext) drawn from the node's own RNG stream; the timer is a kernel
// event only while the pending list is non-empty. A tick over an empty list
// would do nothing but draw its successor's jitter, and considerPending
// makes those draws in the same stream order when it wakes the chain, so
// every decision falls on the instant — and the stream position — an
// always-running timer would give it.
func (n *Node) relayTick() {
	now := n.K.Now()
	if len(n.pending) > 0 {
		// Decide in a deterministic order: each decision consumes the
		// relay RNG stream, so sweep order here would otherwise change
		// coin flips and break seed reproducibility. The scratch index
		// buffer keeps the common near-empty tick allocation-free.
		idx := n.relayScratch[:0]
		for i := range n.pending {
			idx = append(idx, int32(i))
		}
		if len(idx) > 1 {
			slices.SortFunc(idx, func(x, y int32) int {
				a, b := n.pending[x].key, n.pending[y].key
				if c := cmp.Compare(a.id.Src, b.id.Src); c != 0 {
					return c
				}
				if c := cmp.Compare(a.id.Seq, b.id.Seq); c != 0 {
					return c
				}
				return cmp.Compare(a.attempt, b.attempt)
			})
		}
		n.relayScratch = idx
		for _, i := range idx {
			e := &n.pending[i]
			age := now - e.pkt.heardAt
			if age < ackWait {
				continue // still within the acknowledgment window
			}
			e.dead = true
			if age > pendTTL {
				continue
			}
			n.decideRelay(e.key, &e.pkt)
		}
		// Compact the survivors, preserving insertion (age) order.
		live := n.pending[:0]
		for i := range n.pending {
			if !n.pending[i].dead {
				live = append(live, n.pending[i])
			}
		}
		for i := len(live); i < len(n.pending); i++ {
			n.pending[i] = pendEntry{}
		}
		n.pending = live
	}
	n.relayNext = now + n.relayPeriod()
	n.relayArmed = len(n.pending) > 0
	if n.relayArmed {
		n.K.AtHandler(n.relayNext, &n.relayH)
	}
}

// decideRelay computes this auxiliary's relay probability for the packet
// and flips the coin (§4.4).
func (n *Node) decideRelay(key pendKey, p *pendPkt) {
	ctx, ok := n.buildRelayContext(p)
	dir := dirOf(p)
	if !ok {
		n.emit(EvAuxDeclined, dir, key.id, key.attempt, p.src, MediumAir)
		return
	}
	prob := RelayProb(n.cfg.Coordinator, ctx)
	if !n.rng.Bool(prob) {
		n.emit(EvAuxDeclined, dir, key.id, key.attempt, p.src, MediumAir)
		return
	}
	n.relay(key, p, dir)
}

// buildRelayContext assembles Eq 3's inputs from the probability table and
// the vehicle's beaconed auxiliary set. The returned context is node-owned
// scratch, reused across decisions.
func (n *Node) buildRelayContext(p *pendPkt) (*RelayContext, bool) {
	now := n.K.Now()
	vs := n.vehs[p.veh]
	if vs == nil {
		return nil, false
	}
	var s, d uint16
	if p.fromVehicle {
		s, d = p.veh, p.dst // upstream: vehicle → anchor
	} else {
		s, d = p.src, p.veh // downstream: anchor → vehicle
	}
	aux := vs.aux
	self := -1
	ctx := &n.relayCtx
	ctx.Aux = append(ctx.Aux[:0], aux...)
	ctx.C = growFloats(ctx.C, len(aux))
	ctx.PToDst = growFloats(ctx.PToDst, len(aux))
	psd := n.probs.Get(s, d, now)
	for i, b := range aux {
		psBi := n.probs.Get(s, b, now)
		pdBi := n.probs.Get(d, b, now)
		ctx.C[i] = Contention(psBi, psd, pdBi)
		if p.fromVehicle {
			// Upstream relays travel the inter-BS backplane, which the
			// paper treats as reliable relative to the vehicle channel
			// (§4.3: "relaying uses the inter-BS communication plane,
			// which in many cases will be more reliable").
			ctx.PToDst[i] = 1
		} else {
			ctx.PToDst[i] = n.probs.Get(b, d, now)
		}
		if b == n.addr {
			self = i
		}
	}
	if self < 0 {
		return nil, false
	}
	ctx.Self = self
	return ctx, true
}

// growFloats resizes a scratch slice to length n, reusing capacity. The
// caller overwrites every element.
func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// relay forwards the packet toward its destination: upstream over the
// backplane, downstream over the air (§4.3: "Upstream packets are relayed
// on the inter-BS backplane and downstream packets on the vehicle-BS
// channel").
func (n *Node) relay(key pendKey, p *pendPkt, dir Direction) {
	rf := &n.txFrame
	*rf = frame.Frame{
		Type: frame.TypeRelay, Src: n.addr, Dst: p.dst,
		Seq: key.id.Seq, Attempt: key.attempt, Relayed: true,
		Orig: p.src, Payload: p.payload,
	}
	if dir == Up {
		if n.bp != nil && n.sendBackplane(p.dst, rf) {
			n.emit(EvAuxRelayed, dir, key.id, key.attempt, p.dst, MediumBackplane)
		}
		return
	}
	n.mac.Send(rf)
	n.emit(EvAuxRelayed, dir, key.id, key.attempt, p.dst, MediumAir)
}
