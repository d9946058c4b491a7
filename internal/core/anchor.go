package core

import (
	"cmp"
	"slices"
	"time"

	"github.com/vanlan/vifi/internal/frame"
)

// salvageCacheTTL bounds how long downstream packets are remembered for
// potential salvaging, comfortably above the shipped salvage windows; it
// also caps Config.SalvageWindow.
const salvageCacheTTL = 5 * time.Second

// becomeAnchor runs when a vehicle's beacon names this basestation as its
// anchor: register with the Internet gateway and pull stranded packets
// from the previous anchor (§4.5).
func (n *Node) becomeAnchor(veh, prevAnchor uint16) {
	vs := n.vehs[veh]
	if vs != nil {
		vs.amAnchor = true
	}
	if n.bp == nil {
		return
	}
	reg := &n.txFrame
	*reg = frame.Frame{Type: frame.TypeRegister, Src: n.addr, Dst: n.gatewayAddr, Target: veh}
	if !n.sendBackplane(n.gatewayAddr, reg) && vs != nil {
		// Backplane refused the Register (partition or full uplink):
		// retry on the vehicle's next beacon rather than leaving the
		// gateway forwarding downstream traffic to the old anchor.
		vs.regRetry = true
	}
	if n.cfg.EnableSalvage && prevAnchor != frame.None && prevAnchor != n.addr {
		req := &n.txFrame
		*req = frame.Frame{Type: frame.TypeSalvageReq, Src: n.addr, Dst: prevAnchor, Target: veh}
		if n.sendBackplane(prevAnchor, req) {
			n.emit(EvSalvageReq, Down, frame.PacketID{Src: veh}, 0, prevAnchor, MediumBackplane)
		}
	}
}

// retryRegister re-sends a Register that the backplane previously
// refused, clearing the retry mark once a send is admitted.
func (n *Node) retryRegister(veh uint16, vs *vehState) {
	if n.bp == nil {
		vs.regRetry = false
		return
	}
	reg := &n.txFrame
	*reg = frame.Frame{Type: frame.TypeRegister, Src: n.addr, Dst: n.gatewayAddr, Target: veh}
	if n.sendBackplane(n.gatewayAddr, reg) {
		vs.regRetry = false
	}
}

// handleBackplane dispatches messages arriving over the inter-BS plane.
func (n *Node) handleBackplane(from uint16, payload []byte) {
	f, err := n.bpDec.Decode(payload)
	if err != nil {
		return
	}
	switch f.Type {
	case frame.TypeRelay:
		if from == n.gatewayAddr {
			n.handleDownFromInternet(f.Orig, f.Payload)
			return
		}
		n.handleUpstreamRelay(f)
	case frame.TypeSalvageReq:
		n.handleSalvageReq(from, f)
	case frame.TypeSalvageData:
		n.handleSalvageData(f)
	}
}

// handleDownFromInternet accepts a downstream packet for veh from the
// gateway and transmits it over the air, recording it for potential
// salvaging. The salvage cache keeps the packet for salvageCacheTTL, so it
// takes its own pooled copy of the borrowed payload.
func (n *Node) handleDownFromInternet(veh uint16, payload []byte) {
	seq := n.enqueueData(veh, payload, Down)
	keep := n.mac.Buffers().Get(len(payload))
	copy(keep, payload)
	vs := n.ensureVeh(veh)
	vs.salvage = append(vs.salvage, downPkt{seq: seq, payload: keep, fromNetAt: n.K.Now()})
	n.trimSalvage(vs)
}

// salvageAcked removes downstream packet seq, which the vehicle has
// acknowledged, from its salvage cache and gives its payload back.
// Entries are appended in seq order, so a binary search finds the entry —
// or finds it already trimmed.
func (n *Node) salvageAcked(veh uint16, seq uint32) {
	vs := n.vehs[veh]
	if vs == nil {
		return
	}
	i, ok := slices.BinarySearchFunc(vs.salvage, seq, func(d downPkt, seq uint32) int {
		return cmp.Compare(d.seq, seq)
	})
	if ok {
		n.mac.Buffers().Put(vs.salvage[i].payload)
		vs.salvage = slices.Delete(vs.salvage, i, i+1)
	}
}

// handleUpstreamRelay accepts a relayed upstream packet from an auxiliary
// (§4.3 step 4: acknowledge unless already acknowledged) and forwards it
// to the gateway.
func (n *Node) handleUpstreamRelay(f *frame.Frame) {
	id := f.ID()
	n.emit(EvDstRecvRelay, Up, id, f.Attempt, f.Src, MediumBackplane)
	n.ackAndDeliver(id, f.Attempt, f.Payload, Up)
}

// handleSalvageReq answers a new anchor's pull: every unacknowledged
// downstream packet for the vehicle that arrived from the Internet within
// the salvage window is transferred (§4.5), and a packet handed over
// leaves the cache. The window is capped at salvageCacheTTL, so whether an
// entry is handed over never depends on whether a trim has dropped it yet.
func (n *Node) handleSalvageReq(from uint16, req *frame.Frame) {
	if !n.cfg.EnableSalvage {
		return
	}
	now := n.K.Now()
	window := min(n.cfg.SalvageWindow, salvageCacheTTL)
	veh := req.Target
	vs := n.vehs[veh]
	if vs == nil {
		return
	}
	vs.salvage = slices.DeleteFunc(vs.salvage, func(d downPkt) bool {
		if now-d.fromNetAt > window {
			return false
		}
		sf := &n.txFrame
		*sf = frame.Frame{Type: frame.TypeSalvageData, Src: n.addr, Dst: from,
			Orig: veh, Payload: d.payload}
		if !n.sendBackplane(from, sf) {
			return false
		}
		n.mac.Buffers().Put(d.payload)
		n.emit(EvSalvaged, Down, frame.PacketID{Src: veh}, 0, from, MediumBackplane)
		return true
	})
}

// handleSalvageData treats a salvaged packet as if it had just arrived
// from the Internet (§4.5).
func (n *Node) handleSalvageData(f *frame.Frame) {
	n.handleDownFromInternet(f.Orig, f.Payload)
}

// salvageCacheCap bounds the per-vehicle salvage cache to its newest
// entries.
const salvageCacheCap = 512

// trimSalvage bounds a vehicle's salvage cache, giving the payloads of
// the dropped entries back to the pool. Entries are appended as they
// arrive, so the expired ones and those beyond the cap form a prefix; the
// survivors move to the front, keeping the slice's capacity for the
// appends to come. A cache left empty drops its backing array.
func (n *Node) trimSalvage(vs *vehState) {
	cache := vs.salvage
	now := n.K.Now()
	drop := max(len(cache)-salvageCacheCap, 0)
	for drop < len(cache) && now-cache[drop].fromNetAt > salvageCacheTTL {
		drop++
	}
	pool := n.mac.Buffers()
	for i := range cache[:drop] {
		pool.Put(cache[i].payload)
	}
	if drop == len(cache) {
		vs.salvage = nil // an already-empty cache too
		return
	}
	if drop > 0 {
		kept := copy(cache, cache[drop:])
		clear(cache[kept:])
		vs.salvage = cache[:kept]
	}
}
