package core

import "github.com/vanlan/vifi/internal/frame"

// ColdRestart wipes the node's protocol state as a crash-and-reboot
// would: everything learned over the air or the backplane — probability
// tables, beacon counters, anchor/auxiliary designations, per-vehicle
// state including the salvage cache, in-flight packets, the auxiliary
// pending list and the table of acked packets — is discarded, so peers'
// entries for this node age out and both sides re-learn from scratch. The
// fault injector calls this when a basestation's outage ends.
//
// Two counters deliberately survive: nextSeq and beaconSeq. Reusing
// sequence numbers after a crash would collide fresh PacketIDs with
// pre-crash ones that peers remember for a dedup horizon after their
// last copy, silently swallowing new packets — modeling the usual
// persisted/randomized initial sequence number. The node's window timer
// keeps running and its relay-timer chain keeps its place (a tick armed
// over the discarded pending list fires once, finds nothing and goes
// dormant); both operate correctly on the fresh state.
func (n *Node) ColdRestart() {
	// Sender: settle and recycle everything in flight.
	for _, pkt := range n.outstanding {
		n.settle(pkt)
	}
	n.delays.reset()

	clear(n.acked)

	// Learned reachability: a fresh probability table, which also holds
	// the beacon counts and the vehicle marks of the peers heard. It keeps
	// its room, emptied, rather than taking a second one.
	n.probs.init(n.cfg.ProbAlpha, n.cfg.ProbStale)

	// Vehicle designations.
	n.anchor, n.prevAnchor = frame.None, frame.None
	n.auxList = n.auxList[:0]

	// Basestation roles: per-vehicle state (anchor flags, salvage caches)
	// and the auxiliary's overheard-packet list, whose pooled payloads go
	// back to the pool.
	pool := n.mac.Buffers()
	for _, vs := range n.vehs {
		for i := range vs.salvage {
			pool.Put(vs.salvage[i].payload)
		}
	}
	clear(n.vehs)
	for i := range n.pending {
		pool.Put(n.pending[i].pkt.payload)
		n.pending[i] = pendEntry{}
	}
	n.pending = n.pending[:0]
}
