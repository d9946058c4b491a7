package radio

import (
	"math"
	"time"

	"github.com/vanlan/vifi/internal/mobility"
	"github.com/vanlan/vifi/internal/sim"
)

// This file implements halo-band radio sharding: byte-identical sharded
// execution of the delivery fan-out for cities whose shards share radio
// edges (un-districted grids), where the multi-kernel district partition
// of DESIGN.md §10 cannot apply.
//
// Why not more kernels? Two couplings in this radio model have zero
// latency, so no halo width is wide enough for a conservative
// multi-kernel partition to stay exact without replicating all work:
// carrier sense reads the active-transmitter list in the same instant a
// MAC decides to transmit (deferral influence crosses one sense-range
// hop per arbitrarily small time step), and a reception's fate is sealed
// only at its end time — later overlapping frames, the receiver's own
// half-duplex turnaround and fault muting all mutate it mid-flight,
// while the completed frame can trigger an ACK transmission at that very
// timestamp, leaving zero lookahead to export the outcome across a
// barrier.
//
// Instead the partition moves inside the kernel: one sim.Kernel keeps
// the exact serial event order, and each Broadcast's per-receiver
// delivery sweep — the dominant cost at metro populations: probability,
// RSSI noise, collision/capture and loss arithmetic over every in-range
// receiver — fans out across K worker lanes (sim.Gang). The grid's cell
// columns are assigned cyclically to lanes ("stripes"), every receiver
// is owned by the lane of its bucket column, and lanes compute delivery
// outcomes concurrently over disjoint state:
//
//   - workers read: positions (movers are pure functions of time),
//     dst.down, dst.txUntil, link reach — all frozen while the
//     coordinator is inside Broadcast;
//   - workers write: per-link model/RNG/memo state and the candidate
//     entry's kinetic bound (exclusive: each directed link's receiver, and
//     so each entry of the transmitter's list, is owned by exactly one
//     lane per dispatch), dst.cur and its displaced record
//     (receiver-exclusive), and lane-local counters and reception pools.
//
// The coordinator then commits results in candidate order: survivors join
// the transmission's batch in exactly the sequence the serial loop would
// produce, so kernel (at, seq) order and the order receptions complete in
// — and therefore every downstream protocol decision — are untouched.
// Transmissions in the halo band (a lane computing deliveries for a
// transmitter homed in another stripe) consume the same per-link
// label-derived RNG streams as serial; only the draw-site moves across
// lanes, never the draw-count or the stream. Carrier sense still scans the
// coordinator-owned active-transmitter list, so Busy includes halo
// transmitters by construction.

// channelLane is one delivery lane's private state. Lanes are touched by
// exactly one goroutine per dispatch; the gang's barrier publishes their
// writes to the coordinator.
type channelLane struct {
	rxLane // HalfDuplex/Collisions/ChannelLosses and records from this lane's decisions
	// Execution diagnostics: computed counts in-cutoff delivery
	// computations, rounds counts dispatches, idle counts dispatches in
	// which no candidate fell to this lane. haloFrom[s] counts
	// computations performed here for transmitters homed in stripe s —
	// the cross-stripe ("halo") delivery traffic.
	computed uint64
	rounds   uint64
	idle     uint64
	haloFrom []uint64
}

// channelShard is the sharded-delivery state hanging off a Channel while
// StartShards is active.
type channelShard struct {
	gang  *sim.Gang
	lanes []*channelLane
	rr    int // round-robin cursor for recycling coordinator-freed receptions

	// Dispatch arguments: set by dispatchLanes before the gang runs,
	// read by every lane. The gang's epoch/pending atomics carry the
	// happens-before edges in both directions.
	src    *node
	pos    mobility.Point
	now    time.Duration
	end    time.Duration
	stripe int          // transmitter's home stripe
	out    []*reception // per-candidate results, candidate (commit) order

	run func(lane int) // bound once; avoids a closure allocation per dispatch
}

// LaneStats reports one delivery lane's execution diagnostics.
type LaneStats struct {
	Computed uint64 // in-cutoff delivery computations performed
	Rounds   uint64 // broadcast dispatches participated in
	Idle     uint64 // dispatches with no candidate in this lane's stripes
	HaloSent uint64 // computations other lanes performed for this stripe's transmitters
	HaloRecv uint64 // computations this lane performed for foreign-stripe transmitters
}

// laneOf maps a grid cell column to its owning lane: cyclic stripes of
// one cell column each, so the 3-column span of a 3×3 neighborhood walk
// lands on up to three distinct lanes and aggregate load balances.
func laneOf(cellX int32, k int) int {
	return int((cellX%int32(k) + int32(k)) % int32(k))
}

// MaxShardLanes is the most delivery lanes a channel will run. Every lane
// past the first is a spinning worker goroutine, and the count arrives from
// outside the program (-shards, a served JSON spec), so it needs a ceiling;
// this one sits well above any host the mode targets and inside what
// nbrEntry.owner (a uint8) can address.
const MaxShardLanes = 64

// StartShards enables stripe-sharded delivery with k lanes and returns
// the effective lane count: k when sharding engaged, 1 when the channel
// keeps the serial path (k < 2, k > MaxShardLanes, or the channel is
// reach-less — its one grid cell has no stripe plan). The
// caller owns the lifecycle and must StopShards before the channel is
// dropped, or the k-1 worker goroutines leak parked.
func (c *Channel) StartShards(k int) int {
	if c.shard != nil {
		panic("radio: StartShards while sharded")
	}
	if k < 2 || k > MaxShardLanes || math.IsInf(c.cutoff, 1) {
		return 1
	}
	sh := &channelShard{
		gang:  sim.NewGang(k),
		lanes: make([]*channelLane, k),
	}
	for i := range sh.lanes {
		sh.lanes[i] = &channelLane{haloFrom: make([]uint64, k)}
	}
	sh.run = c.laneRun
	c.shard = sh
	// Candidate caches built on the serial path carry no stripe owners
	// and leave mover pairs' links unresolved; rebuild them on first use.
	for _, n := range c.nodes {
		n.nbrVer = 0
	}
	return k
}

// StopShards tears sharded delivery down: worker goroutines exit, lane
// counters fold into the channel totals (Stats keeps reporting the same
// numbers) and lane reception pools merge back into the coordinator's.
// No-op on a serial channel.
func (c *Channel) StopShards() {
	sh := c.shard
	if sh == nil {
		return
	}
	sh.gang.Stop()
	for _, ln := range sh.lanes {
		c.stats.HalfDuplex += ln.stats.HalfDuplex
		c.stats.Collisions += ln.stats.Collisions
		c.stats.ChannelLosses += ln.stats.ChannelLosses
		for r := ln.freeRx; r != nil; {
			next := r.next
			r.next = c.freeRx
			c.freeRx = r
			r = next
		}
		ln.freeRx = nil
	}
	c.shard = nil
}

// ShardLanes returns the number of active delivery lanes (0 = serial).
func (c *Channel) ShardLanes() int {
	if c.shard == nil {
		return 0
	}
	return len(c.shard.lanes)
}

// LaneStat returns lane i's execution diagnostics. Safe to call from
// kernel events (obs sampling) and after the run: the gang's barrier
// ordered every lane write before the coordinator could be running.
func (c *Channel) LaneStat(i int) LaneStats {
	sh := c.shard
	if sh == nil {
		return LaneStats{} // sharding already torn down
	}
	ln := sh.lanes[i]
	st := LaneStats{
		Computed: ln.computed, Rounds: ln.rounds, Idle: ln.idle,
	}
	for s, n := range ln.haloFrom {
		if s != i {
			st.HaloRecv += n
		}
	}
	for _, other := range sh.lanes {
		st.HaloSent += other.haloFrom[i]
	}
	st.HaloSent -= ln.haloFrom[i] // own-stripe computations are not halo
	return st
}

// LaneOf reports the stripe lane currently owning a node, from its live
// position (diagnostics: per-lane node counts, stripe-crossing tests).
// Returns 0 on a serial channel.
func (c *Channel) LaneOf(id NodeID) int {
	if c.shard == nil {
		return 0
	}
	pos := c.nodes[id].mover.Position(c.K.Now())
	return laneOf(c.grid.cellX(pos), len(c.shard.lanes))
}

// dispatchLanes fans the delivery decisions over src's candidate list out
// across the stripe lanes. Candidate discovery and cache maintenance
// already happened on the coordinator (candidates); so does the commit
// loop below, which batches survivors in candidate order, reproducing the
// serial sequence exactly.
func (c *Channel) dispatchLanes(src *node, srcPos mobility.Point, payload []byte, now, end time.Duration) {
	sh := c.shard
	k := len(sh.lanes)

	// Recycle receptions freed by txEnd events since the last
	// dispatch into one lane's pool, round-robin. Pool identity is
	// behaviorally invisible; this just keeps every pool circulating.
	if c.freeRx != nil {
		ln := sh.lanes[sh.rr]
		sh.rr = (sh.rr + 1) % k
		tail := c.freeRx
		for tail.next != nil {
			tail = tail.next
		}
		tail.next = ln.freeRx
		ln.freeRx = c.freeRx
		c.freeRx = nil
	}

	if cap(sh.out) < len(src.nbr) {
		sh.out = make([]*reception, len(src.nbr))
	}
	sh.out = sh.out[:len(src.nbr)]
	sh.src, sh.pos, sh.now, sh.end = src, srcPos, now, end
	sh.stripe = laneOf(c.grid.cellX(srcPos), k)
	sh.gang.Dispatch(sh.run)

	for i, rx := range sh.out {
		if rx != nil {
			sh.out[i] = nil
			c.commit(rx, payload)
		}
	}
	sh.src = nil
}

// laneRun is one lane's slice of a dispatched broadcast: every candidate
// whose bucket column this lane owns gets the delivery decision, writing
// only lane-local and receiver-exclusive state.
func (c *Channel) laneRun(lane int) {
	sh := c.shard
	ln := sh.lanes[lane]
	ln.rounds++
	src, srcPos, now, end := sh.src, sh.pos, sh.now, sh.end
	out := sh.out
	did := uint64(0)
	for i := range src.nbr {
		nb := &src.nbr[i]
		if int(nb.owner) != lane {
			continue
		}
		out[i] = nil
		dist, ok := c.inRange(src, srcPos, nb, now)
		if !ok {
			continue
		}
		did++
		ln.haloFrom[sh.stripe]++
		out[i] = c.deliver(&ln.rxLane, nb.dst, nb.ls, dist, nil, now, end)
	}
	ln.computed += did
	if did == 0 {
		ln.idle++
	}
}
