package radio

import (
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
// the exact serial event order, and each indexed Broadcast's per-receiver
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
//   - workers write: per-link model/RNG state (exclusive: each directed
//     link's receiver is owned by exactly one lane per dispatch),
//     dst.cur and its displaced record (receiver-exclusive), and
//     lane-local counters and reception pools.
//
// The coordinator then commits results in candidate order: payload
// copies and delivery events are scheduled in exactly the sequence the
// serial loop would produce, so kernel (at, seq) order — and therefore
// every downstream protocol decision — is untouched. Transmissions in
// the halo band (a lane computing deliveries for a transmitter homed in
// another stripe) consume the same per-link label-derived RNG streams as
// serial; only the draw-site moves across lanes, never the draw-count
// or the stream. Carrier sense still scans the coordinator-owned
// active-transmitter list, so Busy includes halo transmitters by
// construction.

// channelLane is one delivery lane's private state. Lanes are touched by
// exactly one goroutine per dispatch; the gang's barrier publishes their
// writes to the coordinator.
type channelLane struct {
	stats Stats      // HalfDuplex/Collisions/ChannelLosses from this lane's computations
	free  *reception // lane-local reception pool
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

	// Dispatch arguments: set by broadcastSharded before the gang runs,
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
	Lane     int
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

// StartShards enables stripe-sharded delivery with k lanes and returns
// the effective lane count: k when sharding engaged, 1 when the channel
// keeps the serial path (k < 2, or the channel is not on the spatially
// indexed path — the full sweep has no stripe plan). The caller owns the
// lifecycle and must StopShards before the channel is dropped, or the
// k-1 worker goroutines leak parked.
func (c *Channel) StartShards(k int) int {
	if c.shard != nil {
		panic("radio: StartShards while sharded")
	}
	if k < 2 || !c.indexed() {
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
	// Candidate caches built on the serial path carry neither stripe
	// owners nor eagerly resolved links; rebuild them on first use.
	for _, n := range c.nodes {
		n.nbrOK = false
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
		for r := ln.free; r != nil; {
			next := r.next
			r.next = c.freeRx
			c.freeRx = r
			r = next
		}
		ln.free = nil
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
		return LaneStats{Lane: i} // sharding already torn down
	}
	ln := sh.lanes[i]
	st := LaneStats{
		Lane: i, Computed: ln.computed, Rounds: ln.rounds, Idle: ln.idle,
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
// Returns 0 on a serial channel or before the grid exists.
func (c *Channel) LaneOf(id NodeID) int {
	if c.shard == nil || c.grid == nil {
		return 0
	}
	pos := c.nodes[id].mover.Position(c.K.Now())
	return laneOf(c.grid.cellX(pos), len(c.shard.lanes))
}

// broadcastSharded is broadcastIndexed with the per-receiver delivery
// computations fanned out across the stripe lanes. Candidate discovery,
// cache maintenance and result commitment stay on the coordinator; the
// commit loop schedules deliveries in candidate order, reproducing the
// serial kernel sequence exactly.
func (c *Channel) broadcastSharded(src *node, srcPos mobility.Point, payload []byte, now, end time.Duration) {
	g := c.ensureGrid(now)
	sh := c.shard
	k := len(sh.lanes)
	cell := g.cellKey(srcPos)
	if !src.nbrOK || src.nbrVer != g.version || src.nbrCell != cell {
		src.nbr = src.nbr[:0]
		g.neighborhoodCells(srcPos, func(id NodeID, cellX int32) {
			if id != src.id {
				// Links resolve eagerly here — on the coordinator, at
				// cache build — because lanes must never touch the link
				// map. Invisible to results: link RNG streams are
				// label-derived, so instantiation time never moves a
				// coin flip, and untouched links draw nothing. The cost
				// is materializing fringe links the serial path would
				// have skipped (candidates beyond the cutoff).
				src.nbr = append(src.nbr, nbrEntry{
					dst:   c.nodes[id],
					ls:    c.link(src.id, id),
					owner: uint8(laneOf(cellX, k)),
				})
			}
		})
		src.nbrOK, src.nbrVer, src.nbrCell = true, g.version, cell
	}

	// Recycle receptions freed by delivery events since the last
	// dispatch into one lane's pool, round-robin. Pool identity is
	// behaviorally invisible; this just keeps every pool circulating.
	if c.freeRx != nil {
		ln := sh.lanes[sh.rr]
		sh.rr = (sh.rr + 1) % k
		tail := c.freeRx
		for tail.next != nil {
			tail = tail.next
		}
		tail.next = ln.free
		ln.free = c.freeRx
		c.freeRx = nil
	}

	if cap(sh.out) < len(src.nbr) {
		sh.out = make([]*reception, len(src.nbr))
	}
	sh.out = sh.out[:len(src.nbr)]
	sh.src, sh.pos, sh.now, sh.end = src, srcPos, now, end
	sh.stripe = laneOf(g.cellX(srcPos), k)
	sh.gang.Dispatch(sh.run)

	// Commit phase: schedule surviving deliveries in candidate order —
	// the exact (at, seq) sequence the serial loop produces.
	for i, rx := range sh.out {
		if rx == nil {
			continue
		}
		sh.out[i] = nil
		buf := c.bufs.Get(len(payload))
		copy(buf, payload)
		rx.buf = buf
		rx.scheduled = true
		c.K.AtHandler(end, rx)
	}
	sh.src = nil
}

// laneRun is one lane's slice of a dispatched broadcast: every candidate
// whose bucket column this lane owns gets the full serial delivery
// decision, writing only lane-local and receiver-exclusive state.
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
		dist := srcPos.Dist(nb.dst.mover.Position(now))
		if dist > c.cutoff || dist > nb.ls.reach {
			continue
		}
		did++
		ln.haloFrom[sh.stripe]++
		out[i] = c.deliverCompute(ln, src, nb.dst, nb.ls, dist, now, end)
	}
	ln.computed += did
	if did == 0 {
		ln.idle++
	}
}

// deliverCompute is the worker-phase half of deliver: everything up to —
// but not including — the payload copy and event scheduling, which the
// coordinator commits in candidate order. It must mirror deliver's
// decision sequence draw for draw; the returned reception is non-nil
// exactly when a delivery event must be scheduled.
func (c *Channel) deliverCompute(ln *channelLane, src, dst *node, ls *linkState, dist float64, now, end time.Duration) *reception {
	if dst.down {
		return nil
	}
	pr := ls.model.ReceiveProb(now, dist)

	if dst.txUntil > now {
		if pr > 0 {
			ln.stats.HalfDuplex++
		}
		return nil
	}

	rssi := c.P.rssi(dist, ls.noise.NormFloat64()*c.P.RSSINoiseDB)

	if prev := dst.cur; prev != nil && prev.end > now {
		switch {
		case rssi >= prev.rssi+c.P.CaptureDB:
			if prev.ok {
				prev.ok = false
				ln.stats.Collisions++
			}
		case prev.rssi >= rssi+c.P.CaptureDB:
			ln.stats.Collisions++
			return nil
		default:
			if prev.ok {
				prev.ok = false
				ln.stats.Collisions++
			}
			ln.stats.Collisions++
			return nil
		}
	}

	ok := ls.loss.Float64() < pr
	rx := ln.alloc(c)
	rx.ch, rx.dst = c, dst
	rx.from, rx.rssi, rx.end, rx.ok = src.id, rssi, end, ok
	if prev := dst.cur; prev != nil && !prev.scheduled {
		ln.put(prev)
	}
	dst.cur = rx
	if !ok {
		ln.stats.ChannelLosses++
		return nil
	}
	rx.info = RxInfo{From: src.id, At: end, RSSI: rssi, Dist: dist}
	return rx
}

// alloc takes a reception from the lane pool.
func (ln *channelLane) alloc(c *Channel) *reception {
	if r := ln.free; r != nil {
		ln.free = r.next
		r.next = nil
		return r
	}
	return &reception{ch: c}
}

// put returns a reception to the lane pool.
func (ln *channelLane) put(r *reception) {
	r.dst = nil
	r.buf = nil
	r.scheduled = false
	r.next = ln.free
	ln.free = r
}
