package radio

import (
	"math"
	"time"

	"github.com/vanlan/vifi/internal/mobility"
)

// This file implements the channel's uniform spatial grid: Broadcast
// queries the 3×3 cell neighborhood of the transmitter instead of sweeping
// every attached node, so per-frame cost is O(nodes within range), not
// O(N). A reach-less channel's grid has cutoff +Inf: its cells are
// infinite, every position falls in cell (0,0), no mover ever has to be
// re-bucketed, and the walk is that one bucket in attach order — every
// other node in ID order.
//
// Correctness invariant: a receiver whose true position is within the
// channel cutoff of the transmitter must appear in the queried
// neighborhood. Each node is bucketed by a recorded position; the cell
// edge is cutoff+slack meters, and a node is re-bucketed before it can
// drift more than slack meters from its recorded position (deadline =
// slack / speed bound, from mobility.SpeedBounded). Any point within
// cellM of the query position lies in the 3×3 neighborhood of the query
// cell, so |recorded − query| ≤ cutoff + drift ≤ cutoff + slack = cellM
// guarantees the node is found. Stationary nodes (speed bound 0 — fixed
// basestations) are bucketed once and never churn. The invariant leans
// on honest speed bounds: a mover that does not implement SpeedBounded
// is assumed to stay under defaultSpeedBoundMPS, and one that teleports
// or exceeds its advertised bound can be missed until its next
// revalidation deadline.
//
// The grid is a candidate filter only: Broadcast still computes exact
// distances and applies the cutoff per receiver, so false positives cost
// one distance check and false negatives cannot occur.

// gridSlackFrac sizes the revalidation slack as a fraction of the
// reception cutoff. Larger slack means bigger cells (more candidates per
// query) but rarer re-bucketing.
const gridSlackFrac = 0.25

// defaultSpeedBoundMPS bounds movers that do not advertise a speed via
// mobility.SpeedBounded: 100 m/s (360 km/h) is comfortably above any
// vehicular scenario, at the cost of more frequent revalidation. A
// custom mover that can exceed it (or jump discontinuously, e.g. a
// raw-GPS trace with gaps) must implement SpeedBounded itself, or the
// index may miss it until the next revalidation deadline.
const defaultSpeedBoundMPS = 100.0

// never is the deadline of nodes that cannot drift out of their bucket.
const never = time.Duration(math.MaxInt64)

// gridNode is the per-node index state.
type gridNode struct {
	key      uint64        // packed cell coordinates of the bucket holding the node
	deadline time.Duration // revalidate at/after this time; never for stationary nodes
}

// grid is the uniform spatial index over node positions. Buckets are
// keyed by packed integer cell coordinates so the region needs no
// a-priori bounds; bucket slices are reused across re-bucketing, so the
// steady state allocates nothing.
type grid struct {
	cellM float64
	// slackM is how far a node may drift from its recorded position before
	// it is re-bucketed. Its deadline is closingTime over that gap: never
	// when no Duration holds it, as on a one-cell grid, whose slack is +Inf.
	slackM  float64
	buckets map[uint64][]NodeID
	nodes   []gridNode // indexed by NodeID, dense in attach order
	moving  []NodeID   // nodes with a positive speed bound
	// nextDeadline is the earliest revalidation deadline over moving
	// nodes; queries at or past it trigger a revalidation sweep.
	nextDeadline time.Duration
	// version counts bucket-membership changes (inserts and cross-cell
	// rebuckets). While it is unchanged, every neighborhood() walk from
	// the same query cell returns the same nodes in the same order, which
	// is what lets the channel cache per-transmitter candidate lists.
	version uint64
}

// newGrid sizes the index for the channel's reception cutoff.
func newGrid(cutoffM float64) *grid {
	slack := cutoffM * gridSlackFrac
	return &grid{
		cellM:        cutoffM + slack,
		slackM:       slack,
		buckets:      map[uint64][]NodeID{},
		nextDeadline: never,
	}
}

// cellKey packs the cell coordinates of a position into a map key.
func (g *grid) cellKey(p mobility.Point) uint64 {
	cx := int32(math.Floor(p.X / g.cellM))
	cy := int32(math.Floor(p.Y / g.cellM))
	return packCell(cx, cy)
}

func packCell(cx, cy int32) uint64 {
	return uint64(uint32(cx))<<32 | uint64(uint32(cy))
}

// speedBound returns the speed bound the channel relies on for a mover:
// what it advertises through SpeedBounded, or the conservative default
// when it advertises nothing — or nothing usable. A bound that is not
// >= 0 (negative, NaN) is a bug in the mover, not a promise to stand
// still, so it counts as unknown: only an advertised bound of exactly 0
// makes a node fixed, for the grid (bucketed once) and for the channel's
// candidate lists (geometry resolved once) alike.
func speedBound(m mobility.Mover) float64 {
	if s, ok := m.(mobility.SpeedBounded); ok {
		if v := s.MaxSpeedMPS(); v >= 0 {
			return v
		}
	}
	return defaultSpeedBoundMPS
}

// insert buckets one node at its current position. Called once per node,
// in attachment order.
func (g *grid) insert(n *node, now time.Duration) {
	id := n.id
	key := g.cellKey(n.mover.Position(now))
	g.buckets[key] = append(g.buckets[key], id)
	g.version++
	gn := gridNode{key: key, deadline: never}
	if n.speed > 0 {
		gn.deadline = closingTime(now, g.slackM, n.speed)
		g.moving = append(g.moving, id)
		if gn.deadline < g.nextDeadline {
			g.nextDeadline = gn.deadline
		}
	}
	g.nodes = append(g.nodes, gn)
}

// revalidate refreshes the moving nodes once the earliest deadline has
// passed. O(1) when nothing is due. Every moving node is re-bucketed in
// the sweep — not just the expired ones — so the next sweep is a full
// drift period (set by the fastest mover) away and revalidation stays
// amortized O(1) per node per period; expiry-only refreshing would
// re-trigger the O(moving) scan once per individual staggered deadline.
func (g *grid) revalidate(nodes []*node, now time.Duration) {
	if now < g.nextDeadline {
		return
	}
	min := never
	for _, id := range g.moving {
		g.rebucket(nodes[id], now)
		if d := g.nodes[id].deadline; d < min {
			min = d
		}
	}
	g.nextDeadline = min
}

// rebucket refreshes one node's bucket from its current position: when
// it crossed a cell boundary the node moves between buckets, otherwise
// only its deadline resets. The vacated slot is removed by swap-delete;
// bucket order is irrelevant to queries (the exact distance check
// decides), and it is deterministic either way.
func (g *grid) rebucket(n *node, now time.Duration) {
	id := n.id
	gn := &g.nodes[id]
	key := g.cellKey(n.mover.Position(now))
	if key != gn.key {
		old := g.buckets[gn.key]
		for i, v := range old {
			if v == id {
				last := len(old) - 1
				old[i] = old[last]
				g.buckets[gn.key] = old[:last]
				break
			}
		}
		g.buckets[key] = append(g.buckets[key], id)
		g.version++
		gn.key = key
	}
	gn.deadline = closingTime(now, g.slackM, n.speed)
}

// neighborhood invokes visit for every node bucketed in the 3×3 cells
// around pos, in fixed row-major cell order, passing each node's bucket
// cell column (cellX) alongside its ID. Bucket contents are a
// deterministic function of the simulation history, so the visit order —
// and therefore the order of scheduled receptions — is reproducible. The
// column is what a sharded channel folds into stripe ownership: a pure
// function of bucket state, so lane assignment is deterministic without
// ever reading a true position.
func (g *grid) neighborhood(pos mobility.Point, visit func(NodeID, int32)) {
	cx := int32(math.Floor(pos.X / g.cellM))
	cy := int32(math.Floor(pos.Y / g.cellM))
	for dy := int32(-1); dy <= 1; dy++ {
		for dx := int32(-1); dx <= 1; dx++ {
			for _, id := range g.buckets[packCell(cx+dx, cy+dy)] {
				visit(id, cx+dx)
			}
		}
	}
}

// cellX returns the cell column of a position.
func (g *grid) cellX(pos mobility.Point) int32 {
	return int32(math.Floor(pos.X / g.cellM))
}
