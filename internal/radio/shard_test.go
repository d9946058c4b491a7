package radio

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"github.com/vanlan/vifi/internal/mobility"
	"github.com/vanlan/vifi/internal/sim"
)

// runStriped drives a deployment spanning many grid columns — a fixed
// lattice plus route movers that cross stripe boundaries — with
// overlapping transmissions, fault toggles and mid-run down radios, and
// returns every node's full delivery log plus the channel stats. lanes=1
// runs the serial indexed path; lanes>1 runs the same workload sharded.
// The two must be byte-identical: same kernel, same event order, same
// per-link streams, commits in candidate order.
func runStriped(t *testing.T, lanes int) ([][]heard, Stats) {
	t.Helper()
	const fixed = 110
	const movers = 10
	const n = fixed + movers
	k := sim.NewKernel(77)
	p := DefaultParams()
	c := NewChannel(k, p, nil) // independent fading links, real RNG streams
	logs := make([][]heard, n)
	attach := func(i int, m mobility.Mover) {
		c.Attach(fmt.Sprint(i), m, ReceiverFunc(func(_ []byte, info RxInfo) {
			logs[i] = append(logs[i], heard{info.From, k.Now()})
		}))
	}
	// Lattice over ~8 km of X — seven grid columns at the default cutoff —
	// two rows deep, so broadcasts reach a few dozen candidates each.
	for i := 0; i < fixed; i++ {
		attach(i, mobility.Fixed(mobility.Point{X: float64(i%55) * 150, Y: float64(i/55) * 300}))
	}
	// Movers sweep back and forth across stripe boundaries.
	for i := 0; i < movers; i++ {
		x0 := float64(i) * 700
		route := mobility.NewRoute([]mobility.Point{{X: x0}, {X: x0 + 2000}}, 60, true)
		attach(fixed+i, &mobility.RouteMover{Route: route})
	}
	if lanes > 1 {
		if got := c.StartShards(lanes); got != lanes {
			t.Fatalf("StartShards(%d) = %d, want %d", lanes, got, lanes)
		}
	}
	payload := make([]byte, 200)
	for step := 0; step < 500; step++ {
		// Deterministic fault toggles: radios go down mid-run (voiding any
		// frame they are receiving) and come back 30 steps later.
		if step%60 == 0 {
			c.SetDown(NodeID((step*11 + 3) % n))
		}
		if step%60 == 30 {
			c.SetUp(NodeID(((step-30)*11 + 3) % n))
		}
		// Two transmitters per step with overlapping airtimes force
		// collision, capture and half-duplex decisions; down sources
		// exercise the muted-transmitter path.
		for _, src := range []NodeID{NodeID((step * 13) % n), NodeID((step*29 + 7) % n)} {
			if !c.Transmitting(src) {
				c.Broadcast(src, payload, nil)
			}
		}
		k.RunUntil(k.Now() + 50*time.Millisecond)
	}
	// Bounded drain: k.Run() would never return — the movers keep the
	// grid-revalidation event rescheduling itself forever. One extra
	// second covers every in-flight delivery.
	k.RunUntil(k.Now() + time.Second)
	st := c.Stats()
	if lanes > 1 {
		var computed, halo uint64
		for i := 0; i < c.ShardLanes(); i++ {
			ls := c.LaneStat(i)
			computed += ls.Computed
			halo += ls.HaloRecv
		}
		if computed == 0 {
			t.Fatal("sharded run computed no deliveries; test is vacuous")
		}
		if halo == 0 {
			t.Fatal("no halo-band traffic: every delivery stayed in its transmitter's stripe, the partition is untested")
		}
		c.StopShards()
		if got := c.Stats(); got != st {
			t.Fatalf("StopShards changed the stats: %+v -> %+v", st, got)
		}
	}
	return logs, st
}

// TestShardedMatchesSerialChannel is the channel-level half of the
// determinism bar: the same city, workload, faults and seeds must produce
// byte-identical delivery logs (sender, timestamp, RSSI, distance — every
// float) and identical channel stats at K ∈ {2, 4, 8} lanes as serially.
func TestShardedMatchesSerialChannel(t *testing.T) {
	serialLogs, serialStats := runStriped(t, 1)
	if serialStats.Deliveries == 0 || serialStats.Collisions == 0 || serialStats.HalfDuplex == 0 {
		t.Fatalf("workload too tame to pin sharding: %+v", serialStats)
	}
	for _, lanes := range []int{2, 4, 8} {
		logs, stats := runStriped(t, lanes)
		if stats != serialStats {
			t.Errorf("lanes=%d stats diverged: %+v vs serial %+v", lanes, stats, serialStats)
		}
		if !reflect.DeepEqual(logs, serialLogs) {
			for i := range logs {
				if !reflect.DeepEqual(logs[i], serialLogs[i]) {
					t.Fatalf("lanes=%d: node %d delivery log diverged (%d vs %d entries)",
						lanes, i, len(logs[i]), len(serialLogs[i]))
				}
			}
		}
	}
}

// TestShardedReachLessRefuses pins the no-stripe-plan rule: a reach-less
// channel's grid is one cell, with no columns to stripe, so StartShards
// reports an effective lane count of 1 and the channel stays serial.
func TestShardedReachLessRefuses(t *testing.T) {
	k := sim.NewKernel(3)
	c := NewChannel(k, DefaultParams(), func(from, to NodeID) LinkModel { return FixedLink(1) })
	c.Attach("a", mobility.Fixed{}, nil)
	c.Attach("b", mobility.Fixed{X: 5000}, nil)
	if got := c.StartShards(4); got != 1 {
		t.Fatalf("StartShards on a reach-less channel = %d, want 1", got)
	}
	if c.ShardLanes() != 0 {
		t.Fatal("refused StartShards left the channel sharded")
	}
	c.StopShards() // no-op, must not panic

	// Same refusal for a lane count past the ceiling, even on an indexed
	// channel: owners are a uint8 and every lane is a worker goroutine.
	c, _, _, _, _ = buildCaptureTie(t, 499.5, 1)
	if got := c.StartShards(MaxShardLanes + 1); got != 1 || c.ShardLanes() != 0 {
		t.Fatalf("StartShards(%d) = %d with %d lanes live, want a refusal", MaxShardLanes+1, got, c.ShardLanes())
	}
}

// buildCaptureTie builds the cross-stripe overlap geometry: a receiver
// just inside stripe column 1, a transmitter at strongX in column 0 (a halo
// transmitter from the receiver-owning lane's point of view) and a weak one
// 10 m away in column 1. At strongX = 499.5 the column-0 frame is 1 m out,
// 30 dB stronger than the weak one against the 10 dB capture margin; at
// 490.5 both are 10 m out and neither clears the margin.
func buildCaptureTie(t *testing.T, strongX float64, lanes int) (*Channel, *sim.Kernel, NodeID, NodeID, *collector) {
	t.Helper()
	k := sim.NewKernel(8)
	p := DefaultParams()
	p.MaxRangeM = 400 // grid cell edge 500 m: stripe boundary at X=500
	c := NewChannel(k, p, func(from, to NodeID) LinkModel { return FixedLink(1) })
	var rx collector
	strong := c.Attach("strong", mobility.Fixed{X: strongX}, nil) // column 0
	weak := c.Attach("weak", mobility.Fixed{X: 510.5}, nil)       // column 1
	c.Attach("r", mobility.Fixed{X: 500.5}, &rx)                  // column 1
	if lanes > 1 {
		if got := c.StartShards(lanes); got != lanes {
			t.Fatalf("StartShards(%d) = %d", lanes, got)
		}
	}
	return c, k, strong, weak, &rx
}

// TestShardedCaptureTieAcrossStripes replays the three ways an overlap
// ends — capture, survival, mutual destruction — with the two transmitters
// homed in different stripes, serial vs 2 lanes. The column-0
// transmitter's delivery is halo traffic (computed by the receiver's lane,
// stripe 1, for a stripe-0 transmitter), so the capture arithmetic and the
// displaced-frame bookkeeping run on a worker lane — and must still land
// exactly where the serial switch does.
func TestShardedCaptureTieAcrossStripes(t *testing.T) {
	for _, lanes := range []int{1, 2} {
		// The stronger frame second: it captures the receiver.
		c, k, strong, weak, rx := buildCaptureTie(t, 499.5, lanes)
		c.Broadcast(weak, make([]byte, 500), nil)
		c.Broadcast(strong, make([]byte, 500), nil)
		k.Run()
		if len(rx.frames) != 1 || rx.frames[0].From != strong {
			t.Fatalf("lanes=%d capture: got %+v, want 1 frame from %v", lanes, rx.frames, strong)
		}
		if got := c.Stats().Collisions; got != 1 {
			t.Errorf("lanes=%d capture collisions = %d, want 1", lanes, got)
		}
		if lanes > 1 {
			if sent := c.LaneStat(0).HaloSent; sent == 0 {
				t.Error("strong transmitter's cross-stripe delivery was not accounted as halo traffic")
			}
			c.StopShards()
		}

		// The stronger frame first: it survives the newcomer.
		c, k, strong, weak, rx = buildCaptureTie(t, 499.5, lanes)
		c.Broadcast(strong, make([]byte, 500), nil)
		c.Broadcast(weak, make([]byte, 500), nil)
		k.Run()
		if len(rx.frames) != 1 || rx.frames[0].From != strong {
			t.Fatalf("lanes=%d survival: got %+v, want 1 frame from %v", lanes, rx.frames, strong)
		}
		if got := c.Stats().Collisions; got != 1 {
			t.Errorf("lanes=%d survival collisions = %d, want 1", lanes, got)
		}
		if lanes > 1 {
			c.StopShards()
		}

		// Equal distances: mutual destruction, both frames counted.
		c, k, strong, weak, rx = buildCaptureTie(t, 490.5, lanes)
		c.Broadcast(weak, make([]byte, 500), nil)
		c.Broadcast(strong, make([]byte, 500), nil)
		k.Run()
		if len(rx.frames) != 0 {
			t.Fatalf("lanes=%d mutual destruction delivered %d frames", lanes, len(rx.frames))
		}
		if got := c.Stats().Collisions; got != 2 {
			t.Errorf("lanes=%d mutual destruction collisions = %d, want 2", lanes, got)
		}
		if lanes > 1 {
			c.StopShards()
		}
	}
}

// TestShardedStripeCrossingMidTransmission pins dynamic stripe ownership:
// a vehicle drives across a stripe boundary while the basestation keeps
// the medium occupied with back-to-back frames, so the crossing happens
// mid-transmission and consecutive deliveries to the same vehicle are
// computed by different lanes. Ownership moving between lanes must not
// move a single coin flip: the delivery log equals the serial run's.
func TestShardedStripeCrossingMidTransmission(t *testing.T) {
	run := func(lanes int) []heard {
		k := sim.NewKernel(21)
		p := DefaultParams()
		p.MaxRangeM = 400 // cell edge 500 m: stripe boundary at X=500
		c := NewChannel(k, p, func(from, to NodeID) LinkModel { return FixedLink(1) })
		bs := c.Attach("bs", mobility.Fixed{X: 480}, nil)
		var log []heard
		route := mobility.NewRoute([]mobility.Point{{X: 300}, {X: 700}}, 40, true)
		veh := c.Attach("veh", &mobility.RouteMover{Route: route}, ReceiverFunc(func(_ []byte, info RxInfo) {
			log = append(log, heard{info.From, k.Now()})
		}))
		if lanes > 1 {
			if got := c.StartShards(lanes); got != lanes {
				t.Fatalf("StartShards(%d) = %d", lanes, got)
			}
			// The vehicle starts at X=300 (stripe 0) and crosses X=500 at
			// t=5 s; sample the live ownership on both sides.
			k.At(4*time.Second, func() {
				if got := c.LaneOf(veh); got != 0 {
					t.Errorf("t=4s: vehicle at X≈460 owned by lane %d, want 0", got)
				}
			})
			k.At(8*time.Second, func() {
				if got := c.LaneOf(veh); got != 1 {
					t.Errorf("t=8s: vehicle at X≈620 owned by lane %d, want 1", got)
				}
			})
		}
		// Back-to-back 1000-byte frames keep a transmission in flight at
		// every instant, including the crossing.
		deadline := 12 * time.Second
		payload := make([]byte, 1000)
		var pump func()
		pump = func() {
			if k.Now() >= deadline {
				return
			}
			air := c.Broadcast(bs, payload, nil)
			k.After(air, pump)
		}
		k.After(0, pump)
		// Bounded drain (k.Run() would chase the mover's perpetual
		// grid-revalidation events forever).
		k.RunUntil(deadline + time.Second)
		if lanes > 1 {
			if c.LaneStat(1).HaloRecv == 0 {
				t.Error("no halo deliveries after the crossing: stripe-1 lane never computed for the stripe-0 basestation")
			}
			c.StopShards()
		}
		return log
	}
	serial := run(1)
	if len(serial) == 0 {
		t.Fatal("vehicle received nothing; test is vacuous")
	}
	sharded := run(2)
	if !reflect.DeepEqual(serial, sharded) {
		t.Fatalf("delivery logs diverged across the stripe crossing: %d serial vs %d sharded entries", len(serial), len(sharded))
	}
}
