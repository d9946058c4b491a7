package radio

import (
	"testing"
	"time"

	"github.com/vanlan/vifi/internal/mobility"
	"github.com/vanlan/vifi/internal/sim"
)

// TestChannelDeliveryAllocFree is the hot-path guard for the radio layer:
// a steady-state broadcast — reception records, payload copies, tx-end
// bookkeeping and the scheduled kernel events — must not allocate. The
// pools warm up on the first frame; every later frame recycles.
func TestChannelDeliveryAllocFree(t *testing.T) {
	k := sim.NewKernel(9)
	c := NewChannel(k, DefaultParams(), func(from, to NodeID) LinkModel {
		return FixedLink(1) // always deliver: exercises the full path
	})
	got := 0
	sink := ReceiverFunc(func(payload []byte, info RxInfo) { got += len(payload) })
	a := c.Attach("a", mobility.Fixed{}, sink)
	c.Attach("b", mobility.Fixed{X: 10}, sink)
	c.Attach("c", mobility.Fixed{X: 20}, sink)
	payload := make([]byte, 200)

	// Warm the pools (reception records, buffers, kernel arena).
	for i := 0; i < 4; i++ {
		c.Broadcast(a, payload, nil)
		k.Run()
	}
	allocs := testing.AllocsPerRun(500, func() {
		c.Broadcast(a, payload, nil)
		k.Run()
	})
	if allocs != 0 {
		t.Errorf("steady-state frame delivery allocates %.1f objects, want 0", allocs)
	}
	if got == 0 {
		t.Fatal("no payload delivered")
	}
}

// TestLossRecordsAreRecycled pins the pool bookkeeping for lost frames: a
// loss record is displaced by the next frame at that receiver, not leaked,
// so a long lossy run must not allocate reception records either.
func TestLossRecordsAreRecycled(t *testing.T) {
	k := sim.NewKernel(11)
	c := NewChannel(k, DefaultParams(), func(from, to NodeID) LinkModel {
		return FixedLink(0) // every frame lost
	})
	a := c.Attach("a", mobility.Fixed{}, nil)
	c.Attach("b", mobility.Fixed{X: 10}, nil)
	payload := make([]byte, 64)
	for i := 0; i < 4; i++ {
		c.Broadcast(a, payload, nil)
		k.Run()
	}
	allocs := testing.AllocsPerRun(500, func() {
		c.Broadcast(a, payload, nil)
		k.Run()
	})
	if allocs != 0 {
		t.Errorf("lossy steady state allocates %.1f objects, want 0", allocs)
	}
	if c.Stats().ChannelLosses == 0 {
		t.Fatal("expected channel losses")
	}
	if c.Stats().Deliveries != 0 {
		t.Fatal("unexpected deliveries on a zero link")
	}
}

// TestIndexedBroadcastAllocFree is the hot-path guard for the spatially
// indexed channel: steady-state Broadcast on the grid path — bucket
// queries, lazy link lookups, reception records, payload copies and the
// active-transmitter bookkeeping — must not allocate once the in-range
// link set is instantiated.
func TestIndexedBroadcastAllocFree(t *testing.T) {
	k := sim.NewKernel(13)
	p := DefaultParams()
	p.MaxRangeM = 1000 // a custom factory has a cutoff only when told one
	c := NewChannel(k, p, func(from, to NodeID) LinkModel {
		return FixedLink(1) // always deliver: exercises the full path
	})
	got := 0
	sink := ReceiverFunc(func(payload []byte, info RxInfo) { got += len(payload) })
	const n = 32
	for i := 0; i < n; i++ {
		// All within the cutoff of node 0, stationary: buckets never churn.
		c.Attach("n", mobility.Fixed{X: float64(i) * 25}, sink)
	}
	payload := make([]byte, 200)
	// Warm the pools and instantiate every (0,*) link.
	for i := 0; i < 4; i++ {
		c.Broadcast(0, payload, nil)
		k.Run()
	}
	allocs := testing.AllocsPerRun(500, func() {
		c.Broadcast(0, payload, nil)
		k.Run()
	})
	if allocs != 0 {
		t.Errorf("steady-state indexed broadcast allocates %.1f objects, want 0", allocs)
	}
	if got == 0 {
		t.Fatal("no payload delivered")
	}
}

// TestLaneBroadcastAllocFree is the same guard with two delivery lanes
// engaged: the dispatch, the lane-side decisions (records from lane
// pools, the coordinator's freed records recycled into them) and the
// candidate-order commit must not allocate in steady state either.
func TestLaneBroadcastAllocFree(t *testing.T) {
	k := sim.NewKernel(13)
	p := DefaultParams()
	p.MaxRangeM = 1000
	c := NewChannel(k, p, func(from, to NodeID) LinkModel { return FixedLink(1) })
	got := 0
	sink := ReceiverFunc(func(payload []byte, info RxInfo) { got += len(payload) })
	const n = 32
	for i := 0; i < n; i++ {
		// Stationary, all within the cutoff of node 0, straddling the grid
		// column edge at 1250 m so both lanes own candidates.
		c.Attach("n", mobility.Fixed{X: 750 + float64(i)*30}, sink)
	}
	if c.StartShards(2) != 2 {
		t.Fatal("test did not engage the lanes")
	}
	defer c.StopShards()
	payload := make([]byte, 200)
	// Warm the pools on both sides of the dispatch.
	for i := 0; i < 8; i++ {
		c.Broadcast(0, payload, nil)
		k.Run()
	}
	allocs := testing.AllocsPerRun(500, func() {
		c.Broadcast(0, payload, nil)
		k.Run()
	})
	if allocs != 0 {
		t.Errorf("steady-state 2-lane broadcast allocates %.1f objects, want 0", allocs)
	}
	if got == 0 {
		t.Fatal("no payload delivered")
	}
	for i := 0; i < 2; i++ {
		if c.LaneStat(i).Computed == 0 {
			t.Errorf("lane %d computed nothing: the guard is not covering it", i)
		}
	}
}

// TestRevalidationAllocFree: every channel with a cutoff and a mover keeps
// the mover's grid bucket fresh with revalidation events, a paper-sized
// cell included, so a revalidation must allocate nothing — not its event,
// not its sweep. The VanLAN vehicle drives on for a minute per run, past
// two or three of its ≈24 s drift deadlines.
func TestRevalidationAllocFree(t *testing.T) {
	k := sim.NewKernel(15)
	c := NewChannel(k, DefaultParams(), nil)
	v := mobility.NewVanLAN()
	for _, bs := range v.BSes {
		c.Attach("bs", mobility.Fixed(bs), nil)
	}
	c.Attach("veh", &mobility.RouteMover{Route: v.Route}, nil)
	k.RunUntil(time.Minute) // warm the kernel's arena
	ran := k.EventsRun()
	allocs := testing.AllocsPerRun(10, func() { k.RunUntil(k.Now() + time.Minute) })
	if allocs != 0 {
		t.Errorf("revalidating a 12-radio cell allocates %.1f objects per minute, want 0", allocs)
	}
	if n := k.EventsRun() - ran; n < 2*11 {
		t.Fatalf("%d revalidations over 11 minutes: the guard is not covering them", n)
	}
}

// TestBusyAllocFree guards the carrier-sense fast path: scanning the
// active-transmitter list must never allocate, busy medium or idle.
func TestBusyAllocFree(t *testing.T) {
	k := sim.NewKernel(14)
	c := NewChannel(k, DefaultParams(), func(from, to NodeID) LinkModel { return FixedLink(1) })
	a := c.Attach("a", mobility.Fixed{}, nil)
	b := c.Attach("b", mobility.Fixed{X: 100}, nil)
	c.Broadcast(a, make([]byte, 4000), nil) // long frame: stays on the air
	if !c.Busy(b) {
		t.Fatal("medium not sensed busy during a transmission")
	}
	allocs := testing.AllocsPerRun(500, func() {
		c.Busy(b)
		c.Busy(a)
	})
	if allocs != 0 {
		t.Errorf("Busy allocates %.1f objects, want 0", allocs)
	}
	k.Run()
	allocs = testing.AllocsPerRun(500, func() { c.Busy(b) })
	if allocs != 0 {
		t.Errorf("idle Busy allocates %.1f objects, want 0", allocs)
	}
}

// TestLinkStreamsIsolated pins the property that makes eager attach-time
// link construction equivalent to the old lazy scheme: every directed
// pair's RNG streams are label-derived and private, so traffic on other
// links never perturbs a pair's coin flips. Run B front-loads extra
// broadcasts from the other nodes before an identically-scheduled
// measurement window; the window's deliveries must match run A exactly.
func TestLinkStreamsIsolated(t *testing.T) {
	const warmup = time.Second
	run := func(priorTraffic bool) []int {
		k := sim.NewKernel(21)
		c := NewChannel(k, DefaultParams(), nil)
		ids := make([]NodeID, 3)
		recv := make([]int, 3)
		for i := range ids {
			i := i
			ids[i] = c.Attach(string(rune('a'+i)), mobility.Fixed{X: float64(i) * 30},
				ReceiverFunc(func(p []byte, info RxInfo) { recv[i]++ }))
		}
		if priorTraffic {
			// Consume the (1,*) and (2,*) link streams before the window.
			for step := 0; step < 20; step++ {
				src := ids[1+step%2]
				if !c.Transmitting(src) {
					c.Broadcast(src, make([]byte, 100), nil)
				}
				k.RunUntil(k.Now() + 10*time.Millisecond)
			}
		}
		k.RunUntil(warmup)
		recv[0], recv[1], recv[2] = 0, 0, 0
		// Identical absolute schedule from node 0 in both runs.
		for step := 0; step < 40; step++ {
			if !c.Transmitting(ids[0]) {
				c.Broadcast(ids[0], make([]byte, 100), nil)
			}
			k.RunUntil(warmup + time.Duration(step+1)*10*time.Millisecond)
		}
		return recv
	}
	a := run(false)
	b := run(true)
	if a[1] != b[1] || a[2] != b[2] {
		t.Fatalf("prior traffic on other links changed (0,*) deliveries: %v vs %v", a, b)
	}
	if a[1] == 0 && a[2] == 0 {
		t.Fatal("measurement window delivered nothing; test is not exercising the links")
	}
}
