package radio

import (
	"math"
	"testing"
	"time"

	"github.com/vanlan/vifi/internal/mobility"
	"github.com/vanlan/vifi/internal/sim"
)

// runDense drives a compact deployment — every pair well inside the
// cutoff and every link's advertised reach — under the given index
// threshold and returns per-node delivery counts plus channel stats.
// With no pair ever out of range the indexed path skips no draws, so
// forcing the threshold low (indexed) or high (full sweep) must produce
// identical outcomes from identical seeds.
func runDense(t *testing.T, threshold int) ([]int, Stats) {
	t.Helper()
	const n = 140
	k := sim.NewKernel(33)
	p := DefaultParams()
	p.IndexThresholdNodes = threshold
	c := NewChannel(k, p, nil) // independent fading links
	recv := make([]int, n)
	for i := 0; i < n; i++ {
		i := i
		// A 12×12-ish lattice, 30 m pitch: max separation ≈ 470 m, far
		// below the ~1 km cutoff and any per-link reach.
		pos := mobility.Point{X: float64(i%12) * 30, Y: float64(i/12) * 30}
		c.Attach(string(rune('A'+i%26)), mobility.Fixed(pos), ReceiverFunc(func([]byte, RxInfo) { recv[i]++ }))
	}
	payload := make([]byte, 120)
	for step := 0; step < 60; step++ {
		src := NodeID((step * 7) % n)
		if !c.Transmitting(src) {
			c.Broadcast(src, payload, nil)
		}
		k.RunUntil(k.Now() + 5*time.Millisecond)
	}
	k.Run()
	return recv, c.Stats()
}

// TestIndexedMatchesSweepWhenAllInRange is the equivalence half of the
// determinism contract: as long as no receiver is out of range, the
// spatially indexed path and the historical full sweep draw the same
// per-link coins and deliver the same frames — only the bucket-driven
// iteration order differs, which no outcome depends on.
func TestIndexedMatchesSweepWhenAllInRange(t *testing.T) {
	sweepRecv, sweepStats := runDense(t, 1000) // threshold above N: full sweep
	idxRecv, idxStats := runDense(t, 8)        // threshold below N: indexed
	if sweepStats != idxStats {
		t.Errorf("stats diverged: sweep %+v vs indexed %+v", sweepStats, idxStats)
	}
	if sweepStats.Deliveries == 0 {
		t.Fatal("workload delivered nothing; test is vacuous")
	}
	for i := range sweepRecv {
		if sweepRecv[i] != idxRecv[i] {
			t.Fatalf("node %d deliveries diverged: sweep %d vs indexed %d", i, sweepRecv[i], idxRecv[i])
		}
	}
}

// TestIndexedSkipsOutOfRange pins the cutoff semantics of the indexed
// path: receivers beyond Params.MaxRangeM never receive, never consume
// link randomness, and never appear in the loss statistics, while
// in-range receivers behave normally.
func TestIndexedSkipsOutOfRange(t *testing.T) {
	k := sim.NewKernel(5)
	p := DefaultParams()
	p.IndexThresholdNodes = 2
	p.MaxRangeM = 400
	c := NewChannel(k, p, func(from, to NodeID) LinkModel { return FixedLink(1) })
	var near, far int
	a := c.Attach("a", mobility.Fixed{}, nil)
	c.Attach("near", mobility.Fixed{X: 100}, ReceiverFunc(func([]byte, RxInfo) { near++ }))
	c.Attach("far", mobility.Fixed{X: 5000}, ReceiverFunc(func([]byte, RxInfo) { far++ }))
	for i := 0; i < 10; i++ {
		c.Broadcast(a, make([]byte, 100), nil)
		k.Run()
	}
	if near != 10 {
		t.Errorf("in-range receiver got %d frames, want 10", near)
	}
	if far != 0 {
		t.Errorf("receiver 5 km out decoded %d frames through a 400 m cutoff", far)
	}
	st := c.Stats()
	if st.ChannelLosses != 0 {
		t.Errorf("skipped out-of-range receivers were counted as channel losses: %+v", st)
	}
	if st.Deliveries != 10 {
		t.Errorf("deliveries = %d, want 10", st.Deliveries)
	}
}

// TestCustomFactoryNeedsExplicitCutoff pins the opt-in rule for custom
// link factories: the fading-derived cutoff describes only the default
// factory's links, so a channel whose factory installs its own models
// (trace replays, fixed links) keeps the full sweep at any population —
// long-range deliveries must not silently vanish when a fleet crosses
// the index threshold — unless Params.MaxRangeM states a cutoff.
func TestCustomFactoryNeedsExplicitCutoff(t *testing.T) {
	k := sim.NewKernel(15)
	p := DefaultParams()
	p.IndexThresholdNodes = 4
	c := NewChannel(k, p, func(from, to NodeID) LinkModel { return FixedLink(1) })
	var far int
	a := c.Attach("a", mobility.Fixed{}, nil)
	c.Attach("b", mobility.Fixed{X: 50}, nil)
	c.Attach("c", mobility.Fixed{X: 100}, nil)
	c.Attach("far", mobility.Fixed{X: 50000}, ReceiverFunc(func([]byte, RxInfo) { far++ }))
	if c.indexed() {
		t.Fatal("custom factory without MaxRangeM must not engage the indexed path")
	}
	c.Broadcast(a, make([]byte, 100), nil)
	k.Run()
	if far != 1 {
		t.Errorf("50 km FixedLink(1) receiver got %d frames, want 1 (full sweep)", far)
	}
}

// TestIndexedMovingReceiverRevalidation exercises the grid's lazy
// re-bucketing: a vehicle drives out of range (cells away from its
// original bucket) and back; deliveries must stop while it is out and —
// the part a stale bucket would break — resume when it returns.
func TestIndexedMovingReceiverRevalidation(t *testing.T) {
	k := sim.NewKernel(6)
	p := DefaultParams()
	p.IndexThresholdNodes = 2
	p.MaxRangeM = 200
	p.SenseRangeM = 100
	c := NewChannel(k, p, func(from, to NodeID) LinkModel { return FixedLink(1) })
	bs := c.Attach("bs", mobility.Fixed{}, nil)
	route := mobility.NewRoute([]mobility.Point{{X: 0}, {X: 1000}}, 50, true)
	var early, mid, late int
	c.Attach("veh", &mobility.RouteMover{Route: route}, ReceiverFunc(func(_ []byte, info RxInfo) {
		switch {
		case info.At < 3*time.Second:
			early++
		case info.At > 17*time.Second && info.At < 23*time.Second:
			mid++ // vehicle parked ~1 km out (far end of the loop)
		case info.At > 37*time.Second:
			late++ // back within 150 m of the basestation
		}
	}))
	deadline := 40 * time.Second
	var tick func()
	tick = func() {
		if k.Now() >= deadline {
			return
		}
		if !c.Transmitting(bs) {
			c.Broadcast(bs, make([]byte, 100), nil)
		}
		k.After(100*time.Millisecond, tick)
	}
	k.After(0, tick)
	k.RunUntil(deadline)
	if early == 0 {
		t.Error("no receptions while the vehicle started in range")
	}
	if mid != 0 {
		t.Errorf("%d receptions at ~1 km through a 200 m cutoff", mid)
	}
	if late == 0 {
		t.Error("no receptions after the vehicle returned: stale grid bucket lost it")
	}
}

// TestUnusableSpeedBoundIsUnknown: a mover whose advertised bound is not
// >= 0 has promised nothing. Taken at its word it would be bucketed once
// with no revalidation deadline and lost on leaving its cell — and taken
// for a fixed radio by the candidate lists. It must be handled as a mover
// with the default bound: driving in from four cells out, it is received
// once it arrives.
func TestUnusableSpeedBoundIsUnknown(t *testing.T) {
	for _, bad := range []float64{-1, math.NaN(), math.Inf(-1)} {
		k := sim.NewKernel(6)
		p := DefaultParams()
		p.IndexThresholdNodes = 2
		p.MaxRangeM = 200 // 250 m cells
		c := NewChannel(k, p, func(from, to NodeID) LinkModel { return FixedLink(1) })
		bs := c.Attach("bs", mobility.Fixed{}, nil)
		route := mobility.NewRoute([]mobility.Point{{X: 1000}, {X: 0}}, 50, false)
		var far, near int
		veh := c.Attach("veh", advertising{&mobility.RouteMover{Route: route}, bad}, ReceiverFunc(func(_ []byte, info RxInfo) {
			if info.Dist > p.MaxRangeM {
				far++
			}
			near++
		}))
		if got := c.nodes[veh].speed; got != defaultSpeedBoundMPS {
			t.Errorf("advertised %v: speed bound %v, want the default %v", bad, got, defaultSpeedBoundMPS)
		}
		for now := time.Duration(0); now < 25*time.Second; now += 100 * time.Millisecond {
			k.RunUntil(now)
			c.Broadcast(bs, make([]byte, 100), nil)
		}
		k.RunUntil(26 * time.Second)
		if near == 0 {
			t.Errorf("advertised %v: no receptions after the vehicle crossed four cells to the basestation", bad)
		}
		if far != 0 {
			t.Errorf("advertised %v: %d receptions through the 200 m cutoff", bad, far)
		}
	}
}

// TestFadingLinkAdvertisesRange pins the Ranged contract: the advertised
// reach brackets the model — negligible reception just beyond it, and a
// channel-level cutoff (CutoffM with default params) at least as far as
// any plausibly-shadowed link's reach.
func TestFadingLinkAdvertisesRange(t *testing.T) {
	k := sim.NewKernel(7)
	p := DefaultParams()
	for i := 0; i < 50; i++ {
		l := NewFadingLink(p, k.RNG("rng", string(rune('a'+i))))
		reach := l.MaxRangeM()
		if pr := l.ReceiveProb(0, reach+1); pr > 1e-8 {
			t.Fatalf("link %d: ReceiveProb just past advertised reach = %v, want ≈0", i, pr)
		}
		if l.Shadow() < 4*p.ShadowSigmaM && reach > p.CutoffM() {
			t.Fatalf("link %d: reach %.0f m exceeds channel cutoff %.0f m at %.1f m shadow",
				i, reach, p.CutoffM(), l.Shadow())
		}
	}
}

// TestCaptureMarginBoundary pins the collision arithmetic at the exact
// capture threshold. With noise disabled and distances 1 m vs 10 m at
// path-loss exponent 3, the RSSI gap is exactly 30 dB, so CaptureDB=30
// sits precisely on the >= boundary of both branches.
func TestCaptureMarginBoundary(t *testing.T) {
	build := func(captureDB float64) (*Channel, *sim.Kernel, NodeID, NodeID, *collector) {
		k := sim.NewKernel(8)
		p := DefaultParams()
		p.RSSINoiseDB = 0
		p.PathLossExp = 3
		p.CaptureDB = captureDB
		c := NewChannel(k, p, func(from, to NodeID) LinkModel { return FixedLink(1) })
		var rx collector
		strong := c.Attach("strong", mobility.Fixed{X: 1}, nil)
		weak := c.Attach("weak", mobility.Fixed{X: 10}, nil)
		c.Attach("r", mobility.Fixed{}, &rx)
		return c, k, strong, weak, &rx
	}

	// New frame exactly CaptureDB stronger than the locked one: captures.
	c, k, strong, weak, rx := build(30)
	c.Broadcast(weak, make([]byte, 500), nil)
	c.Broadcast(strong, make([]byte, 500), nil)
	k.Run()
	if len(rx.frames) != 1 || rx.frames[0].From != strong {
		t.Fatalf("exact-margin capture failed: got %+v, want 1 frame from %v", rx.frames, strong)
	}
	if got := c.Stats().Collisions; got != 1 {
		t.Errorf("exact-margin capture collisions = %d, want 1 (the displaced frame)", got)
	}

	// Locked frame exactly CaptureDB stronger than the newcomer: survives.
	c, k, strong, weak, rx = build(30)
	c.Broadcast(strong, make([]byte, 500), nil)
	c.Broadcast(weak, make([]byte, 500), nil)
	k.Run()
	if len(rx.frames) != 1 || rx.frames[0].From != strong {
		t.Fatalf("exact-margin survival failed: got %+v, want 1 frame from %v", rx.frames, strong)
	}
	if got := c.Stats().Collisions; got != 1 {
		t.Errorf("exact-margin survival collisions = %d, want 1 (the rejected newcomer)", got)
	}

	// One dB over the gap: neither side clears the margin — mutual
	// destruction, both frames counted.
	c, k, strong, weak, rx = build(31)
	c.Broadcast(weak, make([]byte, 500), nil)
	c.Broadcast(strong, make([]byte, 500), nil)
	k.Run()
	if len(rx.frames) != 0 {
		t.Fatalf("mutual destruction delivered %d frames", len(rx.frames))
	}
	if got := c.Stats().Collisions; got != 2 {
		t.Errorf("mutual destruction collisions = %d, want 2 (both frames)", got)
	}
}

// TestSetCurRecyclesDisplacedRecord pins the pooling invariant of the
// reception table: a lost frame's record (never handed to a txEnd) parks
// on the receiver as cur, is recycled to the free list the moment a later
// frame displaces it, and is handed out again by the next allocation — one
// record serves an unbounded lossy stream.
func TestSetCurRecyclesDisplacedRecord(t *testing.T) {
	k := sim.NewKernel(9)
	c := NewChannel(k, DefaultParams(), func(from, to NodeID) LinkModel { return FixedLink(0) })
	a := c.Attach("a", mobility.Fixed{}, nil)
	c.Attach("b", mobility.Fixed{X: 10}, nil)
	b := c.nodes[1]

	c.Broadcast(a, make([]byte, 64), nil)
	k.Run()
	r1 := b.cur
	if r1 == nil {
		t.Fatal("lost frame left no locking reception record")
	}
	if r1.scheduled || r1.ok {
		t.Fatalf("lost record in wrong state: scheduled=%v ok=%v", r1.scheduled, r1.ok)
	}
	if c.freeRx != nil {
		t.Fatal("free list should be empty while the record locks the receiver")
	}

	c.Broadcast(a, make([]byte, 64), nil)
	if c.freeRx != r1 {
		t.Fatal("displaced unscheduled record was not recycled to the free list")
	}
	r2 := b.cur
	if r2 == r1 {
		t.Fatal("displaced record still installed as cur")
	}
	k.Run()

	c.Broadcast(a, make([]byte, 64), nil)
	if b.cur != r1 {
		t.Fatal("next allocation did not reuse the recycled record")
	}
	k.Run()
	if got := c.Stats().ChannelLosses; got != 3 {
		t.Errorf("channel losses = %d, want 3", got)
	}
}

// TestLinksInstantiateOnFirstContact pins the one link-table layout on
// both sides of the index threshold: attaching builds no link state at
// any population, and traffic instantiates exactly the directed pairs it
// uses — every other node on the full sweep, the in-range ones only on
// the indexed path.
func TestLinksInstantiateOnFirstContact(t *testing.T) {
	// 8 nodes 600 m apart: only node 1 is within node 0's ≈1060 m cutoff.
	for _, tc := range []struct {
		name      string
		threshold int
		indexed   bool
		want      int
	}{
		{"sweep", 16, false, 7},
		{"indexed", 4, true, 1},
	} {
		k := sim.NewKernel(11)
		p := DefaultParams()
		p.IndexThresholdNodes = tc.threshold
		c := NewChannelSized(k, p, nil, 8)
		for i := 0; i < 8; i++ {
			c.Attach("n", mobility.Fixed{X: float64(i) * 600}, nil)
		}
		if c.Indexed() != tc.indexed {
			t.Fatalf("%s: Indexed() = %v", tc.name, c.Indexed())
		}
		if len(c.lazy) != 0 {
			t.Fatalf("%s: %d links before any traffic", tc.name, len(c.lazy))
		}
		for rep := 0; rep < 2; rep++ { // the repeat finds every link in place
			c.Broadcast(0, make([]byte, 50), nil)
			k.Run()
		}
		if len(c.lazy) != tc.want {
			t.Fatalf("%s: %d links after node 0 broadcast to 7 peers, want %d", tc.name, len(c.lazy), tc.want)
		}
		for key := range c.lazy {
			if from := key >> 32; from != 0 {
				t.Fatalf("%s: link from %d instantiated, only node 0 transmitted", tc.name, from)
			}
			if d := float64(uint32(key)) * 600; tc.indexed && d > c.cutoff {
				t.Fatalf("%s: link to a node %.0f m away, beyond the %.0f m cutoff", tc.name, d, c.cutoff)
			}
		}
	}
}

// TestThresholdCrossingMigratesLazy pins the mid-attach sweep→index
// switch: traffic before the crossing instantiates links on the sweep,
// traffic after it runs indexed over the same table, and a channel told
// the final size up front is indistinguishable from one that was not.
func TestThresholdCrossingMigratesLazy(t *testing.T) {
	run := func(hint int) Stats {
		k := sim.NewKernel(12)
		p := DefaultParams()
		p.IndexThresholdNodes = 10
		var c *Channel
		if hint > 0 {
			c = NewChannelSized(k, p, nil, hint)
		} else {
			c = NewChannel(k, p, nil)
		}
		drive := func(n, steps int) {
			for step := 0; step < steps; step++ {
				src := NodeID(step % n)
				if !c.Transmitting(src) {
					c.Broadcast(src, make([]byte, 80), nil)
				}
				k.RunUntil(k.Now() + 3*time.Millisecond)
			}
		}
		for i := 0; i < 20; i++ {
			c.Attach("n", mobility.Fixed{X: float64(i) * 25}, nil)
			if i == 8 {
				if c.Indexed() {
					t.Fatal("channel indexed below the threshold")
				}
				drive(9, 12)
			}
		}
		if !c.Indexed() {
			t.Fatal("channel past the threshold still sweeps")
		}
		drive(20, 30)
		k.Run()
		return c.Stats()
	}
	unhinted := run(0)
	hinted := run(20)
	if unhinted != hinted {
		t.Errorf("hinted and un-hinted channels diverged: %+v vs %+v", unhinted, hinted)
	}
	if unhinted.Deliveries == 0 {
		t.Error("no frame was delivered")
	}
}
