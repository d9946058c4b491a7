package radio

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"github.com/vanlan/vifi/internal/mobility"
	"github.com/vanlan/vifi/internal/sim"
)

// runDense drives a compact deployment — every pair well inside the
// cutoff and every link's advertised reach — under the given MaxRangeM and
// returns per-node delivery counts plus channel stats. The lattice
// straddles the origin, so the default cutoff's grid splits it over four
// cells and walks it out of ID order; MaxRangeM = +Inf makes the channel
// reach-less, one cell walked in ID order — a full sweep. With no pair
// ever out of range the grid skips no draws, so both must produce
// identical outcomes from identical seeds.
func runDense(t *testing.T, maxRangeM float64) ([]int, Stats) {
	t.Helper()
	const n = 140
	k := sim.NewKernel(33)
	p := DefaultParams()
	p.MaxRangeM = maxRangeM
	c := NewChannel(k, p, nil) // independent fading links
	recv := make([]int, n)
	for i := 0; i < n; i++ {
		i := i
		// A 12×12-ish lattice, 30 m pitch: max separation ≈ 470 m, far
		// below the ~1 km cutoff and any per-link reach.
		pos := mobility.Point{X: float64(i%12)*30 - 165, Y: float64(i/12)*30 - 165}
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
// determinism contract: as long as no receiver is out of range, a grid of
// many cells and the one-cell grid that is the full sweep draw the same
// per-link coins and deliver the same frames — only the bucket-driven
// iteration order differs, which no outcome depends on.
func TestIndexedMatchesSweepWhenAllInRange(t *testing.T) {
	sweepRecv, sweepStats := runDense(t, math.Inf(1))
	idxRecv, idxStats := runDense(t, 0)
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

// listedIDs returns the receivers of a node's cached candidate list, in
// the order its broadcasts decide them.
func listedIDs(n *node) []NodeID {
	ids := make([]NodeID, len(n.nbr))
	for i, nb := range n.nbr {
		ids[i] = nb.dst.id
	}
	return ids
}

// othersInOrder is every attached node but src, in NodeID order.
func othersInOrder(c *Channel, src NodeID) []NodeID {
	var ids []NodeID
	for id := NodeID(0); int(id) < c.NumNodes(); id++ {
		if id != src {
			ids = append(ids, id)
		}
	}
	return ids
}

// TestSmallCellsDecideInNodeIDOrder: a reach-less FixedLink channel and a
// 12-radio VanLAN cell on default links both decide every receiver of
// every broadcast, in NodeID order — what a full sweep over the attached
// radios decides — while the VanLAN vehicle drives its loop across
// revalidations. The upcalls of each transmission come in that order too.
// The paper figures' bytes rest on it.
func TestSmallCellsDecideInNodeIDOrder(t *testing.T) {
	v := mobility.NewVanLAN()
	for _, tc := range []struct {
		name    string
		factory LinkFactory
	}{
		{"reach-less FixedLink", func(from, to NodeID) LinkModel { return FixedLink(1) }},
		{"VanLAN default links", nil},
	} {
		k := sim.NewKernel(41)
		c := NewChannel(k, DefaultParams(), tc.factory)
		type upcall struct {
			from, to NodeID
			at       time.Duration
		}
		var log []upcall
		attach := func(m mobility.Mover) {
			id := NodeID(c.NumNodes())
			c.Attach(fmt.Sprint(id), m, ReceiverFunc(func(_ []byte, info RxInfo) {
				log = append(log, upcall{info.From, id, k.Now()})
			}))
		}
		for _, bs := range v.BSes {
			attach(mobility.Fixed(bs))
		}
		attach(&mobility.RouteMover{Route: v.Route})
		if c.NumNodes() != 12 {
			t.Fatalf("%s: %d radios, want 12", tc.name, c.NumNodes())
		}
		for step := 0; step < 1500; step++ {
			src := NodeID(step % 12)
			if c.Transmitting(src) {
				continue
			}
			c.Broadcast(src, make([]byte, 100), nil)
			if got, want := listedIDs(c.nodes[src]), othersInOrder(c, src); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: step %d: node %d decides %v, want %v", tc.name, step, src, got, want)
			}
			k.RunUntil(k.Now() + 100*time.Millisecond)
		}
		if veh := c.grid.nodes[11]; tc.factory == nil && veh.deadline < 100*time.Second {
			t.Errorf("%s: vehicle's drift deadline %v after 150 s: it was not revalidated along the loop", tc.name, veh.deadline)
		}
		if len(log) == 0 {
			t.Fatalf("%s: nothing delivered", tc.name)
		}
		for i := 1; i < len(log); i++ {
			if prev := log[i-1]; prev.from == log[i].from && prev.at == log[i].at && prev.to >= log[i].to {
				t.Fatalf("%s: upcalls of one transmission out of NodeID order: %d then %d", tc.name, prev.to, log[i].to)
			}
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
// (trace replays, fixed links) cuts nothing off — it is reach-less, one
// grid cell, and a FixedLink(1) receiver 50 km out still hears every frame
// — unless Params.MaxRangeM states a cutoff.
func TestCustomFactoryNeedsExplicitCutoff(t *testing.T) {
	for _, tc := range []struct {
		maxRangeM float64
		want      int
	}{{0, 1}, {400, 0}} {
		k := sim.NewKernel(15)
		p := DefaultParams()
		p.MaxRangeM = tc.maxRangeM
		c := NewChannel(k, p, func(from, to NodeID) LinkModel { return FixedLink(1) })
		var far int
		a := c.Attach("a", mobility.Fixed{}, nil)
		c.Attach("b", mobility.Fixed{X: 50}, nil)
		c.Attach("c", mobility.Fixed{X: 100}, nil)
		c.Attach("far", mobility.Fixed{X: 50000}, ReceiverFunc(func([]byte, RxInfo) { far++ }))
		if reachLess := math.IsInf(c.cutoff, 1); reachLess != (tc.maxRangeM == 0) {
			t.Fatalf("MaxRangeM %v: cutoff %v", tc.maxRangeM, c.cutoff)
		}
		c.Broadcast(a, make([]byte, 100), nil)
		k.Run()
		if far != tc.want {
			t.Errorf("MaxRangeM %v: 50 km FixedLink(1) receiver got %d frames, want %d", tc.maxRangeM, far, tc.want)
		}
	}
}

// TestReachLessGridIsOneCell: a +Inf cutoff floors every position —
// negative, huge, fractional — to cell (0,0), and a mover on it never gets
// a revalidation deadline: closingTime turns the infinite slack into never
// rather than a Duration conversion of +Inf.
func TestReachLessGridIsOneCell(t *testing.T) {
	g := newGrid(math.Inf(1))
	for _, p := range []mobility.Point{{}, {X: -1e7, Y: 3}, {X: 1e15, Y: -1e15}, {X: -0.5, Y: 0.5}} {
		if key := g.cellKey(p); key != packCell(0, 0) {
			t.Errorf("position %+v in cell %#x, want (0,0)", p, key)
		}
	}
	for _, v := range []float64{1e-9, 11, defaultSpeedBoundMPS, 1e12} {
		if d := closingTime(time.Hour, g.slackM, v); d != never {
			t.Errorf("speed %v: drift deadline %v, want never", v, d)
		}
	}
	k := sim.NewKernel(3)
	c := NewChannel(k, DefaultParams(), func(from, to NodeID) LinkModel { return FixedLink(1) })
	c.Attach("bs", mobility.Fixed{X: -5000}, nil)
	c.Attach("veh", &mobility.RouteMover{Route: mobility.NewVanLAN().Route}, nil)
	if k.Pending() != 0 || c.revalPending {
		t.Errorf("a reach-less channel scheduled a revalidation (%d pending)", k.Pending())
	}
}

// TestIndexedMovingReceiverRevalidation exercises the grid's lazy
// re-bucketing: a vehicle drives out of range (cells away from its
// original bucket) and back; deliveries must stop while it is out and —
// the part a stale bucket would break — resume when it returns.
func TestIndexedMovingReceiverRevalidation(t *testing.T) {
	k := sim.NewKernel(6)
	p := DefaultParams()
	p.MaxRangeM = 200
	c := NewChannel(k, p, func(from, to NodeID) LinkModel { return FixedLink(1) })
	bs := c.Attach("bs", mobility.Fixed{}, nil)
	route := mobility.NewRoute([]mobility.Point{{X: 0}, {X: 1000}}, 50, true)
	var early, mid, late int
	c.Attach("veh", &mobility.RouteMover{Route: route}, ReceiverFunc(func([]byte, RxInfo) {
		switch at := k.Now(); {
		case at < 3*time.Second:
			early++
		case at > 17*time.Second && at < 23*time.Second:
			mid++ // vehicle parked ~1 km out (far end of the loop)
		case at > 37*time.Second:
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
		p.MaxRangeM = 200 // 250 m cells
		c := NewChannel(k, p, func(from, to NodeID) LinkModel { return FixedLink(1) })
		bs := c.Attach("bs", mobility.Fixed{}, nil)
		route := mobility.NewRoute([]mobility.Point{{X: 1000}, {X: 0}}, 50, false)
		var far, near int
		m := &mobility.RouteMover{Route: route}
		veh := c.Attach("veh", advertising{m, bad}, ReceiverFunc(func([]byte, RxInfo) {
			// The distance the frame was decided at: it left airtime ago.
			if m.Position(k.Now()-Airtime(100)).Dist(mobility.Point{}) > p.MaxRangeM {
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
		if l.Shadow() < 4*shadowSigmaM && reach > p.CutoffM() {
			t.Fatalf("link %d: reach %.0f m exceeds channel cutoff %.0f m at %.1f m shadow",
				i, reach, p.CutoffM(), l.Shadow())
		}
	}
}

// TestCaptureMarginBoundary pins the collision arithmetic at the exact
// capture threshold. Settled readings (u = 1: the noise is spent, so the
// level is the base) exactly captureDB apart sit on the >= of captures,
// which decides both the capture and the survival branch of deliver: the
// stronger frame takes the receiver whichever came first. A dB short of the
// margin, neither frame clears it — mutual destruction. The levels are
// whole dB, so every sum and difference here is exact.
func TestCaptureMarginBoundary(t *testing.T) {
	settled := func(level float64) *reading { return &reading{base: level, u: 1} }
	for _, tc := range []struct {
		strong, weak float64
		captures     bool
	}{
		{-60, -60 - captureDB, true},
		{-61, -60 - captureDB, false},
		{-20, -20 - captureDB, true},
		{-95, -95 - captureDB, true},
	} {
		strong, weak := settled(tc.strong), settled(tc.weak)
		if got := strong.captures(weak); got != tc.captures {
			t.Errorf("%v dBm over %v dBm: captures = %v, want %v", tc.strong, tc.weak, got, tc.captures)
		}
		if weak.captures(strong) {
			t.Errorf("%v dBm over %v dBm: the weaker frame captures", tc.weak, tc.strong)
		}
		if strong.u != 1 || weak.u != 1 || strong.base != tc.strong || weak.base != tc.weak {
			t.Errorf("%v dBm over %v dBm: captures moved a settled reading", tc.strong, tc.weak)
		}
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
	for r := c.freeRx; r != nil; r = r.next {
		if r == r1 {
			t.Fatal("the record locking the receiver is on the free list")
		}
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

// TestLinksInstantiateOnFirstContact pins the one link-table layout with
// and without a cutoff: attaching builds no link state at any population,
// and traffic instantiates exactly the directed pairs a frame can use —
// every other node on a reach-less factory channel, the ones within their
// own link's reach on a reach-less fading channel, the ones within the
// cutoff and their reach otherwise — each once.
func TestLinksInstantiateOnFirstContact(t *testing.T) {
	// 8 nodes 600 m apart: only node 1 is within node 0's ≈1060 m cutoff,
	// and within the ≈970 m a default link reaches.
	for _, tc := range []struct {
		name      string
		maxRangeM float64
		factory   LinkFactory
		want      int
	}{
		{"reach-less", 0, func(from, to NodeID) LinkModel { return FixedLink(1) }, 7},
		{"reach-less fading", math.Inf(1), nil, 1},
		{"cutoff", 0, nil, 1},
	} {
		k := sim.NewKernel(11)
		p := DefaultParams()
		p.MaxRangeM = tc.maxRangeM
		c := NewChannelSized(k, p, tc.factory, 8)
		for i := 0; i < 8; i++ {
			c.Attach("n", mobility.Fixed{X: float64(i) * 600}, nil)
		}
		if n := len(links(c)); n != 0 {
			t.Fatalf("%s: %d links before any traffic", tc.name, n)
		}
		for rep := 0; rep < 2; rep++ { // the repeat finds every link in place
			c.Broadcast(0, make([]byte, 50), nil)
			k.Run()
		}
		all := links(c)
		if len(all) != tc.want || c.built != tc.want {
			t.Fatalf("%s: %d links (%d built) after node 0 broadcast to 7 peers, want %d", tc.name, len(all), c.built, tc.want)
		}
		for key, ls := range all {
			if from := key >> 32; from != 0 {
				t.Fatalf("%s: link from %d instantiated, only node 0 transmitted", tc.name, from)
			}
			if d := float64(uint32(key)) * 600; d > c.cutoff || d > ls.reach {
				t.Fatalf("%s: link to a node %.0f m away, beyond the %.0f m cutoff or its %.0f m reach", tc.name, d, c.cutoff, ls.reach)
			}
		}
	}
}

// TestAttachMidTrafficMatchesSizeHint: radios attached between broadcasts
// join the grid at once and every stale candidate list is rebuilt over the
// same link table, so a channel told the final size up front is
// indistinguishable from one that was not.
func TestAttachMidTrafficMatchesSizeHint(t *testing.T) {
	run := func(hint int) Stats {
		k := sim.NewKernel(12)
		p := DefaultParams()
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
				drive(9, 12)
			}
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
