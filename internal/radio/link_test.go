package radio

import (
	"fmt"
	"maps"
	"math"
	"reflect"
	"testing"
	"time"
	"unsafe"

	"github.com/vanlan/vifi/internal/mobility"
	"github.com/vanlan/vifi/internal/sim"
)

// This file pins the two properties of the per-pair state that no report
// can show because they must not show: the link streams are the labelled
// streams they always were, and everything the channel remembers about a
// pair's geometry (memoized arithmetic, pre-filtered candidate lists,
// kinetic skip windows) yields exactly what recomputing it every frame does.

// linkOf returns the directed pair's link where the channel keeps it — a
// fixed pair's in its transmitter's candidate list, any other pair's in
// the pair map — or nil when the pair has none.
func linkOf(c *Channel, from, to NodeID) *linkState {
	for _, nb := range c.nodes[from].nbr {
		if nb.fixed && nb.dst.id == to {
			return nb.ls
		}
	}
	return c.lazy[pairKey(from, to)]
}

// links returns every link the channel keeps, keyed like the pair map.
func links(c *Channel) map[uint64]*linkState {
	all := maps.Clone(c.lazy)
	for _, n := range c.nodes {
		for _, nb := range n.nbr {
			if nb.fixed {
				all[pairKey(n.id, nb.dst.id)] = nb.ls
			}
		}
	}
	return all
}

// TestLinkStreamsMatchLabels: a link's three embedded streams are the ones
// k.RNG("link"|"loss"|"rssi", from, to) yields. After one broadcast from
// node 10 every (10, j) link must show the labelled shadow, have spent
// exactly one RSSI-noise variate and one loss coin, and have decided the
// frame by that coin.
func TestLinkStreamsMatchLabels(t *testing.T) {
	k := sim.NewKernel(31)
	p := DefaultParams()
	c := NewChannel(k, p, nil)
	const n, src = 12, NodeID(10)
	for i := 0; i < n; i++ {
		c.Attach("n", mobility.Fixed{X: float64(i) * 20}, nil)
	}
	c.Broadcast(src, make([]byte, 100), nil)
	for j := NodeID(0); j < n; j++ {
		if j == src {
			continue
		}
		from, to := fmt.Sprint(int(src)), fmt.Sprint(int(j))
		ls := linkOf(c, src, j)
		if ls == nil {
			t.Fatalf("no link %d→%d after the broadcast", src, j)
		}
		dist := math.Abs(float64(src-j)) * 20
		twin := NewFadingLink(p, k.RNG("link", from, to))
		if ls.fading.shadow != twin.Shadow() {
			t.Errorf("link %d→%d shadow %v, labelled stream gives %v", src, j, ls.fading.shadow, twin.Shadow())
		}
		pr := twin.ReceiveProb(0, dist)
		noise, loss := k.RNG("rssi", from, to), k.RNG("loss", from, to)
		rssi := RSSIBase(dist) + noise.NormFloat64()*RSSINoiseDB
		coin := loss.Float64()
		rx := c.nodes[j].cur
		if rx == nil {
			t.Fatalf("node %d holds no reception record", j)
		}
		if got := rx.level(); got != rssi {
			t.Errorf("link %d→%d RSSI %v, labelled noise gives %v", src, j, got, rssi)
		}
		if rx.ok != (coin < pr) {
			t.Errorf("link %d→%d decided %v, labelled coin %v against p=%v says %v", src, j, rx.ok, coin, pr, coin < pr)
		}
		if ls.noise != *noise || ls.loss != *loss {
			t.Errorf("link %d→%d streams are not one draw into the labelled ones", src, j)
		}
	}
}

// TestLinkIsOneAllocation: links are carved from slab chunks, so a link
// costs a small fraction of an allocation — the chunk, the link table's
// growth and a factory's model table, all amortized — and a frame over
// materialized links costs none (TestChannelDeliveryAllocFree).
func TestLinkIsOneAllocation(t *testing.T) {
	for _, tc := range []struct {
		name    string
		factory LinkFactory
	}{
		{"fading", nil},
		{"custom", func(from, to NodeID) LinkModel { return FixedLink(1) }},
	} {
		c := NewChannel(sim.NewKernel(1), DefaultParams(), tc.factory)
		for i := 0; i < 40; i++ {
			c.Attach("n", mobility.Fixed{X: float64(i)}, nil)
		}
		next := NodeID(0)
		allocs := testing.AllocsPerRun(1500, func() {
			next++
			c.link(next, next+100000)
		})
		if allocs > 1.0/32 {
			t.Errorf("%s: materializing a link allocates %.3f objects, want ≤ 1/32", tc.name, allocs)
		}
		if len(c.lazy) < 1500 {
			t.Fatalf("%s: only %d links materialized", tc.name, len(c.lazy))
		}
	}
	// A standalone link (trace generation, the fig6 runners) holds its
	// Params by value: one object too.
	p, rng := DefaultParams(), sim.NewRNG(1)
	var l *FadingLink
	if allocs := testing.AllocsPerRun(100, func() { l = NewFadingLink(p, rng) }); allocs != 1 {
		t.Errorf("NewFadingLink allocates %.0f objects, want 1", allocs)
	}
	if l.p != p {
		t.Error("NewFadingLink must keep its Params")
	}
}

// TestLinkLayout pins what "the hot state in two cache lines" rests on: the
// fields a decision that delivers nothing reads end within the first 128
// bytes of a linkState, a linkState is a whole number of cache lines, and
// the slab hands links out on cache-line boundaries whatever the chunk size
// — a cell of a few radios, a dozen, and a population that fills chunks.
func TestLinkLayout(t *testing.T) {
	const line, hot = 64, 2 * 64
	var ls linkState
	for name, end := range map[string]uintptr{
		"loss":        unsafe.Offsetof(ls.loss) + unsafe.Sizeof(ls.loss),
		"noise":       unsafe.Offsetof(ls.noise) + unsafe.Sizeof(ls.noise),
		"rssiAt":      unsafe.Offsetof(ls.rssiAt) + unsafe.Sizeof(ls.rssiAt),
		"rssiBase":    unsafe.Offsetof(ls.rssiBase) + unsafe.Sizeof(ls.rssiBase),
		"fading.mean": unsafe.Offsetof(ls.fading) + unsafe.Offsetof(ls.fading.mean) + unsafe.Sizeof(ls.fading.mean),
		"fading.ge":   unsafe.Offsetof(ls.fading) + unsafe.Offsetof(ls.fading.ge) + unsafe.Sizeof(ls.fading.ge),
		"fading.gray": unsafe.Offsetof(ls.fading) + unsafe.Offsetof(ls.fading.gray) + unsafe.Sizeof(ls.fading.gray),
	} {
		if end > hot {
			t.Errorf("%s ends at byte %d of linkState, beyond the %d hot bytes", name, end, hot)
		}
	}
	if off := unsafe.Offsetof(ls.fading) + unsafe.Offsetof(ls.fading.meanAt); off >= hot {
		t.Errorf("fading.meanAt at byte %d", off)
	}
	if size := unsafe.Sizeof(ls); size%line != 0 {
		t.Errorf("linkState is %d bytes, not a whole number of %d-byte lines", size, line)
	}
	for _, n := range []int{2, 3, 5, 12, 13, 40, 200} {
		c := NewChannel(sim.NewKernel(1), DefaultParams(), nil)
		for i := 0; i < n; i++ {
			c.Attach("n", mobility.Fixed{X: float64(i)}, nil)
		}
		for from := NodeID(0); int(from) < n; from++ {
			for to := NodeID(0); int(to) < min(n, 30); to++ {
				if from == to {
					continue
				}
				if addr := uintptr(unsafe.Pointer(c.link(from, to))); addr%line != 0 {
					t.Fatalf("%d nodes: link %d→%d at %#x, %d bytes past a line", n, from, to, addr, addr%line)
				}
			}
		}
	}
}

// scripted is a mover that reports one X coordinate per elapsed second.
type scripted []float64

func (s scripted) Position(t time.Duration) mobility.Point {
	return mobility.Point{X: s[int(t/time.Second)]}
}

// TestMemoIsKeyedOnDistance drives one link through the distance sequence
// a, a, b, a, NaN, a — hit, miss, miss back to an old key, the key that
// never equals itself, and the miss after it — and compares every
// reception probability and RSSI base, bit for bit, with an oracle that has no memo:
// a twin link on the same labelled stream supplies the burst and gray
// state, and the distance arithmetic is recomputed here every time.
func TestMemoIsKeyedOnDistance(t *testing.T) {
	k := sim.NewKernel(17)
	p := DefaultParams()
	c := NewChannel(k, p, nil)
	const a, b = 120.0, 260.5
	seq := scripted{a, a, b, a, math.NaN(), a}
	c.Attach("origin", mobility.Fixed{}, nil)
	c.Attach("scripted", seq, nil)
	twin := NewFadingLink(p, k.RNG("link", "0", "1"))
	ls := c.link(0, 1)
	for i, d := range seq {
		now := time.Duration(i) * time.Second
		k.RunUntil(now)
		want := p.meanReception(d, twin.shadow)
		twin.advance(twin.rng, now)
		if twin.ge.on {
			want *= goodMult
		} else {
			want *= badMult
		}
		if twin.gray.on {
			want *= grayMult
		}
		if want > 1 {
			want = 1
		}
		if got := receiveProb(c, 0, 1); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("step %d (d=%v): reception probability = %v, memo-free oracle %v", i, d, got, want)
		}
		if got, want := ls.rssi(d), RSSIBase(d); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("step %d (d=%v): RSSI base = %v, memo-free oracle %v", i, d, got, want)
		}
	}
}

// unadvertised hides a mover's SpeedBounded: the channel must treat it as
// able to move (default bound) and take the per-frame path for its pairs.
type unadvertised struct{ m mobility.Mover }

func (u unadvertised) Position(t time.Duration) mobility.Point { return u.m.Position(t) }

// advertising overrides the bound a mover advertises.
type advertising struct {
	mobility.Mover
	mps float64
}

func (a advertising) MaxSpeedMPS() float64 { return a.mps }

// runStatic drives a 200-radio indexed deployment — 190 basestations on a
// lattice many cutoffs wide and 10 vehicles driving through — for 2 000
// broadcasts with overlapping airtimes and SetDown/SetUp toggles, and
// returns every node's reception log plus the channel stats. advertise
// selects how the basestations are attached: as mobility.Fixed (resolved at
// list build) or as the same points behind a mover that advertises nothing.
func runStatic(t *testing.T, advertise bool, lanes int) ([][]heard, Stats) {
	t.Helper()
	const fixed, movers, n = 190, 10, 200
	k := sim.NewKernel(91)
	c := NewChannelSized(k, DefaultParams(), nil, n)
	logs := make([][]heard, n)
	attach := func(i int, m mobility.Mover) {
		c.Attach(fmt.Sprint(i), m, ReceiverFunc(func(_ []byte, info RxInfo) {
			logs[i] = append(logs[i], heard{info.From, k.Now()})
		}))
	}
	for i := 0; i < fixed; i++ {
		var m mobility.Mover = mobility.Fixed{X: float64(i%19) * 310, Y: float64(i/19) * 290}
		if !advertise {
			m = unadvertised{m}
		}
		attach(i, m)
	}
	for i := 0; i < movers; i++ {
		y := float64(i) * 280
		route := mobility.NewRoute([]mobility.Point{{X: -1500, Y: y}, {X: 7000, Y: y}}, 45, true)
		attach(fixed+i, &mobility.RouteMover{Route: route})
	}
	if lanes > 1 && c.StartShards(lanes) != lanes {
		t.Fatalf("StartShards(%d) did not engage", lanes)
	}
	defer c.StopShards()
	payload := make([]byte, 200)
	for step := 0; step < 1000; step++ {
		if step%50 == 0 {
			c.SetDown(NodeID((step*7 + 5) % n))
		}
		if step%50 == 25 {
			c.SetUp(NodeID(((step-25)*7 + 5) % n))
		}
		for _, src := range []NodeID{NodeID((step * 13) % n), NodeID((step*31 + 9) % n)} {
			if !c.Transmitting(src) {
				c.Broadcast(src, payload, nil)
			}
		}
		k.RunUntil(k.Now() + 40*time.Millisecond)
	}
	k.RunUntil(k.Now() + time.Second)
	return logs, c.Stats()
}

// TestFixedPairMatchesUnadvertisedStatic is the invisibility bar for the
// fixed-pair fast path: the same city yields the same delivery logs
// (sender and upcall time of every frame) and Stats whether its basestations
// say they are fixed or merely happen not to move, serially and on two
// delivery lanes.
func TestFixedPairMatchesUnadvertisedStatic(t *testing.T) {
	wantLogs, wantStats := runStatic(t, false, 1)
	if wantStats.Transmissions < 1900 || wantStats.Deliveries == 0 || wantStats.Collisions == 0 || wantStats.HalfDuplex == 0 {
		t.Fatalf("workload too tame to pin the fast path: %+v", wantStats)
	}
	for _, tc := range []struct {
		advertise bool
		lanes     int
	}{{true, 1}, {true, 2}, {false, 2}} {
		logs, stats := runStatic(t, tc.advertise, tc.lanes)
		if stats != wantStats {
			t.Errorf("advertise=%v lanes=%d: stats %+v, per-frame serial path %+v", tc.advertise, tc.lanes, stats, wantStats)
		}
		for i := range logs {
			if !reflect.DeepEqual(logs[i], wantLogs[i]) {
				t.Fatalf("advertise=%v lanes=%d: node %d reception log diverged (%d vs %d entries)",
					tc.advertise, tc.lanes, i, len(logs[i]), len(wantLogs[i]))
			}
		}
	}
}

// TestFixedCandidatesArePrefiltered: on the indexed path a fixed
// transmitter's list holds exactly the fixed nodes within both the channel
// cutoff and their link's reach (each with its distance and link in
// place), every mover of the neighborhood, and links exist only for pairs
// within the cutoff and their reach — owned by the list, none of them in
// the pair map.
func TestFixedCandidatesArePrefiltered(t *testing.T) {
	k := sim.NewKernel(23)
	p := DefaultParams()
	c := NewChannelSized(k, p, nil, 200)
	const fixed = 199
	for i := 0; i < fixed; i++ {
		c.Attach("bs", mobility.Fixed{X: float64(i%20) * 240, Y: float64(i/20) * 240}, nil)
	}
	route := mobility.NewRoute([]mobility.Point{{X: 2400, Y: 1300}, {X: 4000, Y: 1300}}, 10, true)
	veh := c.Attach("veh", &mobility.RouteMover{Route: route}, nil)
	src := c.nodes[105] // lattice interior
	srcPos := src.mover.Position(0)
	c.Broadcast(src.id, make([]byte, 100), nil)

	listed := map[NodeID]*nbrEntry{}
	for i := range src.nbr {
		listed[src.nbr[i].dst.id] = &src.nbr[i]
	}
	if nb := listed[veh]; nb == nil || nb.fixed {
		t.Fatalf("the vehicle must stay listed as a mover pair, got %+v", nb)
	}
	beyond := 0
	for id := NodeID(0); id < fixed; id++ {
		if id == src.id {
			continue
		}
		d := srcPos.Dist(c.nodes[id].mover.Position(0))
		reach := NewFadingLink(p, k.RNG("link", fmt.Sprint(int(src.id)), fmt.Sprint(int(id)))).MaxRangeM()
		want := d <= c.cutoff && d <= reach
		nb := listed[id]
		if (nb != nil) != want {
			t.Fatalf("node %d at %.0f m (cutoff %.0f, reach %.0f): listed=%v, want %v", id, d, c.cutoff, reach, nb != nil, want)
		}
		if d <= c.cutoff && d > reach {
			beyond++
		}
		if nb != nil && (!nb.fixed || nb.dist != d || nb.ls == nil || nb.farUntil != 0) {
			t.Fatalf("node %d: entry not resolved at build: %+v", id, *nb)
		}
		if _, ok := c.lazy[pairKey(src.id, id)]; ok {
			t.Fatalf("node %d: a fixed pair's link is in the pair map", id)
		}
		if ls := linkOf(c, src.id, id); (ls != nil) != want || (nb != nil && ls != nb.ls) {
			t.Fatalf("node %d at %.0f m (cutoff %.0f, reach %.0f): link exists = %v, want %v", id, d, c.cutoff, reach, ls != nil, want)
		}
	}
	if len(listed) < 20 || len(listed) > fixed/2 {
		t.Fatalf("%d candidates listed: the deployment does not exercise the prefilter", len(listed))
	}
	if beyond == 0 {
		t.Error("no pair fell between its link's reach and the cutoff: that half of the prefilter is untested")
	}
}

// TestFixedLinksLiveInTheirList: on a lattice crossed by one mover, after
// every radio has broadcast, (i) the pair map holds no fixed pair, only
// pairs with the mover; (ii) every candidate list is exactly as long as
// its backing array; and (iii) a rebuild forced by an attach — the grid
// version moves, so every list is built again — leaves each fixed entry
// the very link it had, whose streams go on from where they were.
func TestFixedLinksLiveInTheirList(t *testing.T) {
	k := sim.NewKernel(37)
	c := NewChannel(k, DefaultParams(), nil)
	const cols, rows = 12, 8
	for i := 0; i < cols*rows; i++ {
		c.Attach("bs", mobility.Fixed{X: float64(i%cols) * 200, Y: float64(i/cols) * 200}, nil)
	}
	route := mobility.NewRoute([]mobility.Point{{X: 0, Y: 700}, {X: 2200, Y: 700}}, 15, true)
	veh := c.Attach("veh", &mobility.RouteMover{Route: route}, nil)
	payload := make([]byte, 100)
	round := func() {
		for id := NodeID(0); id < NodeID(c.NumNodes()); id++ {
			c.Broadcast(id, payload, nil)
			k.RunUntil(k.Now() + 5*time.Millisecond) // one frame on the air at a time: every decision draws
		}
	}
	check := func(when string) {
		t.Helper()
		for key := range c.lazy {
			if from, to := NodeID(key>>32), NodeID(uint32(key)); from != veh && to != veh {
				t.Fatalf("%s: fixed pair %d→%d is in the pair map", when, from, to)
			}
		}
		for _, n := range c.nodes {
			if len(n.nbr) != cap(n.nbr) {
				t.Fatalf("%s: node %d's list holds %d entries in %d slots", when, n.id, len(n.nbr), cap(n.nbr))
			}
		}
	}
	round()
	check("after one round")
	if len(c.lazy) == 0 {
		t.Fatal("no mover link in the pair map: the mover never came within the cutoff")
	}

	type held struct {
		ls          *linkState
		loss, noise sim.RNG
	}
	before := map[uint64]held{}
	for _, n := range c.nodes {
		for _, nb := range n.nbr {
			if nb.fixed {
				before[pairKey(n.id, nb.dst.id)] = held{nb.ls, nb.ls.loss, nb.ls.noise}
			}
		}
	}
	if len(before) < cols*rows*10 {
		t.Fatalf("only %d fixed links: the lattice does not exercise the lists", len(before))
	}
	ver := c.grid.version
	c.Attach("bs", mobility.Fixed{X: 1100, Y: 700}, nil) // mid-lattice: lists change length
	if c.grid.version == ver {
		t.Fatal("the attach did not move the grid version")
	}
	round()
	check("after the rebuild")
	for key, h := range before {
		from, to := NodeID(key>>32), NodeID(uint32(key))
		ls := linkOf(c, from, to)
		if ls != h.ls {
			t.Fatalf("link %d→%d was not carried over the rebuild", from, to)
		}
		// One decision since the snapshot: one noise variate, one coin.
		h.noise.NormUniforms()
		h.loss.Float64()
		if ls.noise != h.noise || ls.loss != h.loss {
			t.Fatalf("link %d→%d streams did not continue across the rebuild", from, to)
		}
	}
}

// approach runs a basestation beaconing every 2 ms at a vehicle that
// drives straight at it from three cutoffs out, at exactly the speed it
// advertises unless bound overrides that, and returns the instant of the
// first delivery decision (the link's materialization), the vehicle's
// reception log, where the link's three streams ended up and the longest
// skip window seen.
func approach(t *testing.T, bound float64) (first time.Duration, log []heard, streams [3]sim.RNG, window time.Duration) {
	t.Helper()
	k := sim.NewKernel(29)
	p := DefaultParams()
	c := NewChannel(k, p, nil)
	bs := c.Attach("bs", mobility.Fixed{}, nil)
	const speed = 30.0
	// Off the 3× mark by a fraction of the grid slack, or the vehicle would
	// cross the cutoff on a revalidation instant and start a fresh list there.
	route := mobility.NewRoute([]mobility.Point{{X: 3*c.cutoff + 137}, {X: 0}}, speed, false)
	var m mobility.Mover = &mobility.RouteMover{Route: route}
	if bound > 0 {
		m = advertising{m, bound}
	}
	veh := c.Attach("veh", m, ReceiverFunc(func(_ []byte, info RxInfo) { log = append(log, heard{info.From, k.Now()}) }))
	first = -1
	for now := time.Duration(0); now < 115*time.Second; now += 2 * time.Millisecond {
		k.RunUntil(now)
		c.Broadcast(bs, make([]byte, 100), nil)
		if nbr := c.nodes[bs].nbr; len(nbr) == 1 && nbr[0].farUntil-now > window {
			window = nbr[0].farUntil - now
		}
		if first < 0 && c.lazy[pairKey(bs, veh)] != nil {
			first = now
		}
	}
	k.RunUntil(k.Now() + time.Second)
	if first < 0 {
		t.Fatal("the vehicle never came within the cutoff")
	}
	ls := c.lazy[pairKey(bs, veh)]
	return first, log, [3]sim.RNG{ls.stream, ls.loss, ls.noise}, window
}

// TestKineticSkipIsExact: the skip window a failed cutoff test opens ends
// no later than the pair can be back in range. The vehicle closes at
// exactly its advertised bound — the tight case, the window ends on the
// very crossing — and must get its first delivery decision on the same
// beacon, and leave every link stream at the same position, as a twin
// whose advertised 1e6 m/s makes every window vanish.
func TestKineticSkipIsExact(t *testing.T) {
	first, log, streams, window := approach(t, 0)
	twinFirst, twinLog, twinStreams, twinWindow := approach(t, 1e6)
	if window < 5*time.Second {
		t.Errorf("longest skip window %v: the honest run never skipped, the test is vacuous", window)
	}
	if twinWindow > 10*time.Millisecond {
		t.Errorf("twin skip window %v: it was meant to test the cutoff on every beacon", twinWindow)
	}
	if first != twinFirst {
		t.Errorf("first delivery decision at %v, twin without skip windows at %v", first, twinFirst)
	}
	if streams != twinStreams {
		t.Error("link streams ended at different positions: a decision was skipped or added")
	}
	if len(log) == 0 || !reflect.DeepEqual(log, twinLog) {
		t.Errorf("reception logs differ: %d vs %d entries", len(log), len(twinLog))
	}

	// The window arithmetic never yields a time it cannot represent.
	for _, tc := range []struct{ gap, speed float64 }{
		{100, 0},           // two radios that cannot move: +Inf
		{0, 0},             // NaN
		{1e9, 1e-300},      // overflows a Duration
		{math.Inf(1), 100}, // a position at infinity
	} {
		if got := closingTime(time.Hour, tc.gap, tc.speed); got != never {
			t.Errorf("closingTime(gap %v, speed %v) = %v, want never", tc.gap, tc.speed, got)
		}
	}
	if got := closingTime(time.Second, 300, 100); got != 4*time.Second {
		t.Errorf("closingTime(1 s, 300 m, 100 m/s) = %v, want 4 s", got)
	}
}
