package radio

import (
	"fmt"
	"math"
	"testing"
	"time"

	"github.com/vanlan/vifi/internal/mobility"
	"github.com/vanlan/vifi/internal/sim"
)

func TestAirtime(t *testing.T) {
	// 500 B payload + 58 B overhead at 1 Mbps = 4464 µs.
	got := Airtime(500)
	want := time.Duration(float64(558*8) / 1e6 * float64(time.Second))
	if got != want {
		t.Errorf("airtime = %v, want %v", got, want)
	}
}

func TestMeanReceptionMonotoneInDistance(t *testing.T) {
	p := DefaultParams()
	prev := 1.1
	for d := 0.0; d <= 600; d += 10 {
		pr := p.meanReception(d, 0)
		if pr > prev+1e-12 {
			t.Fatalf("mean reception increased with distance at %vm", d)
		}
		if pr < 0 || pr > 1 {
			t.Fatalf("mean reception out of range: %v at %vm", pr, d)
		}
		prev = pr
	}
	if p.meanReception(0, 0) < pMax*0.95 {
		t.Error("reception at 0m should be near pMax")
	}
	if p.meanReception(500, 0) > 0.05 {
		t.Error("reception at 500m should be near zero")
	}
	// At D50 the reception is half pMax by construction.
	if got := p.meanReception(p.D50, 0); math.Abs(got-pMax/2) > 1e-9 {
		t.Errorf("reception at D50 = %v, want %v", got, pMax/2)
	}
}

func TestRSSIMonotone(t *testing.T) {
	if RSSIBase(10) <= RSSIBase(100) {
		t.Error("RSSI should fall with distance")
	}
}

// burstLink is a link that has drawn no shadow, so that its stream yields
// the burst (or gray) process from its first word.
func burstLink() *fading {
	return &fading{ge: unstarted, gray: unstarted}
}

// goodAt and grayAt advance one modulator alone, the way advance does both.
func goodAt(f *fading, rng *sim.RNG, t time.Duration) bool {
	if t >= f.ge.until {
		f.advanceGE(rng, t)
	}
	return f.ge.on
}

func grayAt(f *fading, rng *sim.RNG, t time.Duration) bool {
	if t >= f.gray.until {
		f.advanceGray(rng, t)
	}
	return f.gray.on
}

func TestGEStateStationaryFraction(t *testing.T) {
	rng := sim.NewKernel(1).RNG("ge")
	f := burstLink()
	good := 0
	const n = 200000
	for i := 0; i < n; i++ {
		if goodAt(f, rng, time.Duration(i)*10*time.Millisecond) {
			good++
		}
	}
	frac := float64(good) / n
	want := goodMean.Seconds() / (goodMean + badMean).Seconds()
	if math.Abs(frac-want) > 0.02 {
		t.Errorf("good fraction = %v, want ≈%v", frac, want)
	}
}

func TestGEStateBurstiness(t *testing.T) {
	// Consecutive 10 ms samples should be heavily correlated given the
	// sojourn times are ≫ 10 ms.
	rng := sim.NewKernel(2).RNG("ge")
	f := burstLink()
	same, total := 0, 0
	prev := goodAt(f, rng, 0)
	for i := 1; i < 100000; i++ {
		cur := goodAt(f, rng, time.Duration(i)*10*time.Millisecond)
		if cur == prev {
			same++
		}
		total++
		prev = cur
	}
	if frac := float64(same) / float64(total); frac < 0.95 {
		t.Errorf("state persistence = %v, want > 0.95", frac)
	}
}

func TestGrayStateEpisodes(t *testing.T) {
	rng := sim.NewKernel(3).RNG("gray")
	f := burstLink()
	grayTime := 0
	const samples = 3600 * 10 // one hour at 100 ms
	for i := 0; i < samples; i++ {
		if grayAt(f, rng, time.Duration(i)*100*time.Millisecond) {
			grayTime++
		}
	}
	// Expected: a 26 s gap and a 1–9 s period make a 31 s cycle, so
	// ≈116 episodes/hour × 5 s each ≈ 580 s gray out of 3600 s.
	frac := float64(grayTime) / samples
	if frac < 0.08 || frac > 0.25 {
		t.Errorf("gray fraction = %v, want ≈0.16", frac)
	}
	if f.episodes < 85 || f.episodes > 150 {
		t.Errorf("gray episodes in an hour = %d, want ≈116", f.episodes)
	}
}

func TestFadingLinkBounds(t *testing.T) {
	k := sim.NewKernel(4)
	l := NewFadingLink(DefaultParams(), k.RNG("l"))
	for i := 0; i < 10000; i++ {
		pr := l.ReceiveProb(time.Duration(i)*50*time.Millisecond, float64(i%400))
		if pr < 0 || pr > 1 {
			t.Fatalf("ReceiveProb out of range: %v", pr)
		}
	}
}

// The paper's Fig 6a: conditional loss probability P(loss i+k | loss i)
// is much higher than unconditional loss for small k and decays toward it.
func TestFadingLinkConditionalLossDecays(t *testing.T) {
	k := sim.NewKernel(5)
	p := DefaultParams()
	l := NewFadingLink(p, k.RNG("l"))
	rng := k.RNG("coin")
	const n = 400000
	const gap = 10 * time.Millisecond // paper sends every 10 ms
	const dist = 40                   // near the BS
	lost := make([]bool, n)
	for i := range lost {
		pr := l.ReceiveProb(time.Duration(i)*gap, dist)
		lost[i] = !(rng.Float64() < pr)
	}
	uncond := 0
	for _, v := range lost {
		if v {
			uncond++
		}
	}
	uncondP := float64(uncond) / n

	condAt := func(kk int) float64 {
		num, den := 0, 0
		for i := 0; i+kk < n; i++ {
			if lost[i] {
				den++
				if lost[i+kk] {
					num++
				}
			}
		}
		if den == 0 {
			return 0
		}
		return float64(num) / float64(den)
	}
	c1 := condAt(1)
	c500 := condAt(500) // 5 s later
	if c1 < uncondP*1.5 {
		t.Errorf("burstiness too weak: P(loss|loss,k=1)=%v vs uncond %v", c1, uncondP)
	}
	if math.Abs(c500-uncondP) > 0.12 {
		t.Errorf("conditional loss did not decay: k=500 gives %v vs uncond %v", c500, uncondP)
	}
	if c1 <= c500 {
		t.Errorf("conditional loss not decreasing: c1=%v c500=%v", c1, c500)
	}
}

// The paper's Fig 6b: losses are roughly independent across links.
func TestFadingLinksIndependentAcrossBSes(t *testing.T) {
	k := sim.NewKernel(6)
	p := DefaultParams()
	la := NewFadingLink(p, k.RNG("A"))
	lb := NewFadingLink(p, k.RNG("B"))
	rng := k.RNG("coin2")
	const n = 300000
	const gap = 20 * time.Millisecond
	const dist = 40
	lostA := make([]bool, n)
	lostB := make([]bool, n)
	for i := 0; i < n; i++ {
		at := time.Duration(i) * gap
		lostA[i] = !(rng.Float64() < la.ReceiveProb(at, dist))
		lostB[i] = !(rng.Float64() < lb.ReceiveProb(at, dist))
	}
	recvP := func(lost []bool) float64 {
		c := 0
		for _, v := range lost {
			if !v {
				c++
			}
		}
		return float64(c) / n
	}
	pa, pb := recvP(lostA), recvP(lostB)
	// P(B_{i+1} | ¬A_i): reception of next packet on B given loss on A.
	num, den := 0, 0
	for i := 0; i+1 < n; i++ {
		if lostA[i] {
			den++
			if !lostB[i+1] {
				num++
			}
		}
	}
	pbGivenLossA := float64(num) / float64(den)
	// Same-link conditional for contrast.
	num2, den2 := 0, 0
	for i := 0; i+1 < n; i++ {
		if lostA[i] {
			den2++
			if !lostA[i+1] {
				num2++
			}
		}
	}
	paGivenLossA := float64(num2) / float64(den2)

	if paGivenLossA > pa*0.75 {
		t.Errorf("same-link conditional reception too high: %v vs uncond %v", paGivenLossA, pa)
	}
	if pbGivenLossA < pb*0.8 {
		t.Errorf("cross-link reception degraded by other link's loss: %v vs %v", pbGivenLossA, pb)
	}
}

// TestFixedAndScheduleLinks pins FixedLink; the per-second schedule
// replay is trace's (TestScheduleLinks).
func TestFixedAndScheduleLinks(t *testing.T) {
	if FixedLink(0.4).ReceiveProb(0, 99) != 0.4 {
		t.Error("FixedLink wrong")
	}
}

// --- Channel tests -------------------------------------------------------

// heard is one entry of a delivery log: the frame's sender and the kernel
// time of its upcall.
type heard struct {
	From NodeID
	At   time.Duration
}

type collector struct {
	frames []RxInfo
	data   [][]byte
}

// RadioReceive keeps a copy: the payload is the channel's, shared by every
// receiver of the frame and recycled after the last one.
func (c *collector) RadioReceive(p []byte, info RxInfo) {
	c.frames = append(c.frames, info)
	c.data = append(c.data, append([]byte(nil), p...))
}

func perfectChannel(k *sim.Kernel) *Channel {
	return NewChannel(k, DefaultParams(), func(from, to NodeID) LinkModel { return FixedLink(1) })
}

func TestChannelDeliversToAllOthers(t *testing.T) {
	k := sim.NewKernel(7)
	c := perfectChannel(k)
	var rx [3]collector
	a := c.Attach("a", mobility.Fixed{X: 0, Y: 0}, &rx[0])
	c.Attach("b", mobility.Fixed{X: 50, Y: 0}, &rx[1])
	c.Attach("c", mobility.Fixed{X: 100, Y: 0}, &rx[2])

	c.Broadcast(a, []byte("hello"), nil)
	k.Run()

	if len(rx[0].frames) != 0 {
		t.Error("sender received its own frame")
	}
	for i := 1; i < 3; i++ {
		if len(rx[i].frames) != 1 {
			t.Fatalf("node %d received %d frames, want 1", i, len(rx[i].frames))
		}
		if string(rx[i].data[0]) != "hello" {
			t.Errorf("payload corrupted: %q", rx[i].data[0])
		}
		if rx[i].frames[0].From != a {
			t.Errorf("wrong source: %v", rx[i].frames[0].From)
		}
	}
	st := c.Stats()
	if st.Transmissions != 1 || st.Deliveries != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestChannelPayloadIsolation(t *testing.T) {
	k := sim.NewKernel(8)
	c := perfectChannel(k)
	var rx collector
	a := c.Attach("a", mobility.Fixed{}, nil)
	c.Attach("b", mobility.Fixed{X: 10}, &rx)
	buf := []byte("mutate-me")
	c.Broadcast(a, buf, nil)
	buf[0] = 'X' // mutation after Broadcast must not reach the receiver
	k.Run()
	if string(rx.data[0]) != "mutate-me" {
		t.Errorf("receiver saw mutated payload: %q", rx.data[0])
	}
}

func TestChannelLossyLink(t *testing.T) {
	k := sim.NewKernel(9)
	c := NewChannel(k, DefaultParams(), func(from, to NodeID) LinkModel { return FixedLink(0.5) })
	var rx collector
	a := c.Attach("a", mobility.Fixed{}, nil)
	c.Attach("b", mobility.Fixed{X: 10}, &rx)
	const n = 2000
	for i := 0; i < n; i++ {
		c.Broadcast(a, []byte{1}, nil)
		k.Run()
	}
	got := float64(len(rx.frames)) / n
	if math.Abs(got-0.5) > 0.05 {
		t.Errorf("delivery rate = %v, want ≈0.5", got)
	}
	if s := c.Stats(); s.ChannelLosses+s.Deliveries != n {
		t.Errorf("losses+deliveries = %d, want %d", s.ChannelLosses+s.Deliveries, n)
	}
}

func TestChannelHalfDuplex(t *testing.T) {
	k := sim.NewKernel(10)
	c := perfectChannel(k)
	var rxa, rxb collector
	a := c.Attach("a", mobility.Fixed{}, &rxa)
	b := c.Attach("b", mobility.Fixed{X: 10}, &rxb)
	// Both transmit at t=0: neither can hear the other.
	c.Broadcast(a, make([]byte, 100), nil)
	c.Broadcast(b, make([]byte, 100), nil)
	k.Run()
	if len(rxa.frames) != 0 || len(rxb.frames) != 0 {
		t.Errorf("half-duplex violated: a got %d, b got %d", len(rxa.frames), len(rxb.frames))
	}
}

func TestChannelDoubleTransmitPanics(t *testing.T) {
	k := sim.NewKernel(11)
	c := perfectChannel(k)
	a := c.Attach("a", mobility.Fixed{}, nil)
	c.Attach("b", mobility.Fixed{X: 10}, nil)
	c.Broadcast(a, make([]byte, 1000), nil)
	defer func() {
		if recover() == nil {
			t.Error("second Broadcast while on air did not panic")
		}
	}()
	c.Broadcast(a, []byte{1}, nil)
}

func TestChannelCollisionDestroysBoth(t *testing.T) {
	k := sim.NewKernel(12)
	c := perfectChannel(k)
	var rx collector
	// Two senders equidistant from the receiver: no capture, both die.
	a := c.Attach("a", mobility.Fixed{X: -50}, nil)
	b := c.Attach("b", mobility.Fixed{X: 50}, nil)
	c.Attach("r", mobility.Fixed{}, &rx)
	c.Broadcast(a, make([]byte, 500), nil)
	c.Broadcast(b, make([]byte, 500), nil)
	k.Run()
	if len(rx.frames) != 0 {
		t.Errorf("receiver decoded %d frames through a symmetric collision", len(rx.frames))
	}
	if c.Stats().Collisions == 0 {
		t.Error("no collisions recorded")
	}
}

// TestChannelCapture: A is 100× closer than B, 60 dB stronger against a
// 10 dB margin and 4 dB of noise per reading, so A's frame takes the
// receiver whether it comes second (capture) or first (survival).
func TestChannelCapture(t *testing.T) {
	for _, strongFirst := range []bool{false, true} {
		k := sim.NewKernel(13)
		c := NewChannel(k, DefaultParams(), func(from, to NodeID) LinkModel { return FixedLink(1) })
		var rx collector
		a := c.Attach("a", mobility.Fixed{X: 5}, nil)
		b := c.Attach("b", mobility.Fixed{X: 500}, nil)
		c.Attach("r", mobility.Fixed{}, &rx)
		first, second := b, a
		if strongFirst {
			first, second = a, b
		}
		c.Broadcast(first, make([]byte, 500), nil)
		c.Broadcast(second, make([]byte, 500), nil)
		k.Run()
		if len(rx.frames) != 1 || rx.frames[0].From != a {
			t.Fatalf("strong first %v: got %d frames %+v, want 1 from %v (b=%v)", strongFirst, len(rx.frames), rx.frames, a, b)
		}
		if got := c.Stats().Collisions; got != 1 {
			t.Errorf("strong first %v: collisions = %d, want 1", strongFirst, got)
		}
	}
}

func TestChannelBusyCarrierSense(t *testing.T) {
	k := sim.NewKernel(14)
	c := perfectChannel(k)
	a := c.Attach("a", mobility.Fixed{}, nil)
	b := c.Attach("b", mobility.Fixed{X: 100}, nil)
	far := c.Attach("far", mobility.Fixed{X: 10000}, nil)
	if c.Busy(a) || c.Busy(b) || c.Busy(far) {
		t.Fatal("idle medium sensed busy")
	}
	c.Broadcast(a, make([]byte, 1000), nil)
	if !c.Busy(a) {
		t.Error("transmitter does not sense itself busy")
	}
	if !c.Busy(b) {
		t.Error("nearby node does not sense the medium busy")
	}
	if c.Busy(far) {
		t.Error("node 10 km away senses the medium busy")
	}
	if !c.Transmitting(a) || c.Transmitting(b) {
		t.Error("Transmitting() wrong")
	}
	k.Run()
	if c.Busy(a) || c.Busy(b) {
		t.Error("medium still busy after airtime elapsed")
	}
}

// receiveProb is a default link's instantaneous reception probability
// between two attached nodes at their positions now: the link's modulators
// advanced to now, then its mean at the pair's distance.
func receiveProb(c *Channel, from, to NodeID) float64 {
	now := c.K.Now()
	ls := c.link(from, to)
	ls.fading.advance(&ls.stream, now)
	return ls.fading.prob(&c.P, c.nodes[from].mover.Position(now).Dist(c.nodes[to].mover.Position(now)))
}

func TestChannelReceiveProbUsesDistance(t *testing.T) {
	k := sim.NewKernel(15)
	c := NewChannel(k, DefaultParams(), nil) // default fading links
	a := c.Attach("a", mobility.Fixed{}, nil)
	near := c.Attach("near", mobility.Fixed{X: 20}, nil)
	farn := c.Attach("far", mobility.Fixed{X: 450}, nil)
	// Average over time to smooth the burst process.
	var pNear, pFar float64
	const samples = 500
	for i := 0; i < samples; i++ {
		k.RunUntil(k.Now() + 100*time.Millisecond)
		pNear += receiveProb(c, a, near)
		pFar += receiveProb(c, a, farn)
	}
	pNear /= samples
	pFar /= samples
	if pNear <= pFar*2 {
		t.Errorf("near link (%v) not clearly better than far (%v)", pNear, pFar)
	}
}

func TestChannelMovingReceiver(t *testing.T) {
	// A vehicle driving away should see reception degrade.
	k := sim.NewKernel(16)
	c := NewChannel(k, DefaultParams(), nil)
	route := mobility.NewRoute([]mobility.Point{{X: 0}, {X: 2000}}, 20, false)
	bs := c.Attach("bs", mobility.Fixed{}, nil)
	var early, late int
	veh := c.Attach("veh", &mobility.RouteMover{Route: route}, nil)
	c.SetReceiver(veh, ReceiverFunc(func([]byte, RxInfo) {
		if at := k.Now(); at < 10*time.Second {
			early++
		} else if at > 60*time.Second {
			late++
		}
	}))
	deadline := 90 * time.Second
	var tick func()
	tick = func() {
		if k.Now() >= deadline {
			return
		}
		if !c.Transmitting(bs) {
			c.Broadcast(bs, make([]byte, 100), nil)
		}
		k.After(50*time.Millisecond, tick)
	}
	k.After(0, tick)
	k.RunUntil(deadline)
	if early == 0 {
		t.Fatal("no receptions near the BS")
	}
	if late >= early {
		t.Errorf("reception did not degrade with distance: early=%d late=%d", early, late)
	}
}

// benchCityChannel builds a 1000-radio constant-density deployment
// (grid-city density, ≈47 radios per cutoff disc) with one moving
// transmitter: per-transmission cost must follow the ~47 in-range
// neighbors, not the 1000 attached radios.
func benchCityChannel(b *testing.B) (*sim.Kernel, *Channel, NodeID) {
	b.Helper()
	k := sim.NewKernel(1)
	c := NewChannelSized(k, DefaultParams(), nil, 1000)
	// 999 fixed radios on a ~10.2 km × 6.4 km region at grid-city density.
	const cols = 39
	for i := 0; i < 999; i++ {
		c.Attach("bs", mobility.Fixed{
			X: float64(i%cols) * 260,
			Y: float64(i/cols) * 250,
		}, nil)
	}
	route := mobility.NewRoute([]mobility.Point{{X: 200, Y: 200}, {X: 9600, Y: 200},
		{X: 9600, Y: 6000}, {X: 200, Y: 6000}}, mobility.KmhToMps(40), true)
	veh := c.Attach("veh", &mobility.RouteMover{Route: route}, nil)
	return k, c, veh
}

// benchBroadcast is the timed loop of the broadcast benchmarks: one frame
// on the air, then the clock runs to the end of its airtime. k.Run() would
// never return on a channel with a cutoff and a mover — grid revalidation
// is a self-rescheduling event — so the drain is bounded by the frame.
func benchBroadcast(b *testing.B, k *sim.Kernel, c *Channel, from NodeID) {
	payload := make([]byte, 500)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.RunUntil(k.Now() + c.Broadcast(from, payload, nil))
	}
}

// BenchmarkBroadcastIndexed1000 measures steady-state Broadcast+delivery
// on the spatially indexed path at 1000 radios.
func BenchmarkBroadcastIndexed1000(b *testing.B) {
	k, c, veh := benchCityChannel(b)
	benchBroadcast(b, k, c, veh)
}

// BenchmarkLinkFirstContact measures materializing one directed link: the
// state's one allocation, its three in-place stream seedings, the shadow
// draw and the link-table insert. A city pays it once per pair that ever
// comes within the cutoff — hundreds of thousands of times at metro size.
func BenchmarkLinkFirstContact(b *testing.B) {
	c := NewChannel(sim.NewKernel(1), DefaultParams(), nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.link(NodeID(i>>9), NodeID(i&511))
	}
}

func BenchmarkChannelBroadcast(b *testing.B) {
	k := sim.NewKernel(1)
	c := NewChannel(k, DefaultParams(), nil)
	v := mobility.NewVanLAN()
	for i, bs := range v.BSes {
		c.Attach(fmt.Sprintf("bs%d", i), mobility.Fixed(bs), nil)
	}
	veh := c.Attach("veh", &mobility.RouteMover{Route: v.Route}, nil)
	benchBroadcast(b, k, c, veh)
}

// BenchmarkBroadcastCell12 is one transmission on a paper-sized cell: twelve
// fixed radios all within range on default fading links, each sending in
// turn a frame of a beacon's size (a basestation reporting eleven peers).
// It reports the kernel events per transmission beside ns/op.
func BenchmarkBroadcastCell12(b *testing.B) {
	k := sim.NewKernel(1)
	c := NewChannel(k, DefaultParams(), nil)
	cell12(c, ReceiverFunc(func([]byte, RxInfo) {}))
	payload := make([]byte, 13+6+5*11+4) // header, beacon body, eleven entries, CRC
	b.ReportAllocs()
	ran := k.EventsRun()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.RunUntil(k.Now() + c.Broadcast(NodeID(i%12), payload, nil))
	}
	b.ReportMetric(float64(k.EventsRun()-ran)/float64(b.N), "events/op")
}
