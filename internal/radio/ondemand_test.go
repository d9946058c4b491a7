package radio

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"github.com/vanlan/vifi/internal/mobility"
	"github.com/vanlan/vifi/internal/sim"
)

// This file holds the channel to the delivery decision it made before the
// RSSI noise became lazy: a reference that takes the variate at the draw
// and compares finished levels, run against Channel.Broadcast on a city
// where most decisions meet a frame in flight.

// eagerDeliver is Channel.deliver as it stood when every decision computed
// its RSSI up front — the draw, the capture switch and the bookkeeping
// verbatim, serial only. A record it writes is a settled reading (u = 1),
// which is what a level known at birth is.
func (c *Channel) eagerDeliver(dst *node, ls *linkState, dist float64, payload []byte, now, end time.Duration) {
	ln := &c.rxLane
	if dst.down {
		return
	}
	var pr float64
	if c.factory != nil {
		pr = c.models[ls.custom].ReceiveProb(now, dist)
	} else {
		ls.fading.advance(&ls.stream, now)
		pr = ls.fading.prob(&c.P, dist)
	}
	if dst.txUntil > now {
		if pr > 0 {
			ln.stats.HalfDuplex++
		}
		return
	}

	rssi := ls.rssi(dist) + ls.noise.NormFloat64()*RSSINoiseDB

	if prev := dst.cur; prev != nil && prev.end > now {
		switch {
		case rssi >= prev.base+captureDB:
			// New frame captures the receiver; the old one is lost.
			if prev.ok {
				prev.ok = false
				ln.stats.Collisions++
			}
		case prev.base >= rssi+captureDB:
			// Existing frame survives; the new one is lost.
			ln.stats.Collisions++
			return
		default:
			// Mutual destruction.
			if prev.ok {
				prev.ok = false
				ln.stats.Collisions++
			}
			ln.stats.Collisions++
			return
		}
	}

	ok := ls.loss.Float64() < pr
	rx := ln.alloc()
	rx.dst, rx.reading, rx.end, rx.ok = dst, reading{base: rssi, u: 1}, end, ok
	if prev := dst.cur; prev != nil && !prev.scheduled {
		ln.put(prev)
	}
	dst.cur = rx
	if !ok {
		ln.stats.ChannelLosses++
		return
	}
	c.commit(rx, payload)
}

// eagerBroadcast is the serial body of Broadcast over eagerDeliver.
func (c *Channel) eagerBroadcast(from NodeID, payload []byte) {
	now := c.K.Now()
	src := c.nodes[from]
	end := now + Airtime(len(payload))
	src.txUntil = end
	c.activeTx = append(c.activeTx, src)
	c.stats.Transmissions++
	if src.cur != nil && src.cur.end > now && src.cur.ok {
		src.cur.ok = false
		c.stats.HalfDuplex++
	}
	srcPos := src.mover.Position(now)
	nbr := c.candidates(src, srcPos, now)
	for i := range nbr {
		nb := &nbr[i]
		if dist, ok := c.inRange(src, srcPos, nb, now); ok {
			c.eagerDeliver(nb.dst, nb.ls, dist, payload, now, end)
		}
	}
	c.scheduleTxEnd(src, nil, end)
}

// overlapBranches counts, per way an overlap with a dead incumbent can be
// settled, the decisions of one run that were seen to take it — and the
// overlaps with a live one.
type overlapBranches struct {
	bracketCapture, bracketLoss int // the brackets decided: neither reading settled
	exact                       int // the readings were settled to compare levels
	live                        int // the new frame collided with a frame that could still be lost
	unsound                     int // a reading the brackets had decided was settled anyway
}

// overlapWatch is what observe remembers of one receiver across a
// Broadcast. A Broadcast decides each receiver at most once and a decision
// touches only its own receiver and link, so before/after is per decision.
type overlapWatch struct {
	prev  *reception
	was   reading // prev's reading before the decision
	live  bool
	noise sim.RNG
}

// observe snapshots every receiver that is locked on a frame in flight,
// runs the broadcast, and classifies what each of their decisions did. A
// decision happened iff the pair's rssi stream moved. Whether the brackets
// decided it is recomputed here from the incumbent's reading as it was, the
// uniforms the link's stream held and the base the link's memo keeps;
// whether levels were compared shows in what is left behind. Only a
// record still latched is inspected afterwards (the displaced incumbent of
// a capture may already be recycled): a captured receiver's new record is
// settled exactly when the comparison needed its level.
func (b *overlapBranches) observe(c *Channel, src NodeID, broadcast func()) {
	now := c.K.Now()
	watch := map[*node]overlapWatch{}
	for _, d := range c.nodes {
		if prev := d.cur; d.id != src && prev != nil && prev.end > now {
			w := overlapWatch{prev: prev, was: prev.reading, live: prev.ok}
			if ls := linkOf(c, src, d.id); ls != nil {
				w.noise = ls.noise
			} else {
				c.K.SeedPair(&w.noise, "rssi", int(src), int(d.id)) // where a link born in the broadcast starts
			}
			watch[d] = w
		}
	}
	broadcast()
	for d, w := range watch {
		ls := linkOf(c, src, d.id)
		if ls == nil || ls.noise == w.noise {
			continue // out of range or half duplex: no draw, no decision
		}
		if w.live {
			b.live++
			continue
		}
		gap := ls.rssiBase - w.was.base - captureDB
		lo, hi := sim.NormBracket(w.noise.NormUniforms())
		prevLo, prevHi := sim.NormBracket(w.was.u, w.was.v)
		least, most := RSSINoiseDB*(lo-prevHi), RSSINoiseDB*(hi-prevLo) // the noise difference's ends
		byBracket := gap+least > captureGuardDB || gap+most < -captureGuardDB
		var settled bool
		switch captured := d.cur != w.prev; {
		case captured:
			if settled = d.cur.u == 1; !settled {
				b.bracketCapture++
			}
		case !captured && w.was.u != 1:
			if settled = w.prev.u == 1; !settled {
				b.bracketLoss++
			}
		}
		if settled {
			b.exact++
			if byBracket {
				b.unsound++
			}
		}
	}
}

// hiddenDelivery is one entry of a run's delivery log.
type hiddenDelivery struct {
	To NodeID
	heard
}

// runHiddenTerminals drives a strip city — three rows of fixed radios
// 100 m apart over 4 km, plus vehicles crossing it — with no carrier sense
// at all: a random radio starts a 2 ms frame every 250 µs, so some eight
// frames are on the air at once and nearly every decision finds its
// receiver already locked. eager runs the reference; otherwise lanes ≥ 2
// runs the channel on that many delivery lanes, and the serial channel is
// run under observe.
func runHiddenTerminals(t *testing.T, eager bool, lanes int) ([]hiddenDelivery, Stats, overlapBranches) {
	t.Helper()
	const cols, rows, movers = 40, 3, 8
	const n = cols*rows + movers
	k := sim.NewKernel(23)
	c := NewChannel(k, DefaultParams(), nil)
	var log []hiddenDelivery
	attach := func(m mobility.Mover) {
		id := NodeID(c.NumNodes())
		c.Attach(fmt.Sprint(id), m, ReceiverFunc(func(_ []byte, info RxInfo) {
			log = append(log, hiddenDelivery{id, heard{info.From, k.Now()}})
		}))
	}
	for i := 0; i < cols*rows; i++ {
		attach(mobility.Fixed{X: float64(i%cols) * 100, Y: float64(i/cols) * 100})
	}
	for i := 0; i < movers; i++ {
		x0 := float64(i) * 450
		route := mobility.NewRoute([]mobility.Point{{X: x0, Y: 50}, {X: x0 + 800, Y: 150}}, 30, true)
		attach(&mobility.RouteMover{Route: route})
	}
	if lanes > 1 {
		if got := c.StartShards(lanes); got != lanes {
			t.Fatalf("StartShards(%d) = %d, want %d", lanes, got, lanes)
		}
		defer c.StopShards()
	}
	var took overlapBranches
	payload := make([]byte, 200)
	pick := sim.NewRNG(5)
	for step := 0; step < 6000; step++ {
		if src := NodeID(pick.Intn(n)); !c.Transmitting(src) {
			switch {
			case eager:
				c.eagerBroadcast(src, payload)
			case lanes > 1:
				c.Broadcast(src, payload, nil)
			default:
				took.observe(c, src, func() { c.Broadcast(src, payload, nil) })
			}
		}
		k.RunUntil(k.Now() + 250*time.Microsecond)
	}
	k.RunUntil(k.Now() + time.Second) // bounded drain: the movers' revalidation never ends
	return log, c.Stats(), took
}

// TestOnDemandNoiseMatchesEagerDecision: deferring (and mostly skipping)
// the Box–Muller transform changes no decision. The channel, serial and on
// two lanes, must reproduce the eager reference's counters and its delivery
// sequence — receiver, sender and upcall time — on a run seen to settle
// overlaps in every way there is: by the
// brackets and by the levels, a capture and a loss each by the brackets,
// and against a live incumbent.
func TestOnDemandNoiseMatchesEagerDecision(t *testing.T) {
	wantLog, wantStats, _ := runHiddenTerminals(t, true, 0)
	if wantStats.Deliveries == 0 || wantStats.Collisions < wantStats.ChannelLosses {
		t.Fatalf("overlaps do not dominate the reference run: %+v", wantStats)
	}
	for _, lanes := range []int{1, 2} {
		log, stats, took := runHiddenTerminals(t, false, lanes)
		if stats != wantStats {
			t.Errorf("lanes=%d: stats %+v, eager reference %+v", lanes, stats, wantStats)
		}
		if !reflect.DeepEqual(log, wantLog) {
			t.Errorf("lanes=%d: delivery log diverged from the eager reference (%d vs %d entries)", lanes, len(log), len(wantLog))
			for i := 0; i < len(log) && i < len(wantLog); i++ {
				if log[i] != wantLog[i] {
					t.Fatalf("first difference at delivery %d: %+v, reference %+v", i, log[i], wantLog[i])
				}
			}
		}
		t.Logf("lanes=%d: %+v, %+v, %d deliveries logged", lanes, stats, took, len(log))
		if lanes != 1 {
			continue
		}
		if took.unsound != 0 {
			t.Errorf("%d readings were settled for a decision the brackets had made", took.unsound)
		}
		if took.bracketCapture == 0 || took.bracketLoss == 0 || took.exact == 0 || took.live == 0 {
			t.Errorf("a way of settling an overlap went unexercised: %+v", took)
		}
	}
}
