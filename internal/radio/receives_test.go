package radio

import (
	"math"
	"testing"
	"time"

	"github.com/vanlan/vifi/internal/sim"
)

// TestReceivesMatchesReceiveProb: Receives(t, d, u) is u < ReceiveProb(t, d)
// and leaves the link's stream where ReceiveProb leaves it. Twin links on
// one label walk a million non-decreasing times over distances that stand
// still (the memo hits), drift, jump, and sit at 0, at 5 km and at NaN —
// under the calibrated Params, where the bound has to be seen deciding,
// and under Params nothing validates: a multiplier above 1 (the clamp),
// PMax = 0, a negative multiplier (the bound must stand aside: every miss
// is seen to take the exponential), falloffs of 1e-9, 0 and −40 m, and a
// D50 so low the 10 m floor takes over.
func TestReceivesMatchesReceiveProb(t *testing.T) {
	for _, tc := range []struct {
		name    string
		set     func(*Params)
		bounded bool // the cheap bound is expected to settle some coins
	}{
		{"default", func(*Params) {}, true},
		{"GoodMult>1", func(p *Params) { p.GoodMult = 1.6 }, true},
		{"PMax=0", func(p *Params) { p.PMax = 0 }, true},
		{"BadMult<0", func(p *Params) { p.BadMult = -0.08 }, false},
		{"FalloffM=1e-9", func(p *Params) { p.FalloffM = 1e-9 }, true},
		{"FalloffM=0", func(p *Params) { p.FalloffM = 0 }, true},
		{"FalloffM=-40", func(p *Params) { p.FalloffM = -40 }, true},
		{"D50 floor", func(p *Params) { p.D50 = -200 }, true},
	} {
		p := DefaultParams()
		tc.set(&p)
		k := sim.NewKernel(77)
		a, b := NewFadingLink(p, k.RNG("twin")), NewFadingLink(p, k.RNG("twin"))
		coin, walk := k.RNG("coin"), k.RNG("walk")
		var (
			now      time.Duration
			d, drift float64
			received int
			byBound  int
		)
		for i := 0; i < 1_000_000; i++ {
			if i%50 == 0 { // a new leg: how the distance moves for the next 50 frames
				drift = 0
				switch walk.Intn(6) {
				case 0: // stand still
				case 1:
					drift = walk.Float64() - 0.5
				case 2:
					d = walk.Float64() * 600
				case 3:
					d = 0
				case 4:
					d = 5000
				case 5:
					d = math.NaN()
				}
				if math.IsNaN(d) && drift != 0 {
					d = walk.Float64() * 600
				}
			}
			d += drift
			now += time.Duration(walk.Intn(3)) * 10 * time.Millisecond
			u := coin.Float64()
			missed := d != a.meanAt
			got, want := a.Receives(now, d, u), u < b.ReceiveProb(now, d)
			if got != want {
				t.Fatalf("%s: step %d t=%v d=%v u=%v: Receives = %v, u < ReceiveProb = %v", tc.name, i, now, d, u, got, want)
			}
			if got {
				received++
			}
			if missed && d == a.meanAt && a.mean != a.mean {
				byBound++ // a miss that left the memo without a mean took no exponential
			}
		}
		if *a.rng != *b.rng || a.ge != b.ge || a.gray != b.gray {
			t.Errorf("%s: the twins' streams or modulators ended apart", tc.name)
		}
		if tc.bounded == (byBound == 0) {
			t.Errorf("%s: %d coins settled by the bound, want some = %v", tc.name, byBound, tc.bounded)
		}
		t.Logf("%s: %d received, %d settled by the bound", tc.name, received, byBound)
	}
}

// TestMeanBoundDominates: the bound is never below the mean it stands for,
// across every table entry's edges, the first falloff, the table's end and
// the values no distance should produce.
func TestMeanBoundDominates(t *testing.T) {
	p := DefaultParams()
	check := func(dist, shadow float64) {
		t.Helper()
		bound, ok := p.meanBound(dist, shadow)
		if mean := p.meanReception(dist, shadow); ok && !(mean <= bound) {
			t.Errorf("meanBound(%v, %v) = %v below the mean %v", dist, shadow, bound, mean)
		}
	}
	for k := -2; k < 70; k++ {
		edge := p.D50 + float64(k)*p.FalloffM
		for _, dist := range []float64{math.Nextafter(edge, 0), edge, math.Nextafter(edge, 1e9), edge + p.FalloffM/2} {
			check(dist, 0)
			check(dist, -31.7)
		}
	}
	for _, dist := range []float64{0, -5, 1e300, math.Inf(1), math.Inf(-1)} {
		check(dist, 0)
	}
	if _, ok := p.meanBound(math.NaN(), 0); ok {
		t.Error("meanBound of a NaN distance claims to hold")
	}
}
