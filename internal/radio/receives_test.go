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
// under the calibrated Params, where both sides of the bracket have to be
// seen deciding, and under Params nothing validates: a multiplier above 1
// (the clamp), PMax = 0 (no coin is below a zero lower side), a negative
// multiplier (the bracket must stand aside: every miss is seen to take the
// exponential), falloffs of 1e-9, 0 and −40 m, and a D50 so low the 10 m
// floor takes over.
func TestReceivesMatchesReceiveProb(t *testing.T) {
	for _, tc := range []struct {
		name    string
		set     func(*Params)
		bounded bool // the bracket is expected to settle some coins
		heard   bool // … and to hear some of them
	}{
		{"default", func(*Params) {}, true, true},
		{"GoodMult>1", func(p *Params) { p.GoodMult = 1.6 }, true, true},
		{"PMax=0", func(p *Params) { p.PMax = 0 }, true, false},
		{"BadMult<0", func(p *Params) { p.BadMult = -0.08 }, false, false},
		{"FalloffM=1e-9", func(p *Params) { p.FalloffM = 1e-9 }, true, true},
		{"FalloffM=0", func(p *Params) { p.FalloffM = 0 }, true, true},
		{"FalloffM=-40", func(p *Params) { p.FalloffM = -40 }, true, true},
		{"D50 floor", func(p *Params) { p.D50 = -200 }, true, true},
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
			heard    int
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
				if got {
					heard++
				}
			}
		}
		if *a.rng != *b.rng || a.ge != b.ge || a.gray != b.gray {
			t.Errorf("%s: the twins' streams or modulators ended apart", tc.name)
		}
		if tc.bounded == (byBound == 0) || tc.heard == (heard == 0) {
			t.Errorf("%s: %d coins settled by the bracket, %d of them heard; want some = %v, %v", tc.name, byBound, heard, tc.bounded, tc.heard)
		}
		t.Logf("%s: %d received, %d settled by the bracket, %d of them heard", tc.name, received, byBound, heard)
	}
}

// checkBracket fails t unless meanBracket(dist, shadow) encloses the
// computed mean, and keeps enclosing it through each of the four
// modulations a decision can apply. With strict set it also asks for the
// margin: each side clear of the mean, except where the side is the curve's
// own limit (lo = 0 past the last row, hi = PMax before the first).
func checkBracket(t testing.TB, p *Params, dist, shadow float64, strict bool) {
	t.Helper()
	lo, hi, ok := p.meanBracket(dist, shadow)
	if !ok {
		t.Fatalf("meanBracket(%v, %v) does not hold under valid Params", dist, shadow)
	}
	mean := p.meanReception(dist, shadow)
	if !(lo <= mean && mean <= hi) {
		t.Fatalf("meanBracket(%v, %v) = [%v, %v] misses the mean %v", dist, shadow, lo, hi, mean)
	}
	if strict && !((lo < mean || lo == 0) && (mean < hi || hi == p.PMax)) {
		t.Fatalf("meanBracket(%v, %v) = [%v, %v] touches the mean %v: no margin", dist, shadow, lo, hi, mean)
	}
	var f fading
	for _, ge := range []bool{false, true} {
		for _, gray := range []bool{false, true} {
			f.ge.on, f.gray.on = ge, gray
			if m := f.modulate(p, mean); !(f.modulate(p, lo) <= m && m <= f.modulate(p, hi)) {
				t.Fatalf("meanBracket(%v, %v) modulated (good %v, gray %v) misses the mean %v", dist, shadow, ge, gray, m)
			}
		}
	}
}

// TestMeanBracketEncloses: both sides enclose the computed mean, modulated,
// with their margin, across every row's edges — one step below, on and one
// step above each whole number of falloffs past the 50 % point, and halfway
// to the next — from beyond the first row to beyond the last, for four
// shadows (the 10 m floor's among them), and at the values no distance
// should produce. Params the argument cannot stand on report ok == false.
func TestMeanBracketEncloses(t *testing.T) {
	p := DefaultParams()
	for _, shadow := range []float64{0, -31.7, -400, 2600} {
		d50 := max(p.D50+shadow, 10)
		for k := -66; k < 70; k++ {
			edge := d50 + float64(k)*p.FalloffM
			for _, dist := range []float64{math.Nextafter(edge, -1e9), edge, math.Nextafter(edge, 1e9), edge + p.FalloffM/2} {
				checkBracket(t, &p, dist, shadow, true)
			}
		}
	}
	for _, dist := range []float64{0, -5, 1e300, -1e300, math.Inf(1), math.Inf(-1)} {
		checkBracket(t, &p, dist, 0, false)
	}
	if _, _, ok := p.meanBracket(math.NaN(), 0); ok {
		t.Error("meanBracket of a NaN distance claims to hold")
	}
	for name, set := range map[string]func(*Params){
		"PMax<0":     func(p *Params) { p.PMax = -0.85 },
		"PMax=NaN":   func(p *Params) { p.PMax = math.NaN() },
		"GoodMult<0": func(p *Params) { p.GoodMult = -1 },
		"BadMult<0":  func(p *Params) { p.BadMult = -0.08 },
		"GrayMult<0": func(p *Params) { p.GrayMult = -0.03 },
		"FalloffM=0": func(p *Params) { p.FalloffM = 0 },
	} {
		q := DefaultParams()
		set(&q)
		if _, _, ok := q.meanBracket(q.D50, 0); ok {
			t.Errorf("%s: meanBracket claims to hold", name)
		}
	}
}

// FuzzMeanBracket: for any distance and shadow, the bracket encloses the
// computed mean under every modulation. The seeds sit one step either side
// of, and on, every row edge of the table.
func FuzzMeanBracket(f *testing.F) {
	p := DefaultParams()
	for k := -65; k <= 64; k++ {
		edge := p.D50 + float64(k)*p.FalloffM
		f.Add(math.Nextafter(edge, -1e9), 0.0)
		f.Add(edge, 0.0)
		f.Add(math.Nextafter(edge, 1e9), 0.0)
	}
	f.Fuzz(func(t *testing.T, dist, shadow float64) {
		if dist != dist || shadow != shadow || p.falloff(dist, shadow) != p.falloff(dist, shadow) {
			return // NaN: the bracket reports ok == false (TestMeanBracketEncloses)
		}
		checkBracket(t, &p, dist, shadow, false)
	})
}
