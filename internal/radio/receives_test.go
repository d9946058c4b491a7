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
// at the default D50 and at the 50 % points a scenario's range= can set:
// a short 60 m and a long 400 m, and 5 m, where the 10 m floor takes over.
// Under each, both sides of the bracket have to be seen deciding.
func TestReceivesMatchesReceiveProb(t *testing.T) {
	for _, tc := range []struct {
		name string
		d50  float64
	}{
		{"default", DefaultParams().D50},
		{"range=60", 60},
		{"range=400", 400},
		{"D50 floor", 5},
	} {
		p := DefaultParams()
		p.D50 = tc.d50
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
		if byBound == 0 || heard == 0 {
			t.Errorf("%s: %d coins settled by the bracket, %d of them heard; want some of each", tc.name, byBound, heard)
		}
		t.Logf("%s: %d received, %d settled by the bracket, %d of them heard", tc.name, received, byBound, heard)
	}
}

// checkBracket fails t unless meanBracket(dist, shadow) encloses the
// computed mean, and keeps enclosing it through each of the four
// modulations a decision can apply. With strict set it also asks for the
// margin: each side clear of the mean, except where the side is the curve's
// own limit (lo = 0 past the last row, hi = pMax before the first).
func checkBracket(t testing.TB, p *Params, dist, shadow float64, strict bool) {
	t.Helper()
	lo, hi, ok := p.meanBracket(dist, shadow)
	if !ok {
		t.Fatalf("meanBracket(%v, %v) at D50 %v does not hold", dist, shadow, p.D50)
	}
	mean := p.meanReception(dist, shadow)
	if !(lo <= mean && mean <= hi) {
		t.Fatalf("meanBracket(%v, %v) = [%v, %v] misses the mean %v", dist, shadow, lo, hi, mean)
	}
	if strict && !((lo < mean || lo == 0) && (mean < hi || hi == pMax)) {
		t.Fatalf("meanBracket(%v, %v) = [%v, %v] touches the mean %v: no margin", dist, shadow, lo, hi, mean)
	}
	var f fading
	for _, ge := range []bool{false, true} {
		for _, gray := range []bool{false, true} {
			f.ge.on, f.gray.on = ge, gray
			if m := f.modulate(mean); !(f.modulate(lo) <= m && m <= f.modulate(hi)) {
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
// should produce. A NaN distance reports ok == false.
func TestMeanBracketEncloses(t *testing.T) {
	p := DefaultParams()
	for _, shadow := range []float64{0, -31.7, -400, 2600} {
		d50 := max(p.D50+shadow, 10)
		for k := -66; k < 70; k++ {
			edge := d50 + float64(k)*falloffM
			for _, dist := range []float64{math.Nextafter(edge, -1e9), edge, math.Nextafter(edge, 1e9), edge + falloffM/2} {
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
}

// FuzzMeanBracket: for any distance, shadow and D50 a scenario's range= can
// set (finite, ≥ 0), the bracket encloses the computed mean under every
// modulation. The seeds sit one step either side of, and on, every row edge
// of the table, at the default D50 and at the 10 m floor.
func FuzzMeanBracket(f *testing.F) {
	for _, d50 := range []float64{DefaultParams().D50, 10} {
		for k := -65; k <= 64; k++ {
			edge := d50 + float64(k)*falloffM
			f.Add(math.Nextafter(edge, -1e9), 0.0, d50)
			f.Add(edge, 0.0, d50)
			f.Add(math.Nextafter(edge, 1e9), 0.0, d50)
		}
	}
	f.Fuzz(func(t *testing.T, dist, shadow, d50 float64) {
		if !(d50 >= 0) || math.IsInf(d50, 1) {
			return // not a D50 range= accepts
		}
		p := Params{D50: d50}
		if x := p.falloff(dist, shadow); x != x {
			return // NaN: the bracket reports ok == false (TestMeanBracketEncloses)
		}
		checkBracket(t, &p, dist, shadow, false)
	})
}
