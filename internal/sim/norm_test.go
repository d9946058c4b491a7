package sim

import (
	"math"
	"testing"
)

// boxMuller is NormFloat64 as it stood before it was split into
// NormUniforms and NormFrom: the reference for both halves of the contract,
// the variate's bits and where the stream is left.
func boxMuller(r *RNG) float64 {
	for {
		u := r.Float64()
		if u == 0 {
			continue
		}
		v := r.Float64()
		return math.Sqrt(-2*math.Log(u)) * math.Cos(2*math.Pi*v)
	}
}

// TestNormSplitMatchesBoxMuller: NormFloat64 and NormFrom(NormUniforms())
// yield the reference's variate bit for bit, draw after draw, and leave the
// stream exactly where it does — the property that lets a caller hold the
// uniforms and transform them later, or never.
func TestNormSplitMatchesBoxMuller(t *testing.T) {
	const draws = 1_000_000
	for _, seed := range []uint64{1, 8, 42, 3000, math.MaxUint64} {
		ref, whole, split := NewRNG(seed), NewRNG(seed), NewRNG(seed)
		for i := 0; i < draws; i++ {
			want := math.Float64bits(boxMuller(ref))
			if got := math.Float64bits(whole.NormFloat64()); got != want {
				t.Fatalf("seed %d draw %d: NormFloat64 = %#x, reference %#x", seed, i, got, want)
			}
			if got := math.Float64bits(NormFrom(split.NormUniforms())); got != want {
				t.Fatalf("seed %d draw %d: NormFrom(NormUniforms()) = %#x, reference %#x", seed, i, got, want)
			}
		}
		if *whole != *ref || *split != *ref {
			t.Errorf("seed %d: streams diverged from the reference after %d draws", seed, draws)
		}
	}
}

// TestNormUniformsRejectsZero: a zero first uniform is redrawn, as the
// reference redraws it, so the pair costs three words of the stream. A
// xoshiro state whose second word is zero outputs zero next.
func TestNormUniformsRejectsZero(t *testing.T) {
	start := RNG{s: [4]uint64{0x9e3779b97f4a7c15, 0, 0xbf58476d1ce4e5b9, 0x94d049bb133111eb}}
	if probe := start; probe.Float64() != 0 {
		t.Fatal("the crafted state does not open with a zero uniform")
	}
	ref, split := start, start
	want := boxMuller(&ref)
	u, v := split.NormUniforms()
	if u <= 0 || u >= 1 || v < 0 || v >= 1 {
		t.Fatalf("NormUniforms = (%v, %v), want u in (0,1) and v in [0,1)", u, v)
	}
	if got := NormFrom(u, v); math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("after a rejected zero: %v, reference %v", got, want)
	}
	if split != ref {
		t.Error("a rejected zero left the stream somewhere else than the reference")
	}
}

var normSink float64

// BenchmarkNormFloat64 and BenchmarkNormUniforms are the two sides of
// "RSSI noise on demand" (DESIGN §6): what a delivery decision paid per
// reading when it took the variate, and what it pays to advance the stream
// and keep the pair.
func BenchmarkNormFloat64(b *testing.B) {
	r := NewRNG(1)
	for i := 0; i < b.N; i++ {
		normSink += r.NormFloat64()
	}
}

func BenchmarkNormUniforms(b *testing.B) {
	r := NewRNG(1)
	for i := 0; i < b.N; i++ {
		u, v := r.NormUniforms()
		normSink += u + v
	}
}

// uniformFrom turns a 64-bit word into a uniform the way Float64 does; a
// zero, which NormUniforms never returns as u, stands for the smallest one.
func uniformFrom(word uint64, nonzero bool) float64 {
	num := word >> 11
	if nonzero && num == 0 {
		num = 1
	}
	return float64(num) / (1 << 53)
}

// FuzzNormBracket: for any pair NormUniforms can return, the variate lies
// inside its bracket. The seeds are where a table entry is an edge value:
// both ends of all 16 mantissa bins of all 53 binades of u (the last bin's
// upper end is the next binade's 2⁻ᵏ less one step), against v at each
// zero and extremum of the cosine and one step either side of it.
func FuzzNormBracket(f *testing.F) {
	var vs []uint64
	for q := uint64(0); q < 4; q++ {
		at := q << 51 // v = q/4 as a 53-bit numerator
		vs = append(vs, at<<11, (at+1)<<11, ((at-1)&(1<<53-1))<<11)
	}
	for k := 1; k <= 53; k++ {
		for m := uint64(0); m < 16; m++ {
			lo := (16 + m) << (53 - k) >> 4 // u = 2⁻ᵏ(1 + m/16) as a 53-bit numerator
			hi := (17+m)<<(53-k)>>4 - 1
			for _, v := range vs {
				f.Add(lo<<11, v)
				f.Add(hi<<11, v)
			}
		}
	}
	f.Fuzz(func(t *testing.T, ubits, vbits uint64) {
		u, v := uniformFrom(ubits, true), uniformFrom(vbits, false)
		n := NormFrom(u, v)
		if lo, hi := NormBracket(u, v); !(lo <= n && n <= hi) {
			t.Errorf("NormFrom(%v, %v) = %v outside NormBracket [%v, %v]", u, v, n, lo, hi)
		}
	})
}

// binadeRadius is the bound u's exponent alone gives on |NormFrom(u, v)|,
// whatever v: u ≥ 2⁻ᵏ in the binade 2⁻ᵏ ≤ u < 2¹⁻ᵏ, so the radius is at
// most sqrt(2k ln 2), and |cos| ≤ 1. A capture once asked this bound before
// the bracket; the bracket now answers for both.
func binadeRadius(u float64) float64 {
	k := 1023 - int(math.Float64bits(u)>>52)
	return math.Sqrt(2 * float64(k) * math.Ln2)
}

// normBoundSlack is how far past binadeRadius a bracket may reach: the
// tables' 1e-12 once for the radius and once for the cosine, and 1e-12
// more for the last places of the two ways the radius is computed.
const normBoundSlack = 1 + 3e-12

// FuzzNormBound: for any pair NormUniforms can return, the variate lies
// within the bound read off u's exponent, and so does its whole bracket —
// the bracket is never looser than the bound it replaced. The seeds are
// where that bound is tightest — both edges of each of the 53 binades, the
// lower one being u = 2⁻ᵏ itself, with cos at its extremes (v = 0 and
// v = ½).
func FuzzNormBound(f *testing.F) {
	for k := 1; k <= 53; k++ {
		lo := uint64(1) << (53 - k) // u = 2⁻ᵏ as a 53-bit numerator
		for _, num := range []uint64{lo, 2*lo - 1} {
			f.Add(num<<11, uint64(0))
			f.Add(num<<11, uint64(1)<<63)
		}
	}
	f.Add(uint64(0), uint64(0)) // folds to the smallest uniform, 2⁻⁵³
	f.Fuzz(func(t *testing.T, ubits, vbits uint64) {
		u, v := uniformFrom(ubits, true), uniformFrom(vbits, false)
		b := binadeRadius(u)
		if n := math.Abs(NormFrom(u, v)); !(n <= b*(1+1e-12)) {
			t.Errorf("|NormFrom(%v, %v)| = %v exceeds the binade's radius %v", u, v, n, b)
		}
		if lo, hi := NormBracket(u, v); !(-lo <= b*normBoundSlack && hi <= b*normBoundSlack) {
			t.Errorf("NormBracket(%v, %v) = [%v, %v] reaches past the binade's radius %v", u, v, lo, hi, b)
		}
	})
}

// TestNormBoundTable: across each binade the brackets reach the binade's
// own radius, to within normBoundSlack, on both sides — the bound u's
// exponent gives is attained, at u = 2⁻ᵏ with cos at ±1, and not exceeded.
func TestNormBoundTable(t *testing.T) {
	for k := 1; k <= 53; k++ {
		b := binadeRadius(math.Ldexp(1, -k))
		top, bottom := 0.0, 0.0
		for m := 0; m < 16; m++ {
			u := math.Ldexp(1+float64(m)/16, -k)
			for j := 0; j < 256; j++ {
				lo, hi := NormBracket(u, float64(j)/256)
				top, bottom = max(top, hi), min(bottom, lo)
			}
		}
		if top < b || top > b*normBoundSlack || -bottom < b || -bottom > b*normBoundSlack {
			t.Errorf("binade 2^-%d: brackets span [%v, %v], the binade's radius is %v", k, bottom, top, b)
		}
	}
}

// TestNormBracketTable: the bracket is tight — no wider than normBracketMax
// anywhere, normBracketMean on average — empty for a spent pair whatever v
// is, and holds on five million pairs drawn from each of three streams.
func TestNormBracketTable(t *testing.T) {
	const normBracketMax, normBracketMean = 0.26, 0.055
	for _, v := range []float64{0, 0.25, 0.3, 0.5, 0.75, math.Nextafter(1, 0)} {
		if lo, hi := NormBracket(1, v); lo != 0 || hi != 0 {
			t.Errorf("NormBracket(1, %v) = [%v, %v], want [0, 0]", v, lo, hi)
		}
	}
	for k := 1; k <= 53; k++ {
		for m := 0; m < 16; m++ {
			u := math.Ldexp(1+float64(m)/16, -k)
			for j := 0; j < 256; j++ {
				lo, hi := NormBracket(u, float64(j)/256)
				if w := hi - lo; !(w >= 0 && w <= normBracketMax) {
					t.Errorf("NormBracket(%v, %v) = [%v, %v]: width %v, want ≤ %v", u, float64(j)/256, lo, hi, w, normBracketMax)
				}
			}
		}
	}
	const draws = 5_000_000
	for _, seed := range []uint64{1, 42, 3000} {
		r, sum := NewRNG(seed), 0.0
		for i := 0; i < draws; i++ {
			u, v := r.NormUniforms()
			n := NormFrom(u, v)
			lo, hi := NormBracket(u, v)
			if !(lo <= n && n <= hi) {
				t.Fatalf("seed %d draw %d: NormFrom(%v, %v) = %v outside [%v, %v]", seed, i, u, v, n, lo, hi)
			}
			sum += hi - lo
		}
		if mean := sum / draws; mean > normBracketMean {
			t.Errorf("seed %d: mean bracket width %v, want ≤ %v", seed, mean, normBracketMean)
		}
	}
}

// BenchmarkNormBracket is what the first question of a capture costs per
// reading (DESIGN §6), beside the transform it mostly replaces.
func BenchmarkNormBracket(b *testing.B) {
	r := NewRNG(1)
	for i := 0; i < b.N; i++ {
		lo, hi := NormBracket(r.NormUniforms())
		normSink += lo + hi
	}
}
