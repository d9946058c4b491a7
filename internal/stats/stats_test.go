package stats

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestSampleBasics(t *testing.T) {
	s := NewSample(4)
	if s.Len() != 0 {
		t.Fatalf("new sample len = %d, want 0", s.Len())
	}
	s.AddAll(3, 1, 4, 1, 5)
	if s.Len() != 5 {
		t.Fatalf("len = %d, want 5", s.Len())
	}
	if got := s.Mean(); !almostEqual(got, 2.8, 1e-12) {
		t.Errorf("mean = %v, want 2.8", got)
	}
}

func TestSampleEmptyReductions(t *testing.T) {
	var s Sample
	if s.Mean() != 0 || s.Quantile(0.5) != 0 {
		t.Error("empty sample reductions should be 0")
	}
	if s.Variance() != 0 || s.Stddev() != 0 {
		t.Error("empty sample spread should be 0")
	}
	m, hw := s.MeanCI95()
	if m != 0 || hw != 0 {
		t.Error("empty sample CI should be 0")
	}
}

func TestQuantileInterpolation(t *testing.T) {
	var s Sample
	s.AddAll(10, 20, 30, 40)
	cases := []struct{ q, want float64 }{
		{0, 10}, {1, 40}, {0.5, 25}, {1.0 / 3, 20}, {0.25, 17.5},
	}
	for _, c := range cases {
		if got := s.Quantile(c.q); !almostEqual(got, c.want, 1e-9) {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestQuantileSingleElement(t *testing.T) {
	var s Sample
	s.Add(7)
	for _, q := range []float64{0, 0.3, 0.5, 1} {
		if got := s.Quantile(q); got != 7 {
			t.Errorf("Quantile(%v) = %v, want 7", q, got)
		}
	}
}

func TestVarianceKnown(t *testing.T) {
	var s Sample
	s.AddAll(2, 4, 4, 4, 5, 5, 7, 9)
	// Population variance is 4, sample (unbiased) variance is 32/7.
	if got, want := s.Variance(), 32.0/7.0; !almostEqual(got, want, 1e-12) {
		t.Errorf("variance = %v, want %v", got, want)
	}
}

func TestMeanCI95ShrinksWithN(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	small, large := NewSample(100), NewSample(10000)
	for i := 0; i < 100; i++ {
		small.Add(rng.NormFloat64())
	}
	for i := 0; i < 10000; i++ {
		large.Add(rng.NormFloat64())
	}
	_, hwSmall := small.MeanCI95()
	_, hwLarge := large.MeanCI95()
	if hwLarge >= hwSmall {
		t.Errorf("CI did not shrink: n=100 hw=%v, n=10000 hw=%v", hwSmall, hwLarge)
	}
}

// cdfOf builds a CDF from raw values.
func cdfOf(values []float64) *CDF {
	var s Sample
	s.AddAll(values...)
	return NewCDF(&s)
}

func TestCDFBasics(t *testing.T) {
	c := cdfOf([]float64{1, 2, 2, 3})
	cases := []struct{ x, want float64 }{
		{0.5, 0}, {1, 0.25}, {2, 0.75}, {2.5, 0.75}, {3, 1}, {9, 1},
	}
	for _, cse := range cases {
		if got := c.P(cse.x); !almostEqual(got, cse.want, 1e-12) {
			t.Errorf("P(%v) = %v, want %v", cse.x, got, cse.want)
		}
	}
}

func TestCDFEmpty(t *testing.T) {
	c := cdfOf(nil)
	if c.P(3) != 0 || c.Len() != 0 {
		t.Error("empty CDF should return zeros")
	}
}

// Property: a CDF is monotone non-decreasing and bounded in [0,1].
func TestCDFMonotoneProperty(t *testing.T) {
	f := func(values []float64, probes []float64) bool {
		c := cdfOf(values)
		sort.Float64s(probes)
		prev := 0.0
		for _, x := range probes {
			p := c.P(x)
			if p < prev-1e-12 || p < 0 || p > 1 {
				return false
			}
			prev = p
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Quantile is monotone in q and brackets to [min, max].
func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		// Avoid NaN/Inf noise from quick's generator.
		var s Sample
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return true
			}
			s.Add(x)
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.1 {
			v := s.Quantile(q)
			if v < prev {
				return false
			}
			prev = v
		}
		xs := s.Values()
		return len(xs) == 0 || s.Quantile(0) == slices.Min(xs) && s.Quantile(1) == slices.Max(xs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestEWMAKnownSequence(t *testing.T) {
	e := NewEWMA(0.5)
	if e.Initialized() {
		t.Fatal("fresh EWMA reports initialized")
	}
	e.Update(1)
	if got := e.Value(); got != 1 {
		t.Fatalf("after first update value = %v, want 1", got)
	}
	e.Update(0)
	if got := e.Value(); !almostEqual(got, 0.5, 1e-12) {
		t.Errorf("value = %v, want 0.5", got)
	}
	e.Update(1)
	if got := e.Value(); !almostEqual(got, 0.75, 1e-12) {
		t.Errorf("value = %v, want 0.75", got)
	}
	e.Reset()
	if e.Initialized() || e.Value() != 0 {
		t.Error("reset did not clear EWMA")
	}
}

func TestEWMAConvergesToConstant(t *testing.T) {
	e := NewEWMA(0.5)
	for i := 0; i < 64; i++ {
		e.Update(0.7)
	}
	if !almostEqual(e.Value(), 0.7, 1e-9) {
		t.Errorf("EWMA of constant = %v, want 0.7", e.Value())
	}
}

func TestEWMABadAlphaPanics(t *testing.T) {
	for _, a := range []float64{0, -1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewEWMA(%v) did not panic", a)
				}
			}()
			NewEWMA(a)
		}()
	}
}

func TestMeanCI95Coverage(t *testing.T) {
	// The 95% CI of the mean should cover the true mean ~95% of the time.
	rng := rand.New(rand.NewSource(4))
	covered := 0
	const trials = 400
	for i := 0; i < trials; i++ {
		s := NewSample(50)
		for j := 0; j < 50; j++ {
			s.Add(rng.NormFloat64())
		}
		m, hw := s.MeanCI95()
		if m-hw <= 0 && 0 <= m+hw {
			covered++
		}
	}
	frac := float64(covered) / trials
	if frac < 0.88 || frac > 0.99 {
		t.Errorf("CI coverage = %v, want ≈0.95", frac)
	}
}

// TestSessions pins the session reducer against hand-computed values:
// the same runs and interruption counts the SlotTable, handoff and voip
// tests expect from their readings of it.
func TestSessions(t *testing.T) {
	cases := []struct {
		name          string
		vals          []float64
		min, unitSec  float64
		lens          []float64
		interruptions int
	}{
		{"empty", nil, 0.5, 1, nil, 0},
		{"all adequate", []float64{1, 0.5, 0.75}, 0.5, 1, []float64{3}, 0},
		{"all inadequate", []float64{0, 0.25}, 0.5, 1, nil, 1},
		{"opens inadequate", []float64{0, 1, 1}, 0.5, 1, []float64{2}, 1},
		{"alternating", []float64{1, 0, 1, 0, 1}, 0.5, 1, []float64{1, 1, 1}, 2},
		{"adjacent gaps merge", []float64{1, 1, 0, 0, 1, 0}, 0.5, 1, []float64{2, 1}, 2},
		{"half-second intervals", []float64{0.9, 0.9, 0.1, 0.9}, 0.5, 0.5, []float64{1, 0.5}, 1},
		{"3 s MoS windows", []float64{4, 4, 1.5, 4, 4, 4}, 2, 3, []float64{6, 9}, 1},
	}
	for _, c := range cases {
		lens, n := Sessions(c.vals, c.min, c.unitSec)
		if !slices.Equal(lens, c.lens) || n != c.interruptions {
			t.Errorf("%s: Sessions = %v, %d; want %v, %d", c.name, lens, n, c.lens, c.interruptions)
		}
	}
}

func TestTimeWeightedMedian(t *testing.T) {
	if got := TimeWeightedMedian(nil); got != 0 {
		t.Errorf("empty = %v, want 0", got)
	}
	// Half of the 10 s of session time is reached inside the 8 s session.
	if got := TimeWeightedMedian([]float64{1, 1, 8}); got != 8 {
		t.Errorf("got %v, want 8", got)
	}
	// One long session dominates many short ones.
	lens := []float64{91}
	for i := 0; i < 9; i++ {
		lens = append(lens, 1)
	}
	if got := TimeWeightedMedian(lens); got != 91 {
		t.Errorf("got %v, want 91", got)
	}
}
