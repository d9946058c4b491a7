// Package stats provides the small statistical toolkit used throughout the
// ViFi reproduction: samples with quantiles and confidence intervals,
// empirical CDFs, exponentially weighted moving averages, and the paper's
// session metric (Sessions, TimeWeightedMedian, and the SlotTable that
// feeds them).
//
// The package is deliberately dependency-free and allocation-conscious; the
// experiment harnesses construct millions of samples per run.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrNoSamples is returned by reductions over an empty sample set.
var ErrNoSamples = errors.New("stats: no samples")

// Sample is a growable collection of float64 observations.
//
// The zero value is ready to use. Sample keeps insertion order until a
// quantile or CDF is requested, at which point it sorts a private copy (or
// itself, via Sort, when the caller permits).
type Sample struct {
	xs     []float64
	sorted bool
}

// NewSample returns a Sample pre-sized for n observations.
func NewSample(n int) *Sample {
	return &Sample{xs: make([]float64, 0, n)}
}

// TimeWeightedMedian returns the paper's §5.2 session median: the value
// at which half the summed mass is accumulated (for session lengths,
// the length below which half the in-session time falls). Returns 0 for
// an empty slice; the input is not mutated.
func TimeWeightedMedian(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	cp := append([]float64(nil), vs...)
	sort.Float64s(cp)
	total := 0.0
	for _, v := range cp {
		total += v
	}
	cum := 0.0
	for _, v := range cp {
		cum += v
		if cum >= total/2 {
			return v
		}
	}
	return cp[len(cp)-1]
}

// Sessions is the session reducer under the paper's §3, §5.2 and §5.3.2
// metrics. vals scores consecutive intervals of unitSec seconds each; an
// interval is adequate when its value is at least min. It returns the
// length in seconds of every uninterrupted session (maximal run of
// adequate intervals) and the number of interruptions
// (adequate→inadequate transitions; a series that opens inadequate
// counts one).
func Sessions(vals []float64, min, unitSec float64) (lens []float64, interruptions int) {
	run, prev := 0, true
	flush := func() {
		if run > 0 {
			lens = append(lens, float64(run)*unitSec)
			run = 0
		}
	}
	for _, v := range vals {
		ok := v >= min
		if ok {
			run++
		} else if prev {
			interruptions++
			flush()
		}
		prev = ok
	}
	flush()
	return lens, interruptions
}

// Add appends one observation.
func (s *Sample) Add(x float64) {
	s.xs = append(s.xs, x)
	s.sorted = false
}

// AddAll appends every observation in xs.
func (s *Sample) AddAll(xs ...float64) {
	s.xs = append(s.xs, xs...)
	s.sorted = false
}

// Len reports the number of observations.
func (s *Sample) Len() int { return len(s.xs) }

// Values returns the underlying observations. The slice is shared with the
// Sample; callers must not modify it.
func (s *Sample) Values() []float64 { return s.xs }

// Sort sorts the sample in place. Subsequent quantile queries are O(1).
func (s *Sample) Sort() {
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
}

// Mean returns the arithmetic mean, or 0 for an empty sample.
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range s.xs {
		sum += x
	}
	return sum / float64(len(s.xs))
}

// Variance returns the unbiased sample variance, or 0 when fewer than two
// observations are present.
func (s *Sample) Variance() float64 {
	n := len(s.xs)
	if n < 2 {
		return 0
	}
	m := s.Mean()
	ss := 0.0
	for _, x := range s.xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(n-1)
}

// Stddev returns the sample standard deviation.
func (s *Sample) Stddev() float64 { return math.Sqrt(s.Variance()) }

// Quantile returns the q-quantile (0 ≤ q ≤ 1) using linear interpolation
// between closest ranks. It sorts the sample if necessary.
func (s *Sample) Quantile(q float64) float64 {
	if len(s.xs) == 0 {
		return 0
	}
	s.Sort()
	return quantileSorted(s.xs, q)
}

// quantileSorted computes the interpolated q-quantile of sorted xs.
func quantileSorted(xs []float64, q float64) float64 {
	if q <= 0 {
		return xs[0]
	}
	if q >= 1 {
		return xs[len(xs)-1]
	}
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return xs[lo]
	}
	frac := pos - float64(lo)
	return xs[lo]*(1-frac) + xs[hi]*frac
}

// MeanCI95 returns the sample mean together with the half-width of its 95 %
// normal-approximation confidence interval (1.96·s/√n). For n < 2 the
// half-width is 0. The paper reports 95 % confidence intervals on all bar
// charts; this mirrors that convention.
func (s *Sample) MeanCI95() (mean, halfWidth float64) {
	n := len(s.xs)
	mean = s.Mean()
	if n < 2 {
		return mean, 0
	}
	halfWidth = 1.96 * s.Stddev() / math.Sqrt(float64(n))
	return mean, halfWidth
}

// CDF is an empirical cumulative distribution function over a fixed,
// sorted set of observations.
type CDF struct {
	xs []float64
}

// NewCDF builds an empirical CDF from the sample. The sample is copied.
func NewCDF(s *Sample) *CDF {
	xs := make([]float64, len(s.xs))
	copy(xs, s.xs)
	sort.Float64s(xs)
	return &CDF{xs: xs}
}

// Len reports the number of observations underlying the CDF.
func (c *CDF) Len() int { return len(c.xs) }

// P returns P[X ≤ x], the fraction of observations ≤ x.
func (c *CDF) P(x float64) float64 {
	if len(c.xs) == 0 {
		return 0
	}
	// Index of first element > x.
	i := sort.Search(len(c.xs), func(i int) bool { return c.xs[i] > x })
	return float64(i) / float64(len(c.xs))
}

// EWMA is an exponentially weighted moving average with smoothing factor
// alpha: avg ← alpha·x + (1−alpha)·avg. The paper uses alpha = 0.5 for both
// RSSI and beacon-reception-ratio averaging (§3.1, §4.6).
type EWMA struct {
	alpha float64
	value float64
	init  bool
}

// NewEWMA returns an EWMA with the given smoothing factor in (0, 1].
func NewEWMA(alpha float64) *EWMA {
	if alpha <= 0 || alpha > 1 {
		panic(fmt.Sprintf("stats: EWMA alpha %v out of (0,1]", alpha))
	}
	return &EWMA{alpha: alpha}
}

// Update folds one observation into the average and returns the new value.
// The first observation initializes the average.
func (e *EWMA) Update(x float64) float64 {
	if !e.init {
		e.value = x
		e.init = true
		return e.value
	}
	e.value = e.alpha*x + (1-e.alpha)*e.value
	return e.value
}

// Value returns the current average (0 before any update).
func (e *EWMA) Value() float64 { return e.value }

// Initialized reports whether at least one observation has been folded in.
func (e *EWMA) Initialized() bool { return e.init }

// Reset clears the average to its pristine state.
func (e *EWMA) Reset() { e.value, e.init = 0, false }
