package handoff

import (
	"time"

	"github.com/vanlan/vifi/internal/mobility"
	"github.com/vanlan/vifi/internal/stats"
	"github.com/vanlan/vifi/internal/trace"
)

// Result is the outcome of evaluating a handoff policy over a probe trace.
type Result struct {
	Policy string
	// DeliveredUp/Down count probe packets that got through per direction
	// (one per slot per direction is attempted, §3.1).
	DeliveredUp, DeliveredDown int
	Slots                      int
	// IntervalRatio[i] is the combined (both-direction) reception ratio of
	// interval i under the evaluated association.
	IntervalRatio []float64
	// IntervalTrip[i] is the trip each interval belongs to.
	IntervalTrip []int
	// IntervalDur is the length of one interval.
	IntervalDur time.Duration
}

// Delivered returns the total packets delivered in both directions.
func (r *Result) Delivered() int { return r.DeliveredUp + r.DeliveredDown }

// Evaluate replays the trace against the policy using the paper's
// methodology: one packet per direction per slot, received iff the logged
// probe for (slot, chosen BS, direction) was received; for multi-BS
// policies a direction succeeds if any chosen BS's probe got through.
// Interval statistics are computed over windows of the given duration.
func Evaluate(pt *trace.ProbeTrace, p Policy, interval time.Duration) *Result {
	if interval <= 0 {
		interval = time.Second
	}
	spi := int(interval / pt.SlotDur) // slots per interval
	if spi < 1 {
		spi = 1
	}
	p.Reset(pt)
	res := &Result{Policy: p.Name(), Slots: pt.Slots, IntervalDur: interval}

	winDelivered, winSlots := 0, 0
	winTrip := 0
	flush := func() {
		if winSlots == 0 {
			return
		}
		res.IntervalRatio = append(res.IntervalRatio, float64(winDelivered)/float64(2*winSlots))
		res.IntervalTrip = append(res.IntervalTrip, winTrip)
		winDelivered, winSlots = 0, 0
	}

	for s := 0; s < pt.Slots; s++ {
		tr := tripOf(pt, s)
		if winSlots > 0 && (tr != winTrip || winSlots == spi) {
			flush()
		}
		winTrip = tr
		set := p.Step(s)
		up, down := false, false
		for _, b := range set {
			if pt.Up[s][b] {
				up = true
			}
			if pt.Down[s][b] {
				down = true
			}
		}
		if up {
			res.DeliveredUp++
			winDelivered++
		}
		if down {
			res.DeliveredDown++
			winDelivered++
		}
		winSlots++
	}
	flush()
	return res
}

// Sessions extracts uninterrupted-connectivity session lengths (seconds)
// from the result: a session is a maximal run of intervals, within one
// trip, whose combined reception ratio meets minRatio (§3.3: "contiguous
// time intervals when the performance of an application is above a
// threshold") — the shared session reducer, read once per trip.
func (r *Result) Sessions(minRatio float64) []float64 {
	var out []float64
	for lo := 0; lo < len(r.IntervalRatio); {
		hi := lo + 1
		for hi < len(r.IntervalRatio) && r.IntervalTrip[hi] == r.IntervalTrip[lo] {
			hi++
		}
		lens, _ := stats.Sessions(r.IntervalRatio[lo:hi], minRatio, r.IntervalDur.Seconds())
		out = append(out, lens...)
		lo = hi
	}
	return out
}

// MedianSessionTimeWeighted returns the median session length weighted by
// time spent in sessions — the y-metric of Fig 3d/4/7 ("the cumulative
// time clients spend in an uninterrupted session of a given length").
func (r *Result) MedianSessionTimeWeighted(minRatio float64) float64 {
	return stats.TimeWeightedMedian(r.Sessions(minRatio))
}

// SessionTimeCDF returns the CDF of time spent in sessions of a given
// length (Fig 3d): for each session length x, the fraction of total
// session time spent in sessions of length ≤ x.
func SessionTimeCDF(lens []float64) (xs, ps []float64) {
	if len(lens) == 0 {
		return nil, nil
	}
	s := stats.NewSample(len(lens))
	total := 0.0
	for _, l := range lens {
		s.Add(l)
		total += l
	}
	s.Sort()
	cum := 0.0
	vals := s.Values()
	for i := 0; i < len(vals); i++ {
		cum += vals[i]
		if i+1 < len(vals) && vals[i+1] == vals[i] {
			continue
		}
		xs = append(xs, vals[i])
		ps = append(ps, cum/total*100)
	}
	return xs, ps
}

// Interruption marks a connectivity gap along the vehicle path
// (the dark circles of Fig 3a–c and Fig 8).
type Interruption struct {
	Pos      mobility.Point
	AtSecond int
}

// Timeline describes one trip's connectivity under a policy: per interval,
// whether connectivity was adequate, plus where interruptions began.
type Timeline struct {
	Adequate      []bool
	Positions     []mobility.Point
	Interruptions []Interruption
}

// TripTimeline evaluates the policy over the whole trace and returns the
// qualitative connectivity timeline of the given trip (Fig 3a–c / Fig 8).
func TripTimeline(pt *trace.ProbeTrace, p Policy, trip int, minRatio float64) *Timeline {
	res := Evaluate(pt, p, time.Second)
	tl := &Timeline{}
	sps := slotsPerSecond(pt)
	prevAdequate := true
	for i, ratio := range res.IntervalRatio {
		if res.IntervalTrip[i] != trip {
			continue
		}
		ok := ratio >= minRatio
		slot := i * sps
		var pos mobility.Point
		if slot < len(pt.Pos) {
			pos = pt.Pos[slot]
		}
		tl.Adequate = append(tl.Adequate, ok)
		tl.Positions = append(tl.Positions, pos)
		if !ok && prevAdequate {
			tl.Interruptions = append(tl.Interruptions, Interruption{Pos: pos, AtSecond: len(tl.Adequate) - 1})
		}
		prevAdequate = ok
	}
	return tl
}
