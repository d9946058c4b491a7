package handoff

import (
	"time"

	"github.com/vanlan/vifi/internal/stats"
	"github.com/vanlan/vifi/internal/trace"
)

// Evaluate replays the trace against the policy using the paper's
// methodology: one packet per direction per slot, received iff the logged
// probe for (slot, chosen BS, direction) was received; for multi-BS
// policies a direction succeeds if any chosen BS's probe got through. The
// outcome is the policy's slot table, one row per trip (one row for a
// trace without trips), which the session metric reads exactly as it
// reads a live run's.
func Evaluate(pt *trace.ProbeTrace, p Policy) *stats.SlotTable {
	p.Reset(pt)
	up, down := make([]bool, pt.Slots), make([]bool, pt.Slots)
	for s := range pt.Slots {
		for _, b := range p.Step(s) {
			up[s] = up[s] || pt.Up[s][b]
			down[s] = down[s] || pt.Down[s][b]
		}
	}
	res := &stats.SlotTable{SlotDur: pt.SlotDur, Duration: time.Duration(pt.Slots) * pt.SlotDur}
	for lo := 0; lo < pt.Slots; {
		hi := pt.Slots
		if pt.SlotsPerTrip > 0 {
			hi = min(lo+pt.SlotsPerTrip, pt.Slots)
		}
		res.Up = append(res.Up, up[lo:hi:hi])
		res.Down = append(res.Down, down[lo:hi:hi])
		lo = hi
	}
	return res
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
