package handoff

import (
	"math"
	"testing"
	"time"

	"github.com/vanlan/vifi/internal/mobility"
	"github.com/vanlan/vifi/internal/trace"
)

// syntheticTrace builds a hand-crafted ProbeTrace: 2 BSes, 10 slots/sec.
// BS 0 is perfect for the first half, dead after; BS 1 the reverse.
func syntheticTrace(slots int) *trace.ProbeTrace {
	pt := &trace.ProbeTrace{
		BSes:    []string{"bs0", "bs1"},
		SlotDur: 100 * time.Millisecond,
		Slots:   slots,
	}
	half := slots / 2
	for s := 0; s < slots; s++ {
		up := make([]bool, 2)
		down := make([]bool, 2)
		rssi := []float64{math.NaN(), math.NaN()}
		if s < half {
			up[0], down[0] = true, true
			rssi[0] = -40
		} else {
			up[1], down[1] = true, true
			rssi[1] = -45
		}
		pt.Up = append(pt.Up, up)
		pt.Down = append(pt.Down, down)
		pt.RSSI = append(pt.RSSI, rssi)
		pt.Pos = append(pt.Pos, mobility.Point{X: float64(s)})
	}
	return pt
}

func vanlanTrace(t testing.TB, seed int64, trips int) *trace.ProbeTrace {
	t.Helper()
	return trace.GenerateVanLANProbes(seed, trips)
}

func TestEvaluateAllBSesPerfectOnSynthetic(t *testing.T) {
	pt := syntheticTrace(200)
	res := Evaluate(pt, NewAllBSes(), time.Second)
	if res.Delivered() != 400 {
		t.Errorf("AllBSes delivered %d, want 400 (every slot both directions)", res.Delivered())
	}
	for i, r := range res.IntervalRatio {
		if r != 1 {
			t.Errorf("interval %d ratio = %v, want 1", i, r)
		}
	}
}

func TestEvaluateBRRTracksHandover(t *testing.T) {
	pt := syntheticTrace(400)
	res := Evaluate(pt, NewBRR(), time.Second)
	// BRR must capture most of both halves, losing only the adaptation lag
	// around the switch (EWMA α=0.5 halves in one second).
	if res.Delivered() < 700 {
		t.Errorf("BRR delivered %d/800; adaptation too slow", res.Delivered())
	}
	if res.Delivered() == 800 {
		t.Error("BRR delivered everything; it should lag at the handover")
	}
}

func TestEvaluateRSSIPicksStrongest(t *testing.T) {
	pt := syntheticTrace(400)
	res := Evaluate(pt, NewRSSI(), time.Second)
	if res.Delivered() < 700 {
		t.Errorf("RSSI delivered %d/800", res.Delivered())
	}
}

func TestStickyHoldsThroughTimeout(t *testing.T) {
	pt := syntheticTrace(400) // switch at slot 200; sticky timeout = 30 slots
	res := Evaluate(pt, NewSticky(), time.Second)
	// Sticky stays on dead BS0 for 3 s (30 slots ⇒ 60 packets lost) before
	// re-associating.
	if res.Delivered() > 800-55 {
		t.Errorf("Sticky delivered %d, too good — timeout not honored", res.Delivered())
	}
	if res.Delivered() < 600 {
		t.Errorf("Sticky delivered %d, never recovered", res.Delivered())
	}
}

func TestBestBSOracleBeatsPractical(t *testing.T) {
	pt := vanlanTrace(t, 11, 3)
	best := Evaluate(pt, NewBestBS(), time.Second)
	brr := Evaluate(pt, NewBRR(), time.Second)
	rssi := Evaluate(pt, NewRSSI(), time.Second)
	if best.Delivered() < brr.Delivered() {
		t.Errorf("BestBS (%d) worse than BRR (%d)", best.Delivered(), brr.Delivered())
	}
	if best.Delivered() < rssi.Delivered() {
		t.Errorf("BestBS (%d) worse than RSSI (%d)", best.Delivered(), rssi.Delivered())
	}
}

func TestAllBSesDominatesEverything(t *testing.T) {
	pt := vanlanTrace(t, 12, 3)
	all := Evaluate(pt, NewAllBSes(), time.Second)
	for _, p := range []Policy{NewRSSI(), NewBRR(), NewSticky(), NewHistory(), NewBestBS()} {
		r := Evaluate(pt, p, time.Second)
		if r.Delivered() > all.Delivered() {
			t.Errorf("%s (%d) beat AllBSes (%d)", p.Name(), r.Delivered(), all.Delivered())
		}
	}
}

func TestPaperOrderingOnVanLAN(t *testing.T) {
	// The paper's Fig 2 ordering: AllBSes > BestBS > {History,RSSI,BRR} > Sticky.
	pt := vanlanTrace(t, 13, 6)
	get := func(p Policy) int { return Evaluate(pt, p, time.Second).Delivered() }
	all := get(NewAllBSes())
	best := get(NewBestBS())
	brr := get(NewBRR())
	sticky := get(NewSticky())
	if !(all > best && best > brr && brr > sticky) {
		t.Errorf("ordering violated: AllBSes=%d BestBS=%d BRR=%d Sticky=%d",
			all, best, brr, sticky)
	}
	// "Ignoring Sticky, all methods are within 25% of AllBSes" — allow a
	// little slack for our substrate.
	if float64(brr) < float64(all)*0.65 {
		t.Errorf("BRR (%d) too far below AllBSes (%d)", brr, all)
	}
}

func TestSessionLengthsOrdering(t *testing.T) {
	// The headline §3.3 finding: median session (time-weighted, 50% in 1s)
	// of AllBSes exceeds BestBS, which exceeds BRR.
	pt := vanlanTrace(t, 14, 6)
	med := func(p Policy) float64 {
		return Evaluate(pt, p, time.Second).MedianSessionTimeWeighted(0.5)
	}
	all := med(NewAllBSes())
	best := med(NewBestBS())
	brr := med(NewBRR())
	if !(all > best && best >= brr) {
		t.Errorf("session medians: AllBSes=%v BestBS=%v BRR=%v", all, best, brr)
	}
	if all < brr*2 {
		t.Errorf("AllBSes median (%v) should be ≫ BRR (%v)", all, brr)
	}
}

func TestSessionsRespectTripBoundaries(t *testing.T) {
	pt := syntheticTrace(400)
	pt.SlotsPerTrip = 100 // 4 trips of 10 s
	res := Evaluate(pt, NewAllBSes(), time.Second)
	lens := res.Sessions(0.5)
	// Perfect connectivity, but split at trip boundaries: 4 sessions of 10 s.
	if len(lens) != 4 {
		t.Fatalf("sessions = %v, want 4 entries", lens)
	}
	for _, l := range lens {
		if l != 10 {
			t.Errorf("session length %v, want 10", l)
		}
	}
}

func TestSessionsSplitOnBadIntervals(t *testing.T) {
	r := &Result{
		Policy:        "x",
		IntervalDur:   time.Second,
		IntervalRatio: []float64{1, 1, 0.2, 1, 1, 1, 0.1, 1},
		IntervalTrip:  []int{0, 0, 0, 0, 0, 0, 0, 0},
	}
	lens := r.Sessions(0.5)
	want := []float64{2, 3, 1}
	if len(lens) != len(want) {
		t.Fatalf("sessions = %v, want %v", lens, want)
	}
	for i := range want {
		if lens[i] != want[i] {
			t.Errorf("session %d = %v, want %v", i, lens[i], want[i])
		}
	}
}

func TestMedianTimeWeighted(t *testing.T) {
	// Sessions: 1s ×9 and one 91s session (the row stats.TestTimeWeightedMedian
	// pins). Time-weighted median = 91 (more than half the time is inside
	// the long session); the plain median would be 1.
	r := &Result{IntervalDur: time.Second}
	for i := 0; i < 9; i++ {
		r.IntervalRatio = append(r.IntervalRatio, 1, 0)
	}
	for i := 0; i < 91; i++ {
		r.IntervalRatio = append(r.IntervalRatio, 1)
	}
	r.IntervalTrip = make([]int, len(r.IntervalRatio))
	if got := r.MedianSessionTimeWeighted(0.5); got != 91 {
		t.Errorf("time-weighted median = %v, want 91", got)
	}
	if got := (&Result{IntervalDur: time.Second}).MedianSessionTimeWeighted(0.5); got != 0 {
		t.Errorf("empty median = %v", got)
	}
}

func TestSessionTimeCDF(t *testing.T) {
	xs, ps := SessionTimeCDF([]float64{1, 1, 2, 4})
	// Total time 8: ≤1 → 2/8, ≤2 → 4/8, ≤4 → 8/8.
	wantX := []float64{1, 2, 4}
	wantP := []float64{25, 50, 100}
	if len(xs) != 3 {
		t.Fatalf("xs = %v", xs)
	}
	for i := range wantX {
		if xs[i] != wantX[i] || math.Abs(ps[i]-wantP[i]) > 1e-9 {
			t.Errorf("point %d = (%v,%v), want (%v,%v)", i, xs[i], ps[i], wantX[i], wantP[i])
		}
	}
}

func TestHistoryLearnsAcrossTrips(t *testing.T) {
	// Build a trace with 3 identical trips where BS0 is always best in the
	// first half of the route and BS1 in the second half.
	const tripSlots = 200
	pt := &trace.ProbeTrace{
		BSes:         []string{"bs0", "bs1"},
		SlotDur:      100 * time.Millisecond,
		Slots:        3 * tripSlots,
		SlotsPerTrip: tripSlots,
	}
	for s := 0; s < pt.Slots; s++ {
		in := s % tripSlots
		up := make([]bool, 2)
		down := make([]bool, 2)
		rssi := []float64{math.NaN(), math.NaN()}
		if in < tripSlots/2 {
			up[0], down[0], rssi[0] = true, true, -40
		} else {
			up[1], down[1], rssi[1] = true, true, -40
		}
		pt.Up = append(pt.Up, up)
		pt.Down = append(pt.Down, down)
		pt.RSSI = append(pt.RSSI, rssi)
		pt.Pos = append(pt.Pos, mobility.Point{X: float64(in)})
	}
	h := NewHistory()
	h.Reset(pt)
	// First trip: no history. Later trips: perfect prediction.
	delivered := make([]int, 3)
	for s := 0; s < pt.Slots; s++ {
		set := h.Step(s)
		for _, b := range set {
			if pt.Up[s][b] {
				delivered[s/tripSlots]++
			}
			if pt.Down[s][b] {
				delivered[s/tripSlots]++
			}
		}
	}
	if delivered[2] < delivered[0] {
		t.Errorf("history got worse with experience: %v", delivered)
	}
	if delivered[2] < 2*tripSlots-20 {
		t.Errorf("trip 3 delivered %d/%d; history not used", delivered[2], 2*tripSlots)
	}
}

func TestPracticalPoliciesAreCausal(t *testing.T) {
	// Flipping the future must not change a practical policy's choice at
	// the present slot.
	base := vanlanTrace(t, 15, 2)
	probe := vanlanTrace(t, 15, 2)
	cut := base.Slots / 2
	for s := cut; s < probe.Slots; s++ {
		for b := range probe.BSes {
			probe.Down[s][b] = !probe.Down[s][b]
			probe.Up[s][b] = !probe.Up[s][b]
		}
	}
	for _, mk := range []func() Policy{
		func() Policy { return NewRSSI() },
		func() Policy { return NewBRR() },
		func() Policy { return NewSticky() },
		func() Policy { return NewHistory() },
	} {
		p1, p2 := mk(), mk()
		p1.Reset(base)
		p2.Reset(probe)
		for s := 0; s < cut; s++ {
			a := p1.Step(s)
			b := p2.Step(s)
			if len(a) != len(b) || (len(a) > 0 && a[0] != b[0]) {
				t.Errorf("%s is not causal at slot %d: %v vs %v", p1.Name(), s, a, b)
				break
			}
		}
	}
}

func TestTripTimeline(t *testing.T) {
	pt := vanlanTrace(t, 16, 2)
	tl := TripTimeline(pt, NewBRR(), 0, 0.5)
	if len(tl.Adequate) == 0 {
		t.Fatal("empty timeline")
	}
	if len(tl.Adequate) != len(tl.Positions) {
		t.Fatal("positions and adequacy disagree")
	}
	// Interruptions must coincide with the beginning of inadequate runs.
	for _, in := range tl.Interruptions {
		if tl.Adequate[in.AtSecond] {
			t.Errorf("interruption at second %d marked adequate", in.AtSecond)
		}
		if in.AtSecond > 0 && !tl.Adequate[in.AtSecond-1] {
			t.Errorf("interruption at %d not a transition", in.AtSecond)
		}
	}
	// BRR on VanLAN should suffer at least one interruption per trip
	// (the Fig 3a finding).
	if len(tl.Interruptions) == 0 {
		t.Error("BRR trip had no interruptions at all")
	}
}

func TestEvaluateIntervalSizes(t *testing.T) {
	pt := syntheticTrace(400)
	for _, iv := range []time.Duration{500 * time.Millisecond, time.Second, 4 * time.Second} {
		res := Evaluate(pt, NewAllBSes(), iv)
		wantIntervals := int(time.Duration(400) * 100 * time.Millisecond / iv)
		if len(res.IntervalRatio) != wantIntervals {
			t.Errorf("interval %v: got %d intervals, want %d", iv, len(res.IntervalRatio), wantIntervals)
		}
	}
}

func TestLongerIntervalsNeverShortenSessions(t *testing.T) {
	// A longer averaging interval is a weaker requirement (Fig 4a): the
	// median session must be non-decreasing in the interval.
	pt := vanlanTrace(t, 17, 4)
	prev := -1.0
	for _, iv := range []time.Duration{time.Second, 2 * time.Second, 4 * time.Second, 8 * time.Second} {
		res := Evaluate(pt, NewBRR(), iv)
		med := res.MedianSessionTimeWeighted(0.5)
		if med < prev {
			t.Errorf("median session shrank from %v to %v at interval %v", prev, med, iv)
		}
		prev = med
	}
}
