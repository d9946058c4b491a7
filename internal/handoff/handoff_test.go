package handoff

import (
	"math"
	"slices"
	"testing"
	"time"

	"github.com/vanlan/vifi/internal/mobility"
	"github.com/vanlan/vifi/internal/trace"
)

// oneBSTrace builds a one-basestation ProbeTrace whose per-slot outcomes
// are up and down: replayed under AllBSes, its slot table is exactly them.
func oneBSTrace(up, down []bool, slotDur time.Duration, slotsPerTrip int) *trace.ProbeTrace {
	pt := &trace.ProbeTrace{BSes: []string{"bs0"}, SlotDur: slotDur, Slots: len(up), SlotsPerTrip: slotsPerTrip}
	for s := range up {
		pt.Up = append(pt.Up, []bool{up[s]})
		pt.Down = append(pt.Down, []bool{down[s]})
		pt.RSSI = append(pt.RSSI, []float64{math.NaN()})
		pt.Pos = append(pt.Pos, mobility.Point{})
	}
	return pt
}

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
	res := Evaluate(pt, NewAllBSes())
	if res.Delivered() != 400 {
		t.Errorf("AllBSes delivered %d, want 400 (every slot both directions)", res.Delivered())
	}
	if got := res.Sessions(time.Second, 1); !slices.Equal(got, []float64{20}) {
		t.Errorf("sessions at 100%% = %v, want one of 20 s", got)
	}
}

func TestEvaluateBRRTracksHandover(t *testing.T) {
	pt := syntheticTrace(400)
	res := Evaluate(pt, NewBRR())
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
	res := Evaluate(pt, NewRSSI())
	if res.Delivered() < 700 {
		t.Errorf("RSSI delivered %d/800", res.Delivered())
	}
}

func TestStickyHoldsThroughTimeout(t *testing.T) {
	pt := syntheticTrace(400) // switch at slot 200; sticky timeout = 30 slots
	res := Evaluate(pt, NewSticky())
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
	best := Evaluate(pt, NewBestBS())
	brr := Evaluate(pt, NewBRR())
	rssi := Evaluate(pt, NewRSSI())
	if best.Delivered() < brr.Delivered() {
		t.Errorf("BestBS (%d) worse than BRR (%d)", best.Delivered(), brr.Delivered())
	}
	if best.Delivered() < rssi.Delivered() {
		t.Errorf("BestBS (%d) worse than RSSI (%d)", best.Delivered(), rssi.Delivered())
	}
}

func TestAllBSesDominatesEverything(t *testing.T) {
	pt := vanlanTrace(t, 12, 3)
	all := Evaluate(pt, NewAllBSes())
	for _, p := range []Policy{NewRSSI(), NewBRR(), NewSticky(), NewHistory(), NewBestBS()} {
		r := Evaluate(pt, p)
		if r.Delivered() > all.Delivered() {
			t.Errorf("%s (%d) beat AllBSes (%d)", p.Name(), r.Delivered(), all.Delivered())
		}
	}
}

func TestPaperOrderingOnVanLAN(t *testing.T) {
	// The paper's Fig 2 ordering: AllBSes > BestBS > {History,RSSI,BRR} > Sticky.
	pt := vanlanTrace(t, 13, 6)
	get := func(p Policy) int { return Evaluate(pt, p).Delivered() }
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
		return Evaluate(pt, p).MedianSession(time.Second, 0.5)
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
	res := Evaluate(pt, NewAllBSes())
	lens := res.Sessions(time.Second, 0.5)
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
	ok := []bool{true, true, false, true, true, true, false, true}
	res := Evaluate(oneBSTrace(ok, ok, time.Second, 0), NewAllBSes())
	if lens := res.Sessions(time.Second, 0.5); !slices.Equal(lens, []float64{2, 3, 1}) {
		t.Errorf("sessions = %v, want [2 3 1]", lens)
	}
}

func TestMedianTimeWeighted(t *testing.T) {
	// Sessions: 1s ×9 and one 91s session (the row stats.TestTimeWeightedMedian
	// pins). Time-weighted median = 91 (more than half the time is inside
	// the long session); the plain median would be 1.
	var ok []bool
	for i := 0; i < 9; i++ {
		ok = append(ok, true, false)
	}
	for i := 0; i < 91; i++ {
		ok = append(ok, true)
	}
	if got := Evaluate(oneBSTrace(ok, ok, time.Second, 0), NewAllBSes()).MedianSession(time.Second, 0.5); got != 91 {
		t.Errorf("time-weighted median = %v, want 91", got)
	}
	if got := Evaluate(oneBSTrace(nil, nil, time.Second, 0), NewAllBSes()).MedianSession(time.Second, 0.5); got != 0 {
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
	res := Evaluate(pt, NewBRR())
	adequate, interruptions := res.Timeline(0)
	// One cell per whole second of the trip: its trailing partial second
	// is dropped.
	if want := pt.SlotsPerTrip / 10; len(adequate) != want {
		t.Fatalf("timeline has %d cells, want %d", len(adequate), want)
	}
	// Interruptions are the adequate→inadequate transitions (one if the
	// trip opens inadequate).
	n, prev := 0, true
	for _, ok := range adequate {
		if !ok && prev {
			n++
		}
		prev = ok
	}
	if interruptions != n {
		t.Errorf("interruptions = %d, the timeline shows %d", interruptions, n)
	}
	// BRR on VanLAN should suffer at least one interruption per trip
	// (the Fig 3a finding).
	if interruptions == 0 {
		t.Error("BRR trip had no interruptions at all")
	}
}

func TestEvaluateRowsPerTrip(t *testing.T) {
	// Trips of 15 s over a 40 s trace: rows of 150, 150 and 100 slots.
	pt := syntheticTrace(400)
	pt.SlotsPerTrip = 150
	res := Evaluate(pt, NewAllBSes())
	if len(res.Up) != 3 || len(res.Up[0]) != 150 || len(res.Up[2]) != 100 {
		t.Fatalf("rows of %d slots", len(res.Up))
	}
	// A trip's trailing partial interval is dropped: 15 s holds three
	// whole 4 s intervals, 10 s two.
	for _, tc := range []struct {
		iv   time.Duration
		want []float64
	}{
		{time.Second, []float64{15, 15, 10}},
		{4 * time.Second, []float64{12, 12, 8}},
	} {
		if got := res.Sessions(tc.iv, 0.5); !slices.Equal(got, tc.want) {
			t.Errorf("interval %v: sessions %v, want %v", tc.iv, got, tc.want)
		}
	}
}

func TestLongerIntervalsNeverShortenSessions(t *testing.T) {
	// A longer averaging interval is a weaker requirement (Fig 4a): the
	// median session must be non-decreasing in the interval.
	pt := vanlanTrace(t, 17, 4)
	res := Evaluate(pt, NewBRR())
	prev := -1.0
	for _, iv := range []time.Duration{time.Second, 2 * time.Second, 4 * time.Second, 8 * time.Second} {
		med := res.MedianSession(iv, 0.5)
		if med < prev {
			t.Errorf("median session shrank from %v to %v at interval %v", prev, med, iv)
		}
		prev = med
	}
}
