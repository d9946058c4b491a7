package voip

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
	"time"
)

func TestRFactorKnownValues(t *testing.T) {
	// At the 177 ms target with no loss:
	// R = 94.2 − 4.248 − 0 − 11 − 0 = 78.952.
	r := RFactor(177, 0)
	if math.Abs(r-78.952) > 1e-9 {
		t.Errorf("R(177,0) = %v, want 78.952", r)
	}
	// Past the knee the delay impairment adds the 0.11 term.
	r300 := RFactor(300, 0)
	want := 94.2 - 0.024*300 - 0.11*(300-177.3) - 11
	if math.Abs(r300-want) > 1e-9 {
		t.Errorf("R(300,0) = %v, want %v", r300, want)
	}
	// Loss degrades sharply: e=0.1 adds 40·log10(2) ≈ 12.04.
	r = RFactor(177, 0.1)
	if math.Abs((78.952-r)-40*math.Log10(2)) > 1e-9 {
		t.Errorf("loss impairment wrong: %v", 78.952-r)
	}
}

func TestRFactorMonotone(t *testing.T) {
	f := func(d8, e8 uint8) bool {
		d := 100 + float64(d8)
		e := float64(e8) / 255
		// More loss and more delay never improve R.
		return RFactor(d, e+0.1) <= RFactor(d, e)+1e-12 &&
			RFactor(d+10, e) <= RFactor(d, e)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestMoSMapping(t *testing.T) {
	if MoS(-5) != 1 {
		t.Error("R<0 must map to 1")
	}
	if MoS(150) != 4.5 {
		t.Error("R>100 must map to 4.5")
	}
	// R=78.952 (zero loss at 177 ms) is a "fair"-ish call near 4.
	m := MoS(78.952)
	if m < 3.8 || m > 4.2 {
		t.Errorf("MoS(78.952) = %v, want ≈4", m)
	}
	// MoS is monotone in R on [15,100] (the standard cubic dips slightly
	// below its R=0 value at the extreme bottom of the scale).
	prev := 0.0
	for r := 15.0; r <= 100; r += 0.5 {
		m := MoS(r)
		if m < prev-1e-9 {
			t.Fatalf("MoS not monotone at R=%v", r)
		}
		prev = m
	}
}

func TestInterruptionRequiresSevereLoss(t *testing.T) {
	// The MoS<2 threshold corresponds to near-total loss in a window —
	// the paper's "severe disruption".
	eAt2 := 0.0
	for e := 0.0; e <= 1.0; e += 0.001 {
		if MoS(RFactor(MouthToEarTargetMs, e)) < InterruptionMoS {
			eAt2 = e
			break
		}
	}
	if eAt2 < 0.5 {
		t.Errorf("MoS<2 already at e=%v; threshold too sensitive", eAt2)
	}
	if eAt2 == 0 {
		t.Error("MoS never dropped below 2 even at full loss")
	}
}

func TestPacketOutcomeBudget(t *testing.T) {
	onTime := PacketOutcome{Received: true, Delay: 30 * time.Millisecond}
	late := PacketOutcome{Received: true, Delay: 80 * time.Millisecond}
	lost := PacketOutcome{Received: false}
	if !onTime.Usable() || onTime.Late() {
		t.Error("on-time packet misclassified")
	}
	if late.Usable() || !late.Late() {
		t.Error("late packet misclassified")
	}
	if lost.Usable() || lost.Late() {
		t.Error("lost packet misclassified")
	}
}

func addStream(c *Call, from, to time.Duration, usable bool) {
	for at := from; at < to; at += PacketInterval {
		p := PacketOutcome{SentAt: at, Received: usable, Delay: 10 * time.Millisecond}
		if !usable {
			p.Received = false
		}
		c.Add(p)
	}
}

func TestWindowsScoring(t *testing.T) {
	c := NewCall()
	// 0–6 s perfect, 6–9 s dead, 9–12 s perfect.
	addStream(c, 0, 6*time.Second, true)
	addStream(c, 6*time.Second, 9*time.Second, false)
	addStream(c, 9*time.Second, 12*time.Second, true)
	ws := c.Windows(12 * time.Second)
	if len(ws) != 4 {
		t.Fatalf("windows = %d, want 4", len(ws))
	}
	if ws[0].LossRate != 0 || ws[1].LossRate != 0 {
		t.Errorf("perfect windows have loss: %v %v", ws[0].LossRate, ws[1].LossRate)
	}
	if ws[2].LossRate != 1 {
		t.Errorf("dead window loss = %v, want 1", ws[2].LossRate)
	}
	if ws[2].MoS >= InterruptionMoS {
		t.Errorf("dead window MoS = %v, should be an interruption", ws[2].MoS)
	}
	if ws[3].MoS < 3.5 {
		t.Errorf("recovered window MoS = %v", ws[3].MoS)
	}
}

func TestEmptyWindowIsOutage(t *testing.T) {
	c := NewCall()
	addStream(c, 0, 3*time.Second, true)
	// Nothing sent in 3–6 s (e.g. the protocol had no anchor).
	ws := c.Windows(6 * time.Second)
	if ws[1].LossRate != 1 {
		t.Errorf("silent window loss = %v, want 1", ws[1].LossRate)
	}
}

// TestSessions checks the call's reading of the shared session reducer
// against the hand-computed row of stats.TestSessions ("3 s MoS
// windows"): good, good, bad, good, good, good → sessions of 6 s and 9 s
// around one interruption.
func TestSessions(t *testing.T) {
	c := NewCall()
	addStream(c, 0, 6*time.Second, true)
	addStream(c, 6*time.Second, 9*time.Second, false)
	addStream(c, 9*time.Second, 18*time.Second, true)
	q := c.Score(18 * time.Second)
	if !slices.Equal(q.SessionLens, []float64{6, 9}) || q.Interruptions != 1 {
		t.Errorf("sessions = %v, interruptions = %d; want [6 9], 1", q.SessionLens, q.Interruptions)
	}
	// Half the 15 s of in-session time is reached inside the 9 s session.
	if q.MedianSessionSec != 9 {
		t.Errorf("median session = %v, want 9", q.MedianSessionSec)
	}
	if q := c.Score(0); q.SessionLens != nil || q.Interruptions != 0 {
		t.Errorf("empty score = %+v", q)
	}
}

func TestScore(t *testing.T) {
	c := NewCall()
	addStream(c, 0, 30*time.Second, true)
	addStream(c, 30*time.Second, 33*time.Second, false)
	addStream(c, 33*time.Second, 60*time.Second, true)
	q := c.Score(60 * time.Second)
	if q.Interruptions != 1 {
		t.Errorf("interruptions = %d, want 1", q.Interruptions)
	}
	if q.Windows != 20 {
		t.Errorf("windows = %d, want 20", q.Windows)
	}
	// Sessions: 30 s and 27 s; time-weighted median is 30.
	if q.MedianSessionSec != 30 {
		t.Errorf("median session = %v, want 30", q.MedianSessionSec)
	}
	if q.MeanMoS < 3.5 {
		t.Errorf("mean MoS = %v", q.MeanMoS)
	}
}

func TestScoreEmpty(t *testing.T) {
	c := NewCall()
	q := c.Score(0)
	if q.Windows != 0 || q.MedianSessionSec != 0 {
		t.Errorf("empty score = %+v", q)
	}
}

// TestZeroLengthCall pins the zero-length edges of the classifier: a
// call shorter than one window scores no windows (and no disruptions),
// whether or not packets were exchanged, and never divides by zero.
func TestZeroLengthCall(t *testing.T) {
	c := NewCall()
	addStream(c, 0, 2*time.Second, true) // packets flowed, call < one window
	q := c.Score(2 * time.Second)
	if q.Windows != 0 || q.Interruptions != 0 || q.MeanMoS != 0 {
		t.Errorf("sub-window call scored %+v, want zero quality", q)
	}
	if got := c.Windows(0); got != nil {
		t.Errorf("Windows(0) = %v, want nil", got)
	}
	if q.MedianSessionSec != 0 || len(q.SessionLens) != 0 {
		t.Errorf("zero-length call produced sessions: %+v", q)
	}
}

// TestDisruptionSpansCallBoundary pins the boundary rule: a disruption
// still in progress when the call ends counts once, the trailing
// truncated window is not scored, and packets sent past the scored span
// are ignored rather than folded into a phantom window.
func TestDisruptionSpansCallBoundary(t *testing.T) {
	c := NewCall()
	// 0–6 s perfect, then dead from 6 s through the end of the call at
	// 7 s — the disruption spans the call boundary mid-window.
	addStream(c, 0, 6*time.Second, true)
	addStream(c, 6*time.Second, 7*time.Second, false)
	q := c.Score(7 * time.Second)
	if q.Windows != 2 {
		t.Fatalf("scored %d windows, want 2 (truncated trailing window dropped)", q.Windows)
	}
	if q.Interruptions != 0 {
		t.Errorf("truncated boundary window counted as a disruption: %+v", q)
	}
	// Extending the call by the rest of the dead window completes it:
	// now the boundary-spanning disruption is scored exactly once.
	c2 := NewCall()
	addStream(c2, 0, 6*time.Second, true)
	addStream(c2, 6*time.Second, 9*time.Second, false)
	q2 := c2.Score(9 * time.Second)
	if q2.Windows != 3 || q2.Interruptions != 1 {
		t.Errorf("boundary-completing disruption scored %+v, want 3 windows / 1 interruption", q2)
	}
	// Packets stamped beyond the scored span must not create windows.
	c3 := NewCall()
	addStream(c3, 0, 6*time.Second, true)
	addStream(c3, 6*time.Second, 12*time.Second, false) // past the 6 s span
	q3 := c3.Score(6 * time.Second)
	if q3.Windows != 2 || q3.Interruptions != 0 {
		t.Errorf("out-of-span packets leaked into scoring: %+v", q3)
	}
}

// TestBackToBackSevereDisruptions pins the transition rule: consecutive
// severe windows are one disruption; recovery and relapse are two; and
// the session list splits accordingly.
func TestBackToBackSevereDisruptions(t *testing.T) {
	// 0–6 s good, 6–12 s dead (two adjacent severe windows), 12–18 s
	// good, 18–21 s dead again.
	c := NewCall()
	addStream(c, 0, 6*time.Second, true)
	addStream(c, 6*time.Second, 12*time.Second, false)
	addStream(c, 12*time.Second, 18*time.Second, true)
	addStream(c, 18*time.Second, 21*time.Second, false)
	q := c.Score(21 * time.Second)
	if q.Windows != 7 {
		t.Fatalf("windows = %d, want 7", q.Windows)
	}
	if q.Interruptions != 2 {
		t.Errorf("interruptions = %d, want 2 (adjacent severe windows merge, relapse counts anew)", q.Interruptions)
	}
	if len(q.SessionLens) != 2 || q.SessionLens[0] != 6 || q.SessionLens[1] != 6 {
		t.Errorf("sessions = %v, want [6 6]", q.SessionLens)
	}
	// A call that is one long severe stretch has exactly one disruption,
	// regardless of how many windows it spans.
	c2 := NewCall()
	addStream(c2, 0, 15*time.Second, false)
	q2 := c2.Score(15 * time.Second)
	if q2.Interruptions != 1 || len(q2.SessionLens) != 0 {
		t.Errorf("all-severe call scored %+v, want exactly 1 disruption and no sessions", q2)
	}
}

// Property: window MoS is always within [1, 4.5].
func TestWindowMoSBounds(t *testing.T) {
	f := func(outcomes []bool) bool {
		c := NewCall()
		for i, ok := range outcomes {
			c.Add(PacketOutcome{
				SentAt:   time.Duration(i) * PacketInterval,
				Received: ok,
				Delay:    10 * time.Millisecond,
			})
		}
		for _, w := range c.Windows(time.Duration(len(outcomes)) * PacketInterval) {
			if w.MoS < 1 || w.MoS > 4.5 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
