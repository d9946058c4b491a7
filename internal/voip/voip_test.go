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
	c := NewCall(12 * time.Second)
	// 0–6 s perfect, 6–9 s dead, 9–12 s perfect.
	addStream(c, 0, 6*time.Second, true)
	addStream(c, 6*time.Second, 9*time.Second, false)
	addStream(c, 9*time.Second, 12*time.Second, true)
	ws := c.Windows()
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
	c := NewCall(6 * time.Second)
	addStream(c, 0, 3*time.Second, true)
	// Nothing sent in 3–6 s (e.g. the protocol had no anchor).
	ws := c.Windows()
	if ws[1].LossRate != 1 {
		t.Errorf("silent window loss = %v, want 1", ws[1].LossRate)
	}
}

// TestSessions checks the call's reading of the shared session reducer
// against the hand-computed row of stats.TestSessions ("3 s MoS
// windows"): good, good, bad, good, good, good → sessions of 6 s and 9 s
// around one interruption.
func TestSessions(t *testing.T) {
	c := NewCall(18 * time.Second)
	addStream(c, 0, 6*time.Second, true)
	addStream(c, 6*time.Second, 9*time.Second, false)
	addStream(c, 9*time.Second, 18*time.Second, true)
	q := c.Score()
	if !slices.Equal(q.SessionLens, []float64{6, 9}) || q.Interruptions != 1 {
		t.Errorf("sessions = %v, interruptions = %d; want [6 9], 1", q.SessionLens, q.Interruptions)
	}
	// Half the 15 s of in-session time is reached inside the 9 s session.
	if q.MedianSessionSec != 9 {
		t.Errorf("median session = %v, want 9", q.MedianSessionSec)
	}
	if q := NewCall(0).Score(); q.SessionLens != nil || q.Interruptions != 0 {
		t.Errorf("empty score = %+v", q)
	}
}

func TestScore(t *testing.T) {
	c := NewCall(60 * time.Second)
	addStream(c, 0, 30*time.Second, true)
	addStream(c, 30*time.Second, 33*time.Second, false)
	addStream(c, 33*time.Second, 60*time.Second, true)
	q := c.Score()
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
	c := NewCall(0)
	q := c.Score()
	if q.Windows != 0 || q.MedianSessionSec != 0 {
		t.Errorf("empty score = %+v", q)
	}
}

// TestZeroLengthCall pins the zero-length edges of the classifier: a
// call shorter than one window scores no windows (and no disruptions),
// whether or not packets were exchanged, and never divides by zero.
func TestZeroLengthCall(t *testing.T) {
	c := NewCall(2 * time.Second)
	addStream(c, 0, 2*time.Second, true) // packets flowed, call < one window
	q := c.Score()
	if q.Windows != 0 || q.Interruptions != 0 || q.MeanMoS != 0 {
		t.Errorf("sub-window call scored %+v, want zero quality", q)
	}
	if got := c.Windows(); got != nil {
		t.Errorf("sub-window Windows() = %v, want nil", got)
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
	c := NewCall(7 * time.Second)
	// 0–6 s perfect, then dead from 6 s through the end of the call at
	// 7 s — the disruption spans the call boundary mid-window.
	addStream(c, 0, 6*time.Second, true)
	addStream(c, 6*time.Second, 7*time.Second, false)
	q := c.Score()
	if q.Windows != 2 {
		t.Fatalf("scored %d windows, want 2 (truncated trailing window dropped)", q.Windows)
	}
	if q.Interruptions != 0 {
		t.Errorf("truncated boundary window counted as a disruption: %+v", q)
	}
	// Extending the call by the rest of the dead window completes it:
	// now the boundary-spanning disruption is scored exactly once.
	c2 := NewCall(9 * time.Second)
	addStream(c2, 0, 6*time.Second, true)
	addStream(c2, 6*time.Second, 9*time.Second, false)
	q2 := c2.Score()
	if q2.Windows != 3 || q2.Interruptions != 1 {
		t.Errorf("boundary-completing disruption scored %+v, want 3 windows / 1 interruption", q2)
	}
	// Packets stamped beyond the scored span must not create windows.
	c3 := NewCall(6 * time.Second)
	addStream(c3, 0, 6*time.Second, true)
	addStream(c3, 6*time.Second, 12*time.Second, false) // past the 6 s span
	q3 := c3.Score()
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
	c := NewCall(21 * time.Second)
	addStream(c, 0, 6*time.Second, true)
	addStream(c, 6*time.Second, 12*time.Second, false)
	addStream(c, 12*time.Second, 18*time.Second, true)
	addStream(c, 18*time.Second, 21*time.Second, false)
	q := c.Score()
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
	c2 := NewCall(15 * time.Second)
	addStream(c2, 0, 15*time.Second, false)
	q2 := c2.Score()
	if q2.Interruptions != 1 || len(q2.SessionLens) != 0 {
		t.Errorf("all-severe call scored %+v, want exactly 1 disruption and no sessions", q2)
	}
}

// Property: window MoS is always within [1, 4.5].
func TestWindowMoSBounds(t *testing.T) {
	f := func(outcomes []bool) bool {
		c := NewCall(time.Duration(len(outcomes)) * PacketInterval)
		for i, ok := range outcomes {
			c.Add(PacketOutcome{
				SentAt:   time.Duration(i) * PacketInterval,
				Received: ok,
				Delay:    10 * time.Millisecond,
			})
		}
		for _, w := range c.Windows() {
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

// TestCallCountsPerWindow pins the call's state: a one-hour call holds
// one count pair per 3 s window from the start, and folding a whole
// hour's outcomes into it neither grows it nor allocates.
func TestCallCountsPerWindow(t *testing.T) {
	c := NewCall(time.Hour)
	if len(c.all) != 1200 || len(c.lost) != 1200 {
		t.Fatalf("one-hour call holds %d/%d counts, want 1200 pairs", len(c.all), len(c.lost))
	}
	at := time.Duration(0)
	allocs := testing.AllocsPerRun(1000, func() {
		c.Add(PacketOutcome{SentAt: at, Received: true, Delay: 10 * time.Millisecond})
		at += PacketInterval
	})
	if allocs != 0 || len(c.all) != 1200 || cap(c.all) != 1200 {
		t.Errorf("Add allocates %.1f objects; counts %d (cap %d)", allocs, len(c.all), cap(c.all))
	}
}

// FuzzCallWindows recounts every window by brute force: outcomes are
// drawn from the fuzz bytes with send times before, inside and past the
// call, lost, late and usable, and each window's Packets, LossRate and
// MoS must equal the recount of the outcomes sent inside it.
func FuzzCallWindows(f *testing.F) {
	f.Add(uint16(700), []byte{0, 0, 0, 1, 0xff, 0xff, 0xff, 1, 0, 2, 3, 105, 0, 2, 5, 106, 0, 3, 0, 107})
	f.Add(uint16(600), []byte{1, 0xab, 0, 1, 1, 0xac, 0, 0, 0x03, 0x5b, 0, 81})
	f.Add(uint16(0), []byte{0, 0, 0, 1})
	f.Fuzz(func(t *testing.T, totalCs uint16, data []byte) {
		total := time.Duration(totalCs) * 10 * time.Millisecond
		c := NewCall(total)
		var outs []PacketOutcome
		for ; len(data) >= 4; data = data[4:] {
			// Send times step by 7 ms (±229 s) plus up to 255 ns, so
			// they straddle window edges and both ends of the call;
			// the delay runs 0–127 ms across the 52 ms budget.
			p := PacketOutcome{
				SentAt:   time.Duration(int16(data[0])<<8|int16(data[1]))*7*time.Millisecond + time.Duration(data[2]),
				Received: data[3]&1 == 1,
				Delay:    time.Duration(data[3]>>1) * time.Millisecond,
			}
			outs = append(outs, p)
			c.Add(p)
		}
		ws := c.Windows()
		n := 0
		for start := time.Duration(0); start+DefaultWindow <= total; start += DefaultWindow {
			all, lost := 0, 0
			for _, p := range outs {
				if p.SentAt >= start && p.SentAt < start+DefaultWindow {
					all++
					if !p.Received || p.Delay > 52*time.Millisecond {
						lost++
					}
				}
			}
			e := 1.0
			if all > 0 {
				e = float64(lost) / float64(all)
			}
			if n >= len(ws) {
				t.Fatalf("%d windows scored, the call holds more", len(ws))
			}
			if w := ws[n]; w.Start != start || w.Packets != all || w.LossRate != e ||
				w.MoS != MoS(RFactor(MouthToEarTargetMs, e)) {
				t.Fatalf("window %d = %+v, recount: start %v, %d packets, %d lost", n, w, start, all, lost)
			}
			n++
		}
		if len(ws) != n {
			t.Fatalf("%d windows scored, want %d", len(ws), n)
		}
		if q := c.Score(); q.Windows != n {
			t.Fatalf("Score counts %d windows, want %d", q.Windows, n)
		}
	})
}
