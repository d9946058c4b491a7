// Package voip implements the paper's VoIP evaluation model (§5.3.2):
// a G.729 stream (20-byte packets every 20 ms in both directions), the
// ITU E-model R-factor with the paper's exact coefficients, the R→MoS
// mapping, the 52 ms wireless delay budget derived from a 177 ms
// mouth-to-ear target, and the interruption rule — a call is deemed
// interrupted when the MoS of a three-second window drops below 2.
package voip

import (
	"math"
	"time"

	"github.com/vanlan/vifi/internal/stats"
)

// Codec and budget constants from §5.3.2.
const (
	// PacketInterval is the G.729 packetization interval.
	PacketInterval = 20 * time.Millisecond
	// PacketBytes is the G.729 payload per packet.
	PacketBytes = 20
	// CodingDelayMs is the assumed codec delay.
	CodingDelayMs = 25
	// JitterBufferMs is the assumed jitter buffer.
	JitterBufferMs = 60
	// WiredDelayMs is the assumed wired-segment delay (cross-country USA).
	WiredDelayMs = 40
	// MouthToEarTargetMs is the delay aim; impairment grows sharply past
	// 177.3 ms.
	MouthToEarTargetMs = 177
	// WirelessBudget is the maximum wireless one-way delay before a
	// packet counts as lost (177 − 25 − 60 − 40 = 52 ms).
	WirelessBudget = 52 * time.Millisecond
)

// RFactor computes the paper's reduced E-model for the G.729 codec with
// expectation factor A = 0:
//
//	R = 94.2 − 0.024d − 0.11(d−177.3)H(d−177.3) − 11 − 40·log10(1+10e)
//
// where d is the mouth-to-ear delay in milliseconds, e the total loss
// rate (network losses plus late arrivals), and H the Heaviside step.
func RFactor(dMs, e float64) float64 {
	h := 0.0
	if dMs > 177.3 {
		h = 1
	}
	return 94.2 - 0.024*dMs - 0.11*(dMs-177.3)*h - 11 - 40*math.Log10(1+10*e)
}

// MoS converts an R-factor to a Mean Opinion Score per the paper:
// 1 for R < 0, 4.5 for R > 100, else 1 + 0.035R + 7·10⁻⁶·R(R−60)(100−R).
func MoS(r float64) float64 {
	switch {
	case r < 0:
		return 1
	case r > 100:
		return 4.5
	default:
		return 1 + 0.035*r + 7e-6*r*(r-60)*(100-r)
	}
}

// PacketOutcome records one VoIP packet's fate on the wireless segment.
type PacketOutcome struct {
	SentAt   time.Duration
	Received bool
	Delay    time.Duration // wireless one-way delay when received
}

// Late reports whether a received packet missed the jitter-buffer budget
// and therefore counts as lost (§5.3.2: "packets that take more than
// 52 ms in the wireless part should be considered lost").
func (p PacketOutcome) Late() bool {
	return p.Received && p.Delay > WirelessBudget
}

// Usable reports whether the packet plays out.
func (p PacketOutcome) Usable() bool { return p.Received && !p.Late() }

// DefaultWindow is the paper's scoring window: calls are evaluated in
// three-second slices (§5.3.2).
const DefaultWindow = 3 * time.Second

// Call scores both directions of a VoIP session in three-second windows.
// It keeps one count pair per window, not the outcomes themselves: a
// window's score depends only on how many of its packets were sent and
// how many of those did not play out.
type Call struct {
	all, lost []int // per window: packets sent, packets lost or late
}

// NewCall returns a call of length total, scored over the whole
// DefaultWindow slices it holds; a trailing partial window is not scored.
func NewCall(total time.Duration) *Call {
	n := max(int(total/DefaultWindow), 0)
	return &Call{all: make([]int, n), lost: make([]int, n)}
}

// Add folds one packet outcome (either direction — the MoS applies to
// the conversation as a whole) into the window it was sent in. A packet
// sent outside the scored windows is ignored.
func (c *Call) Add(p PacketOutcome) {
	if p.SentAt < 0 {
		return
	}
	w := int(p.SentAt / DefaultWindow)
	if w >= len(c.all) {
		return
	}
	c.all[w]++
	if !p.Usable() {
		c.lost[w]++
	}
}

// WindowScore is one scored window of the call.
type WindowScore struct {
	Start    time.Duration
	LossRate float64
	MoS      float64
	Packets  int
}

// Windows scores the call: per window, e = (lost + late)/total and
// MoS = MoS(R(177, e)). Windows with no packets at all are total outages
// (e = 1).
func (c *Call) Windows() []WindowScore {
	if len(c.all) == 0 {
		return nil
	}
	out := make([]WindowScore, len(c.all))
	for w, all := range c.all {
		e := 1.0
		if all > 0 {
			e = float64(c.lost[w]) / float64(all)
		}
		out[w] = WindowScore{
			Start:    time.Duration(w) * DefaultWindow,
			LossRate: e,
			MoS:      MoS(RFactor(MouthToEarTargetMs, e)),
			Packets:  all,
		}
	}
	return out
}

// InterruptionMoS is the quality floor: a window below this MoS is a
// severe disruption (§5.3.2).
const InterruptionMoS = 2.0

// Quality summarizes a call.
type Quality struct {
	MedianSessionSec float64 // time-weighted median uninterrupted session
	MeanMoS          float64 // average of 3 s window MoS scores
	Interruptions    int
	Windows          int
	SessionLens      []float64 // raw uninterrupted-session lengths (seconds)
}

// Score evaluates the call: the windows' MoS series read through the
// session reducer at the interruption threshold.
func (c *Call) Score() Quality {
	ws := c.Windows()
	q := Quality{Windows: len(ws)}
	if len(ws) == 0 {
		return q
	}
	mos := make([]float64, len(ws))
	sum := 0.0
	for i, w := range ws {
		mos[i] = w.MoS
		sum += w.MoS
	}
	q.MeanMoS = sum / float64(len(ws))
	q.SessionLens, q.Interruptions = stats.Sessions(mos, InterruptionMoS, DefaultWindow.Seconds())
	q.MedianSessionSec = stats.TimeWeightedMedian(q.SessionLens)
	return q
}
