// Package radio simulates the vehicular WiFi channel of the ViFi paper:
// distance-dependent mean loss, short-timescale bursty losses, unpredictable
// gray periods, independent fading across links, airtime at a fixed bitrate,
// half-duplex radios, carrier sense and collisions.
//
// The channel reproduces the four statistical properties the paper's
// measurement study rests on (§3.4):
//
//  1. Mean reception probability falls off with distance (log-distance path
//     loss pushed through a logistic reception curve, plus static per-link
//     shadowing).
//  2. Losses are bursty at 10–100 ms timescales: each link runs an
//     independent continuous-time Gilbert–Elliott process (Fig 6a).
//  3. Losses are roughly independent across links: every link owns an
//     independently seeded process (Fig 6b).
//  4. Gray periods: second-scale sharp connectivity drops that strike even
//     close to a basestation (§3.3).
//
// Links can alternatively be driven from a per-second loss-rate trace
// (the DieselNet methodology, §5.1) via TraceModel in this package's
// sibling trace support.
//
// The channel is reproduced per directed pair, and in a deployment almost
// every pair is two basestations that never move. So a pair's state is one
// value (linkState: model, three private streams, memos) that comes into
// being when the pair is first needed, and whatever the pair's geometry
// fixes is computed once — the distance-driven arithmetic memoized on the
// distance, two fixed radios resolved when a transmitter's candidate list
// is built, a far-away mover skipped until it can be back in range. None
// of it is observable: every draw happens on the same stream in the same
// order as if each frame recomputed everything (DESIGN.md §6).
package radio

import (
	"math"
	"time"

	"github.com/vanlan/vifi/internal/sim"
)

// Params collects the channel model constants. Zero value is not useful;
// start from DefaultParams.
type Params struct {
	// BitrateBps is the over-the-air bitrate. The paper fixes 1 Mbps
	// (802.11b broadcast, maximum range).
	BitrateBps float64
	// FrameOverheadBytes approximates PHY/MAC framing added to each payload.
	FrameOverheadBytes int

	// D50 is the distance in meters at which mean reception is 50 %.
	D50 float64
	// FalloffM controls how fast reception decays around D50 (logistic
	// slope, meters).
	FalloffM float64
	// PMax is the reception probability at distance zero in the good state.
	PMax float64
	// ShadowSigmaM is the standard deviation (meters of D50 shift) of
	// per-link static shadowing.
	ShadowSigmaM float64

	// Gilbert–Elliott burst process: exponential sojourns.
	GoodMean time.Duration // mean time in the good state
	BadMean  time.Duration // mean time in the bad state
	GoodMult float64       // reception multiplier while good
	BadMult  float64       // reception multiplier while bad

	// Gray periods: exponential gaps, uniform durations.
	GrayGapMean time.Duration // mean time between gray periods per link
	GrayMin     time.Duration // minimum gray period duration
	GrayMax     time.Duration // maximum gray period duration
	GrayMult    float64       // reception multiplier during a gray period

	// Carrier sense and collisions.
	SenseRangeM float64 // distance within which a transmitter is "heard busy"
	CaptureDB   float64 // power advantage (dB) letting a frame survive overlap

	// MaxRangeM is the hard reception cutoff in meters used by the
	// channel's spatially indexed hot path: above the index threshold,
	// receivers farther than the cutoff are skipped entirely. 0 derives
	// the cutoff from the fading model (see CutoffM). The cutoff only
	// takes effect on the indexed path — below the threshold the channel
	// sweeps every node exactly as before, so existing seeded runs are
	// untouched.
	MaxRangeM float64
	// IndexThresholdNodes is the attached-node count at which the channel
	// switches from the full-sweep path to the spatial grid index.
	// 0 means DefaultIndexThreshold.
	IndexThresholdNodes int

	// TxPowerDBm and PathLossExp shape the synthetic RSSI readings.
	TxPowerDBm  float64
	PathLossExp float64
	RSSINoiseDB float64
}

// DefaultParams returns the calibrated model. The calibration targets the
// paper's published shapes: ~0.7 unconditional reception near a BS,
// conditional loss after a loss ≫ unconditional (Fig 6a), usable range of
// roughly 150–250 m at 1 Mbps, and gray periods that strike about once a
// minute per link.
func DefaultParams() Params {
	return Params{
		BitrateBps:         1e6,
		FrameOverheadBytes: 58, // PLCP+MAC header+FCS at 1 Mbps, roughly

		D50:          150,
		FalloffM:     40,
		PMax:         0.85,
		ShadowSigmaM: 22,

		GoodMean: 1100 * time.Millisecond,
		BadMean:  200 * time.Millisecond,
		GoodMult: 1.0,
		BadMult:  0.08,

		GrayGapMean: 26 * time.Second,
		GrayMin:     1 * time.Second,
		GrayMax:     9 * time.Second,
		GrayMult:    0.03,

		SenseRangeM: 320,
		CaptureDB:   10,

		TxPowerDBm:  18,
		PathLossExp: 3.0,
		RSSINoiseDB: 4,
	}
}

// CutoffM returns the effective hard reception cutoff of the channel:
// MaxRangeM when set, otherwise the reach of the fading model — the
// distance at which mean reception falls below ~1e-9 even for a link
// shadowed four sigmas in the transmitter's favor. Beyond this distance
// a skipped reception draw is a guaranteed loss, which is what makes the
// indexed Broadcast path safe to cut off.
func (p *Params) CutoffM() float64 {
	if p.MaxRangeM > 0 {
		return p.MaxRangeM
	}
	if p.FalloffM <= 0 || p.PMax <= 0 {
		return 0 // degenerate model: no finite reach derivable
	}
	return p.D50 + 4*p.ShadowSigmaM + p.FalloffM*math.Log(p.PMax*1e9)
}

// IndexThreshold returns the attached-node count at which a channel
// under p takes the spatially indexed path: IndexThresholdNodes when set,
// DefaultIndexThreshold otherwise.
func (p *Params) IndexThreshold() int {
	if p.IndexThresholdNodes > 0 {
		return p.IndexThresholdNodes
	}
	return DefaultIndexThreshold
}

// Airtime returns the on-air duration of a frame with the given payload
// size under p's bitrate and framing overhead.
func (p *Params) Airtime(payloadBytes int) time.Duration {
	bits := float64(payloadBytes+p.FrameOverheadBytes) * 8
	return time.Duration(bits / p.BitrateBps * float64(time.Second))
}

// meanReception returns the distance-driven mean reception probability for
// a link whose shadowing shifts D50 by shadowM meters.
func (p *Params) meanReception(dist, shadowM float64) float64 {
	d50 := p.D50 + shadowM
	if d50 < 10 {
		d50 = 10
	}
	return p.PMax / (1 + math.Exp((dist-d50)/p.FalloffM))
}

// rssiBase returns the noise-free synthetic RSSI (dBm) at the given
// distance; a reading is the base plus the per-frame noise term.
func (p *Params) rssiBase(dist float64) float64 {
	if dist < 1 {
		dist = 1
	}
	return p.TxPowerDBm - 40 - 10*p.PathLossExp*math.Log10(dist)
}

// LinkModel computes the instantaneous reception probability of a directed
// link. Implementations must be deterministic given their construction
// parameters: the channel consults them at arbitrary, monotonically
// non-decreasing times.
type LinkModel interface {
	// ReceiveProb returns the probability that a frame transmitted at
	// time t over a path of dist meters is received.
	ReceiveProb(t time.Duration, dist float64) float64
}

// Ranged is an optional LinkModel extension: a model whose ReceiveProb
// is negligible (≲1e-9) beyond some distance advertises that reach so
// the channel's indexed path can skip the link — and its RNG draws —
// without consulting the model. Models with no finite reach (FixedLink,
// ScheduleLink) don't implement it; a channel built from a custom
// factory therefore only runs the indexed path when Params.MaxRangeM
// states the cutoff explicitly (see NewChannel).
type Ranged interface {
	// MaxRangeM returns the distance in meters beyond which reception is
	// effectively impossible on this link.
	MaxRangeM() float64
}

// geState is a continuous-time two-state Markov modulator advanced lazily.
type geState struct {
	rng     *sim.RNG
	good    bool
	until   time.Duration // current sojourn ends at this time
	gMean   float64       // seconds
	bMean   float64
	started bool
}

func newGEState(rng *sim.RNG, goodMean, badMean time.Duration) geState {
	return geState{
		rng:   rng,
		gMean: goodMean.Seconds(),
		bMean: badMean.Seconds(),
	}
}

// at advances the modulator to time t and reports whether the link is in
// the good state. Calls must use non-decreasing t.
func (g *geState) at(t time.Duration) bool {
	if !g.started {
		g.started = true
		// Start in the stationary distribution.
		g.good = g.rng.Float64() < g.gMean/(g.gMean+g.bMean)
		g.until = g.sojourn(0)
	}
	for t >= g.until {
		g.good = !g.good
		g.until = g.sojourn(g.until)
	}
	return g.good
}

func (g *geState) sojourn(from time.Duration) time.Duration {
	mean := g.bMean
	if g.good {
		mean = g.gMean
	}
	return from + time.Duration(g.rng.ExpFloat64()*mean*float64(time.Second))
}

// grayState produces gray periods: exponential gaps, uniform durations.
type grayState struct {
	rng      *sim.RNG
	inGray   bool
	until    time.Duration
	gapMean  float64 // seconds
	durMin   float64
	durMax   float64
	started  bool
	episodes int
}

func newGrayState(rng *sim.RNG, gapMean, durMin, durMax time.Duration) grayState {
	return grayState{
		rng:     rng,
		gapMean: gapMean.Seconds(),
		durMin:  durMin.Seconds(),
		durMax:  durMax.Seconds(),
	}
}

func (g *grayState) at(t time.Duration) bool {
	if !g.started {
		g.started = true
		g.inGray = false
		g.until = g.next(0)
	}
	for t >= g.until {
		g.inGray = !g.inGray
		if g.inGray {
			g.episodes++
		}
		g.until = g.next(g.until)
	}
	return g.inGray
}

func (g *grayState) next(from time.Duration) time.Duration {
	var d float64
	if g.inGray {
		d = g.durMin + g.rng.Float64()*(g.durMax-g.durMin)
	} else {
		d = g.rng.ExpFloat64() * g.gapMean
	}
	return from + time.Duration(d*float64(time.Second))
}

// FadingLink is the full statistical link model: distance mean × GE burst
// modulation × gray periods, with static per-link shadowing. It is one
// value — both modulators inline, the channel constants behind a pointer
// shared by every link of the channel — so a channel can embed it in its
// per-pair state, and it must not be copied once built (the modulators
// point at the link's stream).
//
// meanAt/mean memoize the distance-driven mean on the last distance it was
// asked for. The key is the distance itself, compared for equality (NaN,
// the initial key, never hits), so a hit returns the very float the same
// arithmetic produced before: between two radios that never move every
// frame after the first hits, and a changed distance costs one compare.
type FadingLink struct {
	p      *Params
	shadow float64
	ge     geState
	gray   grayState
	meanAt float64
	mean   float64
}

// NewFadingLink builds an independent link model. rng must be a stream
// private to this link (see sim.Kernel.RNG). The link keeps its own copy
// of p, in the same allocation as the link itself.
func NewFadingLink(p Params, rng *sim.RNG) *FadingLink {
	own := &struct {
		l FadingLink
		p Params
	}{p: p}
	own.l.init(&own.p, rng)
	return &own.l
}

// init builds the link in place over constants and a stream the caller
// keeps alive, drawing the shadow exactly as NewFadingLink always has.
func (l *FadingLink) init(p *Params, rng *sim.RNG) {
	*l = FadingLink{
		p:      p,
		shadow: rng.NormFloat64() * p.ShadowSigmaM,
		ge:     newGEState(rng, p.GoodMean, p.BadMean),
		gray:   newGrayState(rng, p.GrayGapMean, p.GrayMin, p.GrayMax),
		meanAt: math.NaN(),
	}
}

// ReceiveProb implements LinkModel.
func (l *FadingLink) ReceiveProb(t time.Duration, dist float64) float64 {
	if dist != l.meanAt {
		l.meanAt, l.mean = dist, l.p.meanReception(dist, l.shadow)
	}
	pr := l.mean
	if l.ge.at(t) {
		pr *= l.p.GoodMult
	} else {
		pr *= l.p.BadMult
	}
	if l.gray.at(t) {
		pr *= l.p.GrayMult
	}
	if pr > 1 {
		pr = 1
	}
	return pr
}

// MaxRangeM implements Ranged: beyond this distance the link's mean
// reception is below ~1e-9 given its own shadowing, so skipping the
// reception draw is indistinguishable from drawing a guaranteed loss.
func (l *FadingLink) MaxRangeM() float64 {
	return l.p.D50 + l.shadow + l.p.FalloffM*math.Log(l.p.PMax*1e9)
}

// Shadow returns the link's static shadowing offset in meters of D50 shift.
func (l *FadingLink) Shadow() float64 { return l.shadow }

// FixedLink is a LinkModel with a constant reception probability,
// independent of time and distance. Used by unit tests and by ideal-link
// backplane emulation.
type FixedLink float64

// ReceiveProb implements LinkModel.
func (f FixedLink) ReceiveProb(time.Duration, float64) float64 { return float64(f) }

// ScheduleLink drives reception probability from a per-second schedule
// (the paper's trace-driven methodology, §5.1: "The beacon loss ratio from
// a BS to the vehicle in each one-second interval is used as the packet
// loss rate"). Seconds beyond the schedule yield probability zero.
type ScheduleLink struct {
	// PerSecond[i] is the reception probability during second i.
	PerSecond []float64
}

// ReceiveProb implements LinkModel.
func (s *ScheduleLink) ReceiveProb(t time.Duration, _ float64) float64 {
	i := int(t / time.Second)
	if i < 0 || i >= len(s.PerSecond) {
		return 0
	}
	return s.PerSecond[i]
}
