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
// value (linkState: the fading state, three private streams, memos) that
// comes into being when the pair is first needed, and whatever the pair's
// geometry fixes is computed once — the distance-driven arithmetic memoized
// on the distance, two fixed radios resolved when a transmitter's candidate
// list is built, a far-away mover skipped until it can be back in range.
// And nearly every decision delivers nothing, so what a decision computes is
// what its outcome needs: the RSSI noise and the reception probability are
// bounded from tables first and evaluated only when the bound leaves the
// outcome open. None of it is observable: every draw happens on the same
// stream in the same order as if each frame computed everything (DESIGN.md
// §6).
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

	// MaxRangeM is the hard reception cutoff in meters: receivers farther
	// than the cutoff are skipped entirely, and it sizes the channel's
	// spatial grid. 0 derives the cutoff from the fading model (see
	// CutoffM); a channel with a custom LinkFactory has no cutoff unless
	// this sets one (see NewChannel).
	MaxRangeM float64

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
// a skipped reception draw is a guaranteed loss, which is what makes it
// safe for Broadcast to cut the receiver off.
func (p *Params) CutoffM() float64 {
	if p.MaxRangeM > 0 {
		return p.MaxRangeM
	}
	if p.FalloffM <= 0 || p.PMax <= 0 {
		return 0 // degenerate model: no finite reach derivable
	}
	return p.D50 + 4*p.ShadowSigmaM + p.FalloffM*math.Log(p.PMax*1e9)
}

// Airtime returns the on-air duration of a frame with the given payload
// size under p's bitrate and framing overhead.
func (p *Params) Airtime(payloadBytes int) time.Duration {
	bits := float64(payloadBytes+p.FrameOverheadBytes) * 8
	return time.Duration(bits / p.BitrateBps * float64(time.Second))
}

// falloff returns how far dist lies past the link's 50 % point in units of
// FalloffM — the argument of the logistic reception curve — for a link
// whose shadowing shifts D50 by shadowM meters.
func (p *Params) falloff(dist, shadowM float64) float64 {
	d50 := p.D50 + shadowM
	if d50 < 10 {
		d50 = 10
	}
	return (dist - d50) / p.FalloffM
}

// meanReception returns the distance-driven mean reception probability for
// a link whose shadowing shifts D50 by shadowM meters.
func (p *Params) meanReception(dist, shadowM float64) float64 {
	return p.PMax / (1 + math.Exp(p.falloff(dist, shadowM)))
}

// curveBracket[i] encloses the logistic 1/(1+e^x) over x in [i−64, i−63),
// each side pushed outwards by one part in 1e12: the first row reaches down
// to −∞ and so tops out at 1, the last reaches up to +∞ and so bottoms out
// at 0.
var curveBracket = func() (t [128]struct{ lo, hi float64 }) {
	for i := range t {
		k := float64(i - 64)
		t[i].lo = 1 / (1 + math.Exp(k+1)) * (1 - 1e-12)
		t[i].hi = 1 / (1 + math.Exp(k)) * (1 + 1e-12)
	}
	t[0].hi, t[len(t)-1].lo = 1, 0
	return t
}()

// meanBracket returns lo ≤ meanReception(dist, shadowM) ≤ hi at no
// exponential's cost: PMax times the row of curveBracket that ⌊x⌋ selects.
// It holds for the computed mean, not just the real one: x is the float
// meanReception exponentiates, and the rows' margin is a thousand times
// wider than the last-place errors of Exp, the add, the divide and the
// multiply together. Params are not validated, so ok is false where
// that argument has nothing to stand on — a negative PMax, or an x that is
// not a number (FalloffM = 0 at the 50 % point) — and false as well under a
// negative multiplier, which would turn the bracket around after the fact
// (see fading.receives).
func (p *Params) meanBracket(dist, shadowM float64) (lo, hi float64, ok bool) {
	x := p.falloff(dist, shadowM)
	if !(p.PMax >= 0 && p.GoodMult >= 0 && p.BadMult >= 0 && p.GrayMult >= 0) || x != x {
		return 0, 0, false
	}
	i := 0 // the row ⌊x⌋ selects; x < −63 reads the first
	if x >= 63 {
		i = len(curveBracket) - 1
	} else if x >= -63 {
		if i = int(x) + 64; float64(int(x)) > x { // int truncates towards 0
			i--
		}
	}
	return p.PMax * curveBracket[i].lo, p.PMax * curveBracket[i].hi, true
}

// RSSIBase returns the noise-free synthetic RSSI (dBm) at the given
// distance; a reading is the base plus the per-frame noise term,
// NormFloat64()·RSSINoiseDB. It is the one owner of the synthetic RSSI:
// the channel's receptions and the generated VanLAN probe traces read it.
func (p *Params) RSSIBase(dist float64) float64 {
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
// the channel can skip the link — and its RNG draws — without consulting
// the model. Models with no finite reach (FixedLink, a trace replay) don't
// implement it; a channel built from a custom factory therefore cuts
// nothing off unless Params.MaxRangeM states a cutoff (see NewChannel).
type Ranged interface {
	// MaxRangeM returns the distance in meters beyond which reception is
	// effectively impossible on this link.
	MaxRangeM() float64
}

// modulator is the state of one two-state process advanced lazily: whether
// it is on and when the current sojourn ends. What it is on *for*, the
// lengths of its sojourns and the stream they are drawn from belong to the
// link (fading.advanceGE, fading.advanceGray), so a modulator is 16 bytes of what a
// decision reads. until starts at the beginning of time: an unstarted
// modulator is due at any t.
type modulator struct {
	until   time.Duration
	on      bool
	started bool
}

var unstarted = modulator{until: math.MinInt64}

// fading is the state of the full statistical link model: distance mean ×
// Gilbert–Elliott burst modulation × gray periods, with static per-link
// shadowing. It holds no pointer — the channel constants and the link's
// private stream are handed to every method — so the channel lays it out
// inside its per-pair state and a FadingLink wraps it with its own two.
//
// Field order is the channel's cache-line budget (see linkState): first
// what every decision reads, then what only a sojourn's end, a new distance
// or a diagnostic does.
//
// meanAt/mean memoize the distance-driven mean on the last distance it was
// asked for (meanFor). The key is the distance itself, compared for equality
// (NaN, the initial key, never hits), so a hit returns the very float the
// same arithmetic produced before: between two radios that never move every
// frame after the first or second hits, and a changed distance costs one
// compare.
type fading struct {
	meanAt, mean float64
	ge           modulator // on: the good state
	gray         modulator // on: inside a gray period

	shadow   float64
	episodes int // gray periods begun
}

// init draws the link's shadow from rng, the first thing its stream yields.
func (f *fading) init(p *Params, rng *sim.RNG) {
	*f = fading{
		meanAt: math.NaN(),
		ge:     unstarted,
		gray:   unstarted,
		shadow: rng.NormFloat64() * p.ShadowSigmaM,
	}
}

// advance moves both modulators to time t, burst process first: everything
// a decision at t does to the link's stream. Calls must use non-decreasing t.
func (f *fading) advance(p *Params, rng *sim.RNG, t time.Duration) {
	if t >= f.ge.until {
		f.advanceGE(p, rng, t)
	}
	if t >= f.gray.until {
		f.advanceGray(p, rng, t)
	}
}

// advanceGE runs the Gilbert–Elliott process — a continuous-time two-state
// Markov chain with exponential sojourns — up to time t.
func (f *fading) advanceGE(p *Params, rng *sim.RNG, t time.Duration) {
	g := &f.ge
	sojourn := func(from time.Duration) time.Duration {
		mean := p.BadMean
		if g.on {
			mean = p.GoodMean
		}
		return from + time.Duration(rng.ExpFloat64()*mean.Seconds()*float64(time.Second))
	}
	if !g.started {
		g.started = true
		// Start in the stationary distribution.
		gm, bm := p.GoodMean.Seconds(), p.BadMean.Seconds()
		g.on = rng.Float64() < gm/(gm+bm)
		g.until = sojourn(0)
	}
	for t >= g.until {
		g.on = !g.on
		g.until = sojourn(g.until)
	}
}

// advanceGray runs the gray-period process — exponential gaps, uniform
// durations — up to time t.
func (f *fading) advanceGray(p *Params, rng *sim.RNG, t time.Duration) {
	g := &f.gray
	next := func(from time.Duration) time.Duration {
		var d float64
		if g.on {
			lo, hi := p.GrayMin.Seconds(), p.GrayMax.Seconds()
			d = lo + rng.Float64()*(hi-lo)
		} else {
			d = rng.ExpFloat64() * p.GrayGapMean.Seconds()
		}
		return from + time.Duration(d*float64(time.Second))
	}
	if !g.started {
		g.started = true
		g.until = next(0)
	}
	for t >= g.until {
		g.on = !g.on
		if g.on {
			f.episodes++
		}
		g.until = next(g.until)
	}
}

// modulate applies the modulators' current multipliers to a mean.
func (f *fading) modulate(p *Params, pr float64) float64 {
	if f.ge.on {
		pr *= p.GoodMult
	} else {
		pr *= p.BadMult
	}
	if f.gray.on {
		pr *= p.GrayMult
	}
	if pr > 1 {
		pr = 1
	}
	return pr
}

// meanFor returns the distance-driven mean at dist through the memo. A NaN
// mean marks a distance that receives has seen and not computed.
func (f *fading) meanFor(p *Params, dist float64) float64 {
	if dist != f.meanAt || f.mean != f.mean {
		f.meanAt, f.mean = dist, p.meanReception(dist, f.shadow)
	}
	return f.mean
}

// prob returns the reception probability at dist with the modulators where
// advance left them.
func (f *fading) prob(p *Params, dist float64) float64 {
	return f.modulate(p, f.meanFor(p, dist))
}

// receives reports u < prob(p, dist), and at a distance the memo has never
// seen it first asks the cheaper question: u against the modulated
// meanBracket. Multiplying by a non-negative constant and clamping at 1 are
// monotone under rounding, so a coin not below the modulated upper side is
// not below the modulated mean either, a coin below the modulated lower side
// is, and in both cases the exponential is not taken. The memo then
// remembers the distance alone: a pair that moves never comes back to it,
// and a pair that stands still pays for its mean on its second frame and
// reads it from the memo ever after.
func (f *fading) receives(p *Params, dist, u float64) bool {
	if dist != f.meanAt {
		if lo, hi, ok := p.meanBracket(dist, f.shadow); ok {
			if lost := u >= f.modulate(p, hi); lost || u < f.modulate(p, lo) {
				f.meanAt, f.mean = dist, math.NaN()
				return !lost
			}
		}
	}
	return u < f.prob(p, dist)
}

// FadingLink is the fading model as a LinkModel of its own: the state, the
// channel constants behind a pointer, and the stream private to the link
// (see sim.Kernel.RNG) that its shadow, bursts and gray periods come from.
type FadingLink struct {
	fading
	p   *Params
	rng *sim.RNG
}

// NewFadingLink builds an independent link model over rng. The link keeps
// its own copy of p, in the same allocation as the link itself.
func NewFadingLink(p Params, rng *sim.RNG) *FadingLink {
	own := &struct {
		l FadingLink
		p Params
	}{p: p}
	own.l.p, own.l.rng = &own.p, rng
	own.l.init(&own.p, rng)
	return &own.l
}

// ReceiveProb implements LinkModel.
func (l *FadingLink) ReceiveProb(t time.Duration, dist float64) float64 {
	l.advance(l.p, l.rng, t)
	return l.prob(l.p, dist)
}

// Receives reports whether a frame sent at time t over dist meters is
// received given the uniform coin u: u < ReceiveProb(t, dist), with the
// link left exactly where ReceiveProb leaves it, at a fraction of the
// arithmetic when the answer is no.
func (l *FadingLink) Receives(t time.Duration, dist, u float64) bool {
	l.advance(l.p, l.rng, t)
	return l.receives(l.p, dist, u)
}

// MaxRangeM implements Ranged: beyond this distance the link's mean
// reception is below ~1e-9 given its own shadowing, so skipping the
// reception draw is indistinguishable from drawing a guaranteed loss.
func (l *FadingLink) MaxRangeM() float64 { return l.maxRange(l.p) }

func (f *fading) maxRange(p *Params) float64 {
	return p.D50 + f.shadow + p.FalloffM*math.Log(p.PMax*1e9)
}

// Shadow returns the link's static shadowing offset in meters of D50 shift.
func (l *FadingLink) Shadow() float64 { return l.shadow }

// FixedLink is a LinkModel with a constant reception probability,
// independent of time and distance. Used by unit tests and by ideal-link
// backplane emulation.
type FixedLink float64

// ReceiveProb implements LinkModel.
func (f FixedLink) ReceiveProb(time.Duration, float64) float64 { return float64(f) }
