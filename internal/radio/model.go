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

// The calibrated channel. The calibration targets the paper's published
// shapes: ~0.7 unconditional reception near a BS, conditional loss after a
// loss ≫ unconditional (Fig 6a), usable range of roughly 150–250 m at
// 1 Mbps, and gray periods that strike about once a minute per link. What a
// run may still vary is Params.
const (
	// bitrateBps is the over-the-air bitrate: the paper fixes 1 Mbps
	// (802.11b broadcast, maximum range).
	bitrateBps = 1e6
	// frameOverheadBytes approximates PHY/MAC framing added to each
	// payload: PLCP+MAC header+FCS at 1 Mbps, roughly.
	frameOverheadBytes = 58

	// falloffM controls how fast reception decays around D50 (logistic
	// slope, meters).
	falloffM = 40
	// pMax is the reception probability at distance zero in the good state.
	pMax = 0.85
	// shadowSigmaM is the standard deviation (meters of D50 shift) of
	// per-link static shadowing.
	shadowSigmaM = 22

	// Gilbert–Elliott burst process: exponential sojourns.
	goodMean = 1100 * time.Millisecond // mean time in the good state
	badMean  = 200 * time.Millisecond  // mean time in the bad state
	goodMult = 1.0                     // reception multiplier while good
	badMult  = 0.08                    // reception multiplier while bad

	// Gray periods: exponential gaps, uniform durations.
	grayGapMean = 26 * time.Second // mean time between gray periods per link
	grayMin     = 1 * time.Second  // minimum gray period duration
	grayMax     = 9 * time.Second  // maximum gray period duration
	grayMult    = 0.03             // reception multiplier during a gray period

	// SenseRangeM is the distance within which a transmitter is "heard
	// busy" (carrier sense).
	SenseRangeM = 320
	// captureDB is the power advantage (dB) letting a frame survive an
	// overlap.
	captureDB = 10

	// txPowerDBm and pathLossExp shape the synthetic RSSI readings, and
	// RSSINoiseDB is the standard deviation of a reading's per-frame noise.
	txPowerDBm  = 18
	pathLossExp = 3.0
	RSSINoiseDB = 4
)

// Params is what a run may vary of the channel model. Zero value is not
// useful; start from DefaultParams.
type Params struct {
	// D50 is the distance in meters at which mean reception is 50 %; a
	// scenario's range= sets it.
	D50 float64

	// MaxRangeM is the hard reception cutoff in meters: receivers farther
	// than the cutoff are skipped entirely, and it sizes the channel's
	// spatial grid. 0 derives the cutoff from the fading model (see
	// CutoffM); a channel with a custom LinkFactory has no cutoff unless
	// this sets one (see NewChannel).
	MaxRangeM float64
}

// DefaultParams returns the calibrated model: a 150 m 50 % point and the
// cutoff the fading model derives.
func DefaultParams() Params {
	return Params{D50: 150}
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
	return p.D50 + 4*shadowSigmaM + fadeReachM
}

// fadeReachM is how far past its 50 % point a link's mean reception falls
// below ~1e-9: pMax/(1+e^x) < 1e-9 once x = (dist−d50)/falloffM exceeds
// ln(pMax·1e9).
var fadeReachM = falloffM * math.Log(pMax*1e9)

// Airtime returns the on-air duration of a frame with the given payload
// size at the channel's bitrate and framing overhead.
func Airtime(payloadBytes int) time.Duration {
	bits := float64(payloadBytes+frameOverheadBytes) * 8
	return time.Duration(bits / bitrateBps * float64(time.Second))
}

// falloff returns how far dist lies past the link's 50 % point in units of
// falloffM — the argument of the logistic reception curve — for a link
// whose shadowing shifts D50 by shadowM meters.
func (p *Params) falloff(dist, shadowM float64) float64 {
	d50 := p.D50 + shadowM
	if d50 < 10 {
		d50 = 10
	}
	return (dist - d50) / falloffM
}

// meanReception returns the distance-driven mean reception probability for
// a link whose shadowing shifts D50 by shadowM meters.
func (p *Params) meanReception(dist, shadowM float64) float64 {
	return pMax / (1 + math.Exp(p.falloff(dist, shadowM)))
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
// exponential's cost: pMax times the row of curveBracket that ⌊x⌋ selects.
// It holds for the computed mean, not just the real one: x is the float
// meanReception exponentiates, and the rows' margin is a thousand times
// wider than the last-place errors of Exp, the add, the divide and the
// multiply together. ok is false where x is not a number: a NaN distance,
// whose mean is NaN and hears no coin.
func (p *Params) meanBracket(dist, shadowM float64) (lo, hi float64, ok bool) {
	x := p.falloff(dist, shadowM)
	if x != x {
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
	return pMax * curveBracket[i].lo, pMax * curveBracket[i].hi, true
}

// RSSIBase returns the noise-free synthetic RSSI (dBm) at the given
// distance; a reading is the base plus the per-frame noise term,
// NormFloat64()·RSSINoiseDB. It is the one owner of the synthetic RSSI:
// the channel's receptions and the generated VanLAN probe traces read it.
func RSSIBase(dist float64) float64 {
	if dist < 1 {
		dist = 1
	}
	return txPowerDBm - 40 - 10*pathLossExp*math.Log10(dist)
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
// link (fading.advanceGE, fading.advanceGray), so a modulator is 16 bytes of
// what a decision reads. until starts at the beginning of time: an unstarted
// modulator is due at any t.
type modulator struct {
	until   time.Duration
	on      bool
	started bool
}

var unstarted = modulator{until: math.MinInt64}

// fading is the state of the full statistical link model: distance mean ×
// Gilbert–Elliott burst modulation × gray periods, with static per-link
// shadowing. It holds no pointer — the run's Params and the link's private
// stream are handed to the methods that read them — so the channel lays it
// out inside its per-pair state and a FadingLink wraps it with its own two.
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
func (f *fading) init(rng *sim.RNG) {
	*f = fading{
		meanAt: math.NaN(),
		ge:     unstarted,
		gray:   unstarted,
		shadow: rng.NormFloat64() * shadowSigmaM,
	}
}

// advance moves both modulators to time t, burst process first: everything
// a decision at t does to the link's stream. Calls must use non-decreasing t.
func (f *fading) advance(rng *sim.RNG, t time.Duration) {
	if t >= f.ge.until {
		f.advanceGE(rng, t)
	}
	if t >= f.gray.until {
		f.advanceGray(rng, t)
	}
}

// advanceGE runs the Gilbert–Elliott process — a continuous-time two-state
// Markov chain with exponential sojourns — up to time t.
func (f *fading) advanceGE(rng *sim.RNG, t time.Duration) {
	g := &f.ge
	sojourn := func(from time.Duration) time.Duration {
		mean := badMean
		if g.on {
			mean = goodMean
		}
		return from + time.Duration(rng.ExpFloat64()*mean.Seconds()*float64(time.Second))
	}
	if !g.started {
		g.started = true
		// Start in the stationary distribution.
		gm, bm := goodMean.Seconds(), badMean.Seconds()
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
func (f *fading) advanceGray(rng *sim.RNG, t time.Duration) {
	g := &f.gray
	next := func(from time.Duration) time.Duration {
		var d float64
		if g.on {
			lo, hi := grayMin.Seconds(), grayMax.Seconds()
			d = lo + rng.Float64()*(hi-lo)
		} else {
			d = rng.ExpFloat64() * grayGapMean.Seconds()
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
func (f *fading) modulate(pr float64) float64 {
	if f.ge.on {
		pr *= goodMult
	} else {
		pr *= badMult
	}
	if f.gray.on {
		pr *= grayMult
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
	return f.modulate(f.meanFor(p, dist))
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
			if lost := u >= f.modulate(hi); lost || u < f.modulate(lo) {
				f.meanAt, f.mean = dist, math.NaN()
				return !lost
			}
		}
	}
	return u < f.prob(p, dist)
}

// FadingLink is the fading model as a LinkModel of its own: the state, the
// run's Params, and the stream private to the link (see sim.Kernel.RNG)
// that its shadow, bursts and gray periods come from.
type FadingLink struct {
	fading
	p   Params
	rng *sim.RNG
}

// NewFadingLink builds an independent link model over rng.
func NewFadingLink(p Params, rng *sim.RNG) *FadingLink {
	l := &FadingLink{p: p, rng: rng}
	l.init(rng)
	return l
}

// ReceiveProb implements LinkModel.
func (l *FadingLink) ReceiveProb(t time.Duration, dist float64) float64 {
	l.advance(l.rng, t)
	return l.prob(&l.p, dist)
}

// Receives reports whether a frame sent at time t over dist meters is
// received given the uniform coin u: u < ReceiveProb(t, dist), with the
// link left exactly where ReceiveProb leaves it, at a fraction of the
// arithmetic when the answer is no.
func (l *FadingLink) Receives(t time.Duration, dist, u float64) bool {
	l.advance(l.rng, t)
	return l.receives(&l.p, dist, u)
}

// MaxRangeM implements Ranged: beyond this distance the link's mean
// reception is below ~1e-9 given its own shadowing, so skipping the
// reception draw is indistinguishable from drawing a guaranteed loss.
func (l *FadingLink) MaxRangeM() float64 { return l.maxRange(&l.p) }

func (f *fading) maxRange(p *Params) float64 {
	return p.D50 + f.shadow + fadeReachM
}

// Shadow returns the link's static shadowing offset in meters of D50 shift.
func (l *FadingLink) Shadow() float64 { return l.shadow }

// FixedLink is a LinkModel with a constant reception probability,
// independent of time and distance. Used by unit tests and by ideal-link
// backplane emulation.
type FixedLink float64

// ReceiveProb implements LinkModel.
func (f FixedLink) ReceiveProb(time.Duration, float64) float64 { return float64(f) }
