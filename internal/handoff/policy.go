// Package handoff implements the six handoff policies of the ViFi paper's
// measurement study (§3.1) and the trace-driven evaluator that compares
// them.
//
// Four policies are practical (RSSI, BRR, Sticky, History) and two are
// idealized upper bounds (BestBS with one second of future knowledge,
// AllBSes exploiting every audible basestation). All six are evaluated
// against ProbeTrace logs exactly as in the paper: the policy picks an
// association per 100 ms slot, and the logged probe outcomes determine
// which of that slot's two packets (one per direction) get through.
// Evaluate returns those outcomes as a stats.SlotTable, which the session
// metric reads exactly as it reads a live run's.
//
// Practical policies may only look backward in the trace; the idealized
// ones declare their oracle access explicitly.
package handoff

import (
	"math"

	"github.com/vanlan/vifi/internal/stats"
	"github.com/vanlan/vifi/internal/trace"
)

// Policy is a handoff strategy evaluated slot by slot.
type Policy interface {
	// Name identifies the policy in experiment output.
	Name() string
	// Reset prepares the policy for a fresh evaluation over pt.
	Reset(pt *trace.ProbeTrace)
	// Step returns the set of basestation indices the client may use
	// during the given slot (nil or empty = disconnected). It is called
	// exactly once per slot in increasing order; implementations update
	// internal state with the slot's observations after choosing. The
	// returned slice may be policy-owned scratch, valid only until the
	// next Step call.
	Step(slot int) []int
}

// alphaEWMA is the exponential averaging factor used by RSSI and BRR
// (§3.1: "an exponential averaging factor of half").
const alphaEWMA = 0.5

// slotsPerSecond converts the trace's 100 ms slots to seconds.
func slotsPerSecond(pt *trace.ProbeTrace) int {
	n := int(1e9 / pt.SlotDur.Nanoseconds())
	if n < 1 {
		n = 1
	}
	return n
}

// tripOf returns the trip index of a slot.
func tripOf(pt *trace.ProbeTrace, slot int) int {
	if pt.SlotsPerTrip <= 0 {
		return 0
	}
	return slot / pt.SlotsPerTrip
}

// --- RSSI ----------------------------------------------------------------

// RSSI associates to the basestation with the highest exponentially
// averaged RSSI of received beacons — what commodity NICs do (§3.1
// policy 1). Basestations silent beyond a staleness window drop out of the
// scan cache, as real drivers do, so the client never clings to an
// averaged RSSI from a basestation it no longer hears.
type RSSI struct {
	pt        *trace.ProbeTrace
	avg       []*stats.EWMA
	lastHeard []int
	staleSlot int
	choice    [1]int
}

// rssiStaleSec is the scan-cache staleness window in seconds.
const rssiStaleSec = 3

// NewRSSI returns the RSSI policy.
func NewRSSI() *RSSI { return &RSSI{} }

// Name implements Policy.
func (p *RSSI) Name() string { return "RSSI" }

// Reset implements Policy.
func (p *RSSI) Reset(pt *trace.ProbeTrace) {
	p.pt = pt
	p.avg = make([]*stats.EWMA, len(pt.BSes))
	p.lastHeard = make([]int, len(pt.BSes))
	for i := range p.avg {
		p.avg[i] = stats.NewEWMA(alphaEWMA)
		p.lastHeard[i] = -1 << 30
	}
	p.staleSlot = rssiStaleSec * slotsPerSecond(pt)
}

// Step implements Policy.
func (p *RSSI) Step(slot int) []int {
	best, bestVal := -1, math.Inf(-1)
	for b, e := range p.avg {
		if e.Initialized() && slot-p.lastHeard[b] <= p.staleSlot && e.Value() > bestVal {
			best, bestVal = b, e.Value()
		}
	}
	// Fold in this slot's beacons (for future decisions).
	for b := range p.avg {
		if r := p.pt.RSSI[slot][b]; !math.IsNaN(r) {
			p.avg[b].Update(r)
			p.lastHeard[b] = slot
		}
	}
	if best < 0 {
		return nil
	}
	p.choice[0] = best
	return p.choice[:]
}

// --- BRR -----------------------------------------------------------------

// BRR associates to the basestation with the highest exponentially
// averaged beacon reception ratio, computed over one-second windows
// (§3.1 policy 2; the association method ViFi itself uses for anchors).
type BRR struct {
	pt      *trace.ProbeTrace
	sps     int
	avg     []*stats.EWMA
	heard   []int // beacons heard from each BS in the current second
	pending int   // slots folded into the current second
	choice  [1]int
}

// NewBRR returns the BRR policy.
func NewBRR() *BRR { return &BRR{} }

// Name implements Policy.
func (p *BRR) Name() string { return "BRR" }

// Reset implements Policy.
func (p *BRR) Reset(pt *trace.ProbeTrace) {
	p.pt = pt
	p.sps = slotsPerSecond(pt)
	p.avg = make([]*stats.EWMA, len(pt.BSes))
	for i := range p.avg {
		p.avg[i] = stats.NewEWMA(alphaEWMA)
	}
	p.heard = make([]int, len(pt.BSes))
	p.pending = 0
}

// Step implements Policy.
func (p *BRR) Step(slot int) []int {
	best, bestVal := -1, 0.0
	for b, e := range p.avg {
		if e.Initialized() && e.Value() > bestVal {
			best, bestVal = b, e.Value()
		}
	}
	for b := range p.heard {
		if p.pt.Down[slot][b] {
			p.heard[b]++
		}
	}
	p.pending++
	if p.pending == p.sps {
		for b := range p.heard {
			p.avg[b].Update(float64(p.heard[b]) / float64(p.sps))
			p.heard[b] = 0
		}
		p.pending = 0
	}
	if best < 0 {
		return nil
	}
	p.choice[0] = best
	return p.choice[:]
}

// Value exposes the current averaged reception ratio for a basestation
// (ViFi's anchor selection reuses it).
func (p *BRR) Value(b int) float64 { return p.avg[b].Value() }

// --- Sticky --------------------------------------------------------------

// Sticky keeps the current basestation until connectivity has been absent
// for a timeout (three seconds in the paper, after the CarTel policy), then
// reassociates to the strongest signal (§3.1 policy 3).
type Sticky struct {
	pt         *trace.ProbeTrace
	sps        int
	timeout    int // slots of silence before disassociating
	current    int
	silent     int
	rssi       []*stats.EWMA
	lastHeard  []int
	timeoutSec float64
	scratch    [1]int
}

// NewSticky returns the Sticky policy with the paper's 3 s timeout.
func NewSticky() *Sticky { return &Sticky{timeoutSec: 3} }

// Name implements Policy.
func (p *Sticky) Name() string { return "Sticky" }

// Reset implements Policy.
func (p *Sticky) Reset(pt *trace.ProbeTrace) {
	p.pt = pt
	p.sps = slotsPerSecond(pt)
	p.timeout = int(p.timeoutSec * float64(p.sps))
	p.current = -1
	p.silent = 0
	p.rssi = make([]*stats.EWMA, len(pt.BSes))
	p.lastHeard = make([]int, len(pt.BSes))
	for i := range p.rssi {
		p.rssi[i] = stats.NewEWMA(alphaEWMA)
		p.lastHeard[i] = -1 << 30
	}
}

// Step implements Policy.
func (p *Sticky) Step(slot int) []int {
	choice := p.current
	// Observe.
	for b := range p.rssi {
		if r := p.pt.RSSI[slot][b]; !math.IsNaN(r) {
			p.rssi[b].Update(r)
			p.lastHeard[b] = slot
		}
	}
	if p.current >= 0 && p.pt.Down[slot][p.current] {
		p.silent = 0
	} else {
		p.silent++
	}
	if p.current < 0 || p.silent >= p.timeout {
		// Reassociate to the strongest recently heard signal.
		best, bestVal := -1, math.Inf(-1)
		stale := rssiStaleSec * p.sps
		for b, e := range p.rssi {
			if e.Initialized() && slot-p.lastHeard[b] <= stale && e.Value() > bestVal {
				best, bestVal = b, e.Value()
			}
		}
		if best >= 0 {
			p.current = best
			p.silent = 0
		}
	}
	if choice < 0 {
		return nil
	}
	p.scratch[0] = choice
	return p.scratch[:]
}

// --- History -------------------------------------------------------------

// History associates to the basestation that historically performed best
// at the vehicle's current location, performance being the sum of
// reception ratios in both directions averaged across previous traversals
// (§3.1 policy 4, after MobiSteer). Locations are discretized into grid
// cells; only completed trips contribute, so the current trip never sees
// its own future.
type History struct {
	pt       *trace.ProbeTrace
	cell     float64 // grid cell size in meters
	perf     map[[2]int][]float64
	count    map[[2]int][]int
	trip     int
	fallback *BRR
	// staged holds the current trip's observations, merged at trip end.
	stagedPerf  map[[2]int][]float64
	stagedCount map[[2]int][]int
	scratch     [1]int
}

// NewHistory returns the History policy with 25 m grid cells.
func NewHistory() *History { return &History{cell: 25} }

// Name implements Policy.
func (p *History) Name() string { return "History" }

// Reset implements Policy.
func (p *History) Reset(pt *trace.ProbeTrace) {
	p.pt = pt
	p.perf = map[[2]int][]float64{}
	p.count = map[[2]int][]int{}
	p.stagedPerf = map[[2]int][]float64{}
	p.stagedCount = map[[2]int][]int{}
	p.trip = 0
	p.fallback = NewBRR()
	p.fallback.Reset(pt)
}

func (p *History) cellOf(slot int) [2]int {
	pos := p.pt.Pos[slot]
	return [2]int{int(math.Floor(pos.X / p.cell)), int(math.Floor(pos.Y / p.cell))}
}

// Step implements Policy.
func (p *History) Step(slot int) []int {
	if tr := tripOf(p.pt, slot); tr != p.trip {
		// Trip boundary: merge the staged observations into history.
		for c, vals := range p.stagedPerf {
			dst := p.perf[c]
			cnt := p.count[c]
			if dst == nil {
				dst = make([]float64, len(p.pt.BSes))
				cnt = make([]int, len(p.pt.BSes))
			}
			for b := range vals {
				dst[b] += vals[b]
				cnt[b] += p.stagedCount[c][b]
			}
			p.perf[c] = dst
			p.count[c] = cnt
		}
		p.stagedPerf = map[[2]int][]float64{}
		p.stagedCount = map[[2]int][]int{}
		p.trip = tr
	}

	cell := p.cellOf(slot)
	choice := -1
	if vals, ok := p.perf[cell]; ok {
		bestVal := 0.0
		for b, v := range vals {
			if c := p.count[cell][b]; c > 0 {
				avg := v / float64(c)
				if avg > bestVal {
					choice, bestVal = b, avg
				}
			}
		}
	}
	fb := p.fallback.Step(slot) // keeps fallback state current
	if choice < 0 && len(fb) > 0 {
		choice = fb[0]
	}

	// Stage this slot's performance observation.
	vals := p.stagedPerf[cell]
	cnts := p.stagedCount[cell]
	if vals == nil {
		vals = make([]float64, len(p.pt.BSes))
		cnts = make([]int, len(p.pt.BSes))
	}
	for b := range p.pt.BSes {
		perf := 0.0
		if p.pt.Down[slot][b] {
			perf++
		}
		if p.pt.Up[slot][b] {
			perf++
		}
		vals[b] += perf / 2
		cnts[b]++
	}
	p.stagedPerf[cell] = vals
	p.stagedCount[cell] = cnts

	if choice < 0 {
		return nil
	}
	p.scratch[0] = choice
	return p.scratch[:]
}

// --- BestBS --------------------------------------------------------------

// BestBS re-associates at the start of every second to the basestation
// with the best performance over the upcoming second — an oracle that
// upper-bounds every hard-handoff method (§3.1 policy 5).
type BestBS struct {
	pt      *trace.ProbeTrace
	sps     int
	choice  int
	scratch [1]int
}

// NewBestBS returns the BestBS oracle.
func NewBestBS() *BestBS { return &BestBS{} }

// Name implements Policy.
func (p *BestBS) Name() string { return "BestBS" }

// Reset implements Policy.
func (p *BestBS) Reset(pt *trace.ProbeTrace) {
	p.pt = pt
	p.sps = slotsPerSecond(pt)
	p.choice = -1
}

// Step implements Policy.
func (p *BestBS) Step(slot int) []int {
	if slot%p.sps == 0 {
		best, bestVal := -1, 0
		endTrip := tripOf(p.pt, slot)
		for b := range p.pt.BSes {
			score := 0
			for j := slot; j < slot+p.sps && j < p.pt.Slots; j++ {
				if tripOf(p.pt, j) != endTrip {
					break
				}
				if p.pt.Down[j][b] {
					score++
				}
				if p.pt.Up[j][b] {
					score++
				}
			}
			if score > bestVal {
				best, bestVal = b, score
			}
		}
		p.choice = best
	}
	if p.choice < 0 {
		return nil
	}
	p.scratch[0] = p.choice
	return p.scratch[:]
}

// --- AllBSes -------------------------------------------------------------

// AllBSes uses every basestation opportunistically: an upstream packet
// succeeds if any basestation hears it, a downstream packet if the vehicle
// hears any basestation — the macrodiversity upper bound (§3.1 policy 6).
type AllBSes struct {
	all []int
}

// NewAllBSes returns the AllBSes oracle.
func NewAllBSes() *AllBSes { return &AllBSes{} }

// Name implements Policy.
func (p *AllBSes) Name() string { return "AllBSes" }

// Reset implements Policy.
func (p *AllBSes) Reset(pt *trace.ProbeTrace) {
	p.all = make([]int, len(pt.BSes))
	for i := range p.all {
		p.all[i] = i
	}
}

// Step implements Policy.
func (p *AllBSes) Step(int) []int { return p.all }

// AllPolicies returns fresh instances of the six §3.1 policies in the
// paper's order.
func AllPolicies() []Policy {
	return []Policy{NewRSSI(), NewBRR(), NewSticky(), NewHistory(), NewBestBS(), NewAllBSes()}
}
