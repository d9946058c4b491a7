package trace

import (
	"fmt"
	"math"
	"time"

	"github.com/vanlan/vifi/internal/mobility"
	"github.com/vanlan/vifi/internal/radio"
	"github.com/vanlan/vifi/internal/sim"
)

// ProbeTrace is the §3 measurement log: per 100 ms slot, whether each
// direction of each vehicle↔BS pair delivered its 500-byte probe, plus
// the RSSI of downstream beacons (for the RSSI and Sticky policies) and
// the vehicle position (for the History policy and the path plots). That
// is everything a handoff replay reads: the log keeps no
// basestation↔basestation ratios.
type ProbeTrace struct {
	BSes    []string
	SlotDur time.Duration
	Slots   int
	// SlotsPerTrip partitions the trace into vehicle passes; sessions and
	// history never span a trip boundary. 0 means a single unbroken pass.
	SlotsPerTrip int
	// Down[slot][bs]: the vehicle decoded the probe from bs.
	Down [][]bool
	// Up[slot][bs]: bs decoded the probe from the vehicle.
	Up [][]bool
	// RSSI[slot][bs]: RSSI of the decoded downstream probe; NaN when the
	// probe was lost.
	RSSI [][]float64
	// Pos[slot]: vehicle position at the slot start.
	Pos []mobility.Point
}

// Validate checks structural invariants.
func (pt *ProbeTrace) Validate() error {
	nb := len(pt.BSes)
	if len(pt.Down) != pt.Slots || len(pt.Up) != pt.Slots ||
		len(pt.RSSI) != pt.Slots || len(pt.Pos) != pt.Slots {
		return fmt.Errorf("trace: probe arrays disagree with Slots=%d", pt.Slots)
	}
	for s := 0; s < pt.Slots; s++ {
		if len(pt.Down[s]) != nb || len(pt.Up[s]) != nb || len(pt.RSSI[s]) != nb {
			return fmt.Errorf("trace: slot %d rows sized wrong", s)
		}
	}
	return nil
}

// ProbeSlot is the §3 probe interval: every node broadcasts one probe
// per 100 ms slot. The §5.2 link-layer probe (scenario's CBR on a
// testbed) sends at the same cadence, so Fig 7 compares tables of one
// slot length.
const ProbeSlot = 100 * time.Millisecond

// GenerateVanLANProbes synthesizes the §3 probe logs over every VanLAN
// basestation: the shuttle drives its loop trips times while every node
// broadcasts a probe per ProbeSlot, through the default channel model.
// Collisions are ignored, as in the paper's methodology ("We verified
// that self-interference of this traffic is minimal"). An experiment on
// fewer basestations takes ProbeTrace.Subset of this trace.
func GenerateVanLANProbes(seed int64, trips int) *ProbeTrace {
	v := mobility.NewVanLAN()
	params := radio.DefaultParams()
	k := sim.NewKernel(seed)
	nb := len(v.BSes)

	type dir struct {
		link *radio.FadingLink
		coin *sim.RNG
	}
	down := make([]dir, nb)
	up := make([]dir, nb)
	rssiRNG := make([]*sim.RNG, nb)
	for b := range nb {
		down[b] = dir{
			link: radio.NewFadingLink(params, k.RNG("vanlan", "down", fmt.Sprint(b))),
			coin: k.RNG("vanlan", "down-coin", fmt.Sprint(b)),
		}
		up[b] = dir{
			link: radio.NewFadingLink(params, k.RNG("vanlan", "up", fmt.Sprint(b))),
			coin: k.RNG("vanlan", "up-coin", fmt.Sprint(b)),
		}
		rssiRNG[b] = k.RNG("vanlan", "rssi", fmt.Sprint(b))
	}

	lap := v.Route.LapTime()
	slotsPerTrip := int(lap / ProbeSlot)
	pt := &ProbeTrace{
		BSes:         make([]string, nb),
		SlotDur:      ProbeSlot,
		Slots:        slotsPerTrip * trips,
		SlotsPerTrip: slotsPerTrip,
	}
	for b := range nb {
		pt.BSes[b] = fmt.Sprintf("bs%d", b)
	}
	pt.Down = make([][]bool, pt.Slots)
	pt.Up = make([][]bool, pt.Slots)
	pt.RSSI = make([][]float64, pt.Slots)
	pt.Pos = make([]mobility.Point, pt.Slots)
	// Rows are slices of three flat backing arrays: per-slot row
	// allocation would dominate the generator's profile.
	downFlat := make([]bool, pt.Slots*nb)
	upFlat := make([]bool, pt.Slots*nb)
	rssiFlat := make([]float64, pt.Slots*nb)

	for s := 0; s < pt.Slots; s++ {
		at := time.Duration(s) * ProbeSlot
		pos := v.Route.Position(at)
		pt.Pos[s] = pos
		dRow := downFlat[s*nb : (s+1)*nb : (s+1)*nb]
		uRow := upFlat[s*nb : (s+1)*nb : (s+1)*nb]
		rRow := rssiFlat[s*nb : (s+1)*nb : (s+1)*nb]
		for b, bs := range v.BSes {
			dist := pos.Dist(bs)
			dOK := down[b].link.Receives(at, dist, down[b].coin.Float64())
			uOK := up[b].link.Receives(at, dist, up[b].coin.Float64())
			dRow[b] = dOK
			uRow[b] = uOK
			if dOK {
				rRow[b] = radio.RSSIBase(dist) + rssiRNG[b].NormFloat64()*radio.RSSINoiseDB
			} else {
				rRow[b] = math.NaN()
			}
		}
		pt.Down[s] = dRow
		pt.Up[s] = uRow
		pt.RSSI[s] = rRow
	}
	return pt
}

// Subset extracts the columns of the given basestations (by index into
// the generating deployment) from a full probe trace: basestation i of
// the result is basestation idx[i] of pt with its Down/Up/RSSI columns,
// and the vehicle positions are shared. Every
// basestation's loss, fading and RSSI streams are labelled by its
// absolute index, so one full-trace generation serves every subset
// experiment.
func (pt *ProbeTrace) Subset(idx []int) *ProbeTrace {
	nb := len(idx)
	out := &ProbeTrace{
		BSes:         make([]string, nb),
		SlotDur:      pt.SlotDur,
		Slots:        pt.Slots,
		SlotsPerTrip: pt.SlotsPerTrip,
		Down:         make([][]bool, pt.Slots),
		Up:           make([][]bool, pt.Slots),
		RSSI:         make([][]float64, pt.Slots),
		Pos:          pt.Pos,
	}
	for i, b := range idx {
		out.BSes[i] = pt.BSes[b]
	}
	downFlat := make([]bool, pt.Slots*nb)
	upFlat := make([]bool, pt.Slots*nb)
	rssiFlat := make([]float64, pt.Slots*nb)
	for s := 0; s < pt.Slots; s++ {
		dRow := downFlat[s*nb : (s+1)*nb : (s+1)*nb]
		uRow := upFlat[s*nb : (s+1)*nb : (s+1)*nb]
		rRow := rssiFlat[s*nb : (s+1)*nb : (s+1)*nb]
		for i, b := range idx {
			dRow[i] = pt.Down[s][b]
			uRow[i] = pt.Up[s][b]
			rRow[i] = pt.RSSI[s][b]
		}
		out.Down[s] = dRow
		out.Up[s] = uRow
		out.RSSI[s] = rRow
	}
	return out
}

// VisibleCounts mirrors Trace.VisibleCounts for probe traces: for each
// one-second window, the number of BSes whose downstream reception ratio
// met the threshold (0 ⇒ at least one probe heard).
func (pt *ProbeTrace) VisibleCounts(threshold float64) []int {
	slotsPerSec := int(time.Second / pt.SlotDur)
	secs := pt.Slots / slotsPerSec
	out := make([]int, secs)
	for s := 0; s < secs; s++ {
		for b := range pt.BSes {
			heard := 0
			for j := 0; j < slotsPerSec; j++ {
				if pt.Down[s*slotsPerSec+j][b] {
					heard++
				}
			}
			ratio := float64(heard) / float64(slotsPerSec)
			if (threshold == 0 && ratio > 0) || (threshold > 0 && ratio >= threshold) {
				out[s]++
			}
		}
	}
	return out
}
