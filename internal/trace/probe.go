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
// the RSSI of downstream beacons (for the RSSI handoff policy) and the
// vehicle position (for the History policy and the path plots).
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
	// InterBS[a][b]: mean reception ratio between basestations a and b
	// measured over the collection period (VanLAN logs these too, §5.1).
	InterBS [][]float64
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

// VanLANConfig parameterizes probe-trace generation.
type VanLANConfig struct {
	Seed     int64
	Trips    int           // number of shuttle passes to record
	SlotDur  time.Duration // probe interval; the paper uses 100 ms
	Params   radio.Params  // channel model
	BSSubset []int         // optional: indices of BSes to include (nil = all)
}

// DefaultVanLANConfig returns the paper's measurement settings.
func DefaultVanLANConfig(seed int64) VanLANConfig {
	return VanLANConfig{
		Seed:    seed,
		Trips:   10,
		SlotDur: 100 * time.Millisecond,
		Params:  radio.DefaultParams(),
	}
}

// GenerateVanLANProbes synthesizes the §3 probe logs: the shuttle drives
// its loop Trips times while every node broadcasts a probe per slot.
// Collisions are ignored, as in the paper's methodology ("We verified
// that self-interference of this traffic is minimal").
func GenerateVanLANProbes(cfg VanLANConfig) *ProbeTrace {
	v := mobility.NewVanLAN()
	bsIdx := cfg.BSSubset
	if bsIdx == nil {
		bsIdx = make([]int, len(v.BSes))
		for i := range bsIdx {
			bsIdx[i] = i
		}
	}
	k := sim.NewKernel(cfg.Seed)
	nb := len(bsIdx)

	type dir struct {
		link *radio.FadingLink
		coin *sim.RNG
	}
	down := make([]dir, nb)
	up := make([]dir, nb)
	rssiRNG := make([]*sim.RNG, nb)
	for i, b := range bsIdx {
		down[i] = dir{
			link: radio.NewFadingLink(cfg.Params, k.RNG("vanlan", "down", fmt.Sprint(b))),
			coin: k.RNG("vanlan", "down-coin", fmt.Sprint(b)),
		}
		up[i] = dir{
			link: radio.NewFadingLink(cfg.Params, k.RNG("vanlan", "up", fmt.Sprint(b))),
			coin: k.RNG("vanlan", "up-coin", fmt.Sprint(b)),
		}
		rssiRNG[i] = k.RNG("vanlan", "rssi", fmt.Sprint(b))
	}

	lap := v.Route.LapTime()
	slotsPerTrip := int(lap / cfg.SlotDur)
	pt := &ProbeTrace{
		BSes:         make([]string, nb),
		SlotDur:      cfg.SlotDur,
		Slots:        slotsPerTrip * cfg.Trips,
		SlotsPerTrip: slotsPerTrip,
	}
	for i, b := range bsIdx {
		pt.BSes[i] = fmt.Sprintf("bs%d", b)
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
		at := time.Duration(s) * cfg.SlotDur
		pos := v.Route.Position(at)
		pt.Pos[s] = pos
		dRow := downFlat[s*nb : (s+1)*nb : (s+1)*nb]
		uRow := upFlat[s*nb : (s+1)*nb : (s+1)*nb]
		rRow := rssiFlat[s*nb : (s+1)*nb : (s+1)*nb]
		for i, b := range bsIdx {
			dist := pos.Dist(v.BSes[b])
			dOK := down[i].link.Receives(at, dist, down[i].coin.Float64())
			uOK := up[i].link.Receives(at, dist, up[i].coin.Float64())
			dRow[i] = dOK
			uRow[i] = uOK
			if dOK {
				rRow[i] = rssiAt(cfg.Params, dist, rssiRNG[i])
			} else {
				rRow[i] = math.NaN()
			}
		}
		pt.Down[s] = dRow
		pt.Up[s] = uRow
		pt.RSSI[s] = rRow
	}

	// Inter-BS mean reception ratios from static distances through the
	// same reception curve (basestations do not move, so a long-run mean
	// is representative).
	pt.InterBS = make([][]float64, nb)
	for a := range pt.InterBS {
		pt.InterBS[a] = make([]float64, nb)
		pt.InterBS[a][a] = 1
	}
	for a := 0; a < nb; a++ {
		for b := a + 1; b < nb; b++ {
			d := v.BSes[bsIdx[a]].Dist(v.BSes[bsIdx[b]])
			l := radio.NewFadingLink(cfg.Params, k.RNG("vanlan", "interbs", fmt.Sprint(bsIdx[a]), fmt.Sprint(bsIdx[b])))
			// Average the fading process over a minute of samples.
			sum := 0.0
			const n = 600
			for j := 0; j < n; j++ {
				sum += l.ReceiveProb(time.Duration(j)*100*time.Millisecond, d)
			}
			r := sum / n
			pt.InterBS[a][b] = r
			pt.InterBS[b][a] = r
		}
	}
	return pt
}

// Subset extracts the columns of the given basestations (by index into
// the generating deployment) from a full probe trace. Because every
// basestation's loss, fading and RSSI streams are derived from labels of
// its absolute index, the extracted Down/Up/RSSI/Pos columns are
// byte-identical to generating the trace with BSSubset directly — which
// lets one full-trace generation serve every subset experiment. InterBS
// is extracted from the full-trace measurement (the directed pair order
// of a direct subset generation may differ, but the mean ratios describe
// the same static links).
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
	if pt.InterBS != nil {
		out.InterBS = make([][]float64, nb)
		for a := range idx {
			out.InterBS[a] = make([]float64, nb)
			for b := range idx {
				out.InterBS[a][b] = pt.InterBS[idx[a]][idx[b]]
			}
		}
	}
	return out
}

// rssiAt mirrors radio's synthetic RSSI (kept here so trace generation
// does not need a live channel).
func rssiAt(p radio.Params, dist float64, rng *sim.RNG) float64 {
	if dist < 1 {
		dist = 1
	}
	return p.TxPowerDBm - 40 - 10*p.PathLossExp*math.Log10(dist) + rng.NormFloat64()*p.RSSINoiseDB
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
