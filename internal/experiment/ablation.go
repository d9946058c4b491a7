package experiment

import (
	"fmt"
	"time"

	"github.com/vanlan/vifi/internal/core"
	"github.com/vanlan/vifi/internal/frame"
	"github.com/vanlan/vifi/internal/mobility"
	"github.com/vanlan/vifi/internal/obs"
	"github.com/vanlan/vifi/internal/radio"
	"github.com/vanlan/vifi/internal/sim"
)

// AblateAux probes the §5.5.2 limitation: coordination quality as the
// number of (symmetric, equidistant) auxiliaries grows. False positives
// and negatives should degrade at high, symmetric auxiliary counts.
func AblateAux(o Options) *Report {
	r := &Report{
		ID:     "ablate-aux",
		Title:  "Coordination vs number of symmetric auxiliaries (§5.5.2)",
		Header: []string{"#aux", "false positives", "false negatives", "relays/pkt"},
	}
	eng := o.engine()
	dur := time.Duration(o.scaled(300)) * time.Second
	counts := []int{1, 2, 4, 8, 16, 24}
	futs := make([]Future[*Collector], len(counts))
	for i, nAux := range counts {
		futs[i] = goJob(eng, func() *Collector {
			col := NewCollector()
			runSymmetricCell(o.Seed, nAux, dur, col, eng.metricsInterval)
			return col
		})
	}
	for i, nAux := range counts {
		col := futs[i].Wait()
		down := col.Stats(core.Down)
		relaysPerPkt := 0.0
		if down.SourceTransmissions > 0 {
			relaysPerPkt = float64(col.RelayAir[int(core.Down)]) / float64(down.SourceTransmissions)
		}
		r.AddRow(fmt.Sprint(nAux), pct(down.FalsePositiveRate), pct(down.FalseNegativeRate), f2(relaysPerPkt))
	}
	r.AddNote("paper shape: averages stay ≈1 relay/packet but the variance (and false positives) grow with many equidistant auxiliaries")
	return r
}

// runSymmetricCell builds a cell with one anchor, nAux perfectly
// symmetric auxiliaries, a mediocre anchor→vehicle link, and a steady
// downstream packet stream. mi > 0 samples metrics at that cadence.
func runSymmetricCell(seed int64, nAux int, dur time.Duration, col *Collector, mi time.Duration) {
	k := sim.NewKernel(seed)
	nbs := nAux + 1
	veh := radio.NodeID(nbs)
	anchor := radio.NodeID(0)
	opts := core.DefaultCellOptions()
	cfg := core.DefaultConfig()
	cfg.MaxRetx = 0
	opts.Protocol = cfg
	opts.Events = col.Handle
	opts.LinkFactory = func(from, to radio.NodeID) radio.LinkModel {
		switch {
		case from == anchor && to == veh:
			return radio.FixedLink(0.6) // anchor downstream: mediocre
		case from == veh && to == anchor:
			return radio.FixedLink(0.9)
		case from == veh || to == veh:
			return radio.FixedLink(0.55) // every auxiliary identical
		default:
			return radio.FixedLink(0.9) // BSes hear each other well
		}
	}
	movers := make([]mobility.Mover, nbs)
	for i := range movers {
		movers[i] = mobility.Fixed{X: float64(i) * 10}
	}
	cell := core.NewCell(k, opts, movers, mobility.Fixed{X: float64(nbs) * 10})
	var sp *obs.Sampler
	if mi > 0 {
		sp = obs.Attach(k, buildRegistry(k, cell, nil, nil), mi, dur,
			runMeta("ablate-aux", fmt.Sprintf("aux=%d", nAux), seed, 1, dur, cfg))
	}
	k.RunUntil(3 * time.Second)
	n := int((dur - 3*time.Second) / (50 * time.Millisecond))
	k.Every(3*time.Second, 50*time.Millisecond, n, func(int) {
		cell.Gateway.Send(cell.Vehicle.Addr(), make([]byte, 200))
	})
	k.RunUntil(dur)
	if sp != nil {
		logRecording(sp.Recording())
	}
}

// spuriousRetxRate computes retransmissions for packets that had already
// been received, per delivered packet.
func spuriousRetxRate(c *Collector) float64 {
	received := map[frame.PacketID]uint8{} // earliest attempt received
	for k, rec := range c.tx {
		if rec.dstDirect || rec.relayRecv > 0 {
			if cur, ok := received[k.id]; !ok || k.attempt < cur {
				received[k.id] = k.attempt
			}
		}
	}
	spurious := 0
	for k, rec := range c.tx {
		if !rec.srcTx || k.attempt == 0 {
			continue
		}
		if first, ok := received[k.id]; ok && k.attempt > first {
			spurious++
		}
	}
	delivered := c.Deliver[0] + c.Deliver[1]
	if delivered == 0 {
		return 0
	}
	return float64(spurious) / float64(delivered)
}
