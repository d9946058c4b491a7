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
	"github.com/vanlan/vifi/internal/workload"
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

// AblateDiversity probes §3.4.1's claim that two to three basestations
// capture most of the diversity gain: ViFi VoIP session length on VanLAN
// restricted to its first k basestations.
func AblateDiversity(o Options) *Report {
	r := &Report{
		ID:     "ablate-diversity",
		Title:  "ViFi gain vs number of available BSes (§3.4.1)",
		Header: []string{"#BSes", "median VoIP session (s)", "mean MoS"},
	}
	eng := o.engine()
	dur := time.Duration(o.scaled(900)) * time.Second
	counts := []int{1, 2, 3, 5, 8, 11}
	futs := make([]Future[*FleetAppRun], len(counts))
	for i, nb := range counts {
		spec := testbedSpec("vanlan", workload.VoIPKind)
		spec.BS = nb
		futs[i] = eng.FleetApp(o.Seed, spec, core.DefaultConfig(), dur, 1)
	}
	for i, nb := range counts {
		q := futs[i].Wait().PerVehicle[0].VoIP
		r.AddRow(fmt.Sprint(nb), f1(q.MedianSessionSec), f2(q.MeanMoS))
	}
	r.AddNote("paper shape: most of the gain arrives by 2–3 BSes (§3.4.1)")
	return r
}

// AblateBackplane sweeps the inter-BS plane's bandwidth and latency and
// reports ViFi TCP performance, probing the §4.1 bandwidth-limited
// assumption.
func AblateBackplane(o Options) *Report {
	r := &Report{
		ID:     "ablate-backplane",
		Title:  "ViFi TCP vs backplane capacity (§4.1)",
		Header: []string{"backplane", "median transfer (s)", "transfers/session"},
	}
	dur := time.Duration(o.scaled(900)) * time.Second
	cases := []struct {
		name  string
		rate  float64
		delay time.Duration
	}{
		{"512 kbit/s, 40 ms", 512e3, 40 * time.Millisecond},
		{"2 Mbit/s, 20 ms", 2e6, 20 * time.Millisecond},
		{"5 Mbit/s, 8 ms (default)", 5e6, 8 * time.Millisecond},
		{"100 Mbit/s, 1 ms (LAN)", 100e6, time.Millisecond},
	}
	eng := o.engine()
	futs := make([]Future[*FleetAppRun], len(cases))
	for i, c := range cases {
		spec := testbedSpec("vanlan", workload.TCPKind)
		spec.BackplaneRateBps, spec.BackplaneDelay = c.rate, c.delay
		futs[i] = eng.FleetApp(o.Seed, spec, core.DefaultConfig(), dur, 1)
	}
	for i, c := range cases {
		m := futs[i].Wait().PerVehicle[0]
		r.AddRow(c.name, f2(m.TransferQuantile(0.5)), f1(m.TransfersPerSession()))
	}
	r.AddNote("design claim: ViFi needs little backplane capacity — thin links should perform close to a LAN")
	return r
}

// AblateSalvage sweeps the salvage window (§4.5) on the VanLAN TCP
// workload.
func AblateSalvage(o Options) *Report {
	r := &Report{
		ID:     "ablate-salvage",
		Title:  "Salvage window sweep on VanLAN TCP (§4.5)",
		Header: []string{"window", "median transfer (s)", "transfers/session", "salvaged"},
	}
	eng := o.engine()
	dur := time.Duration(o.scaled(1200)) * time.Second
	windows := []time.Duration{0, 500 * time.Millisecond, time.Second, 2 * time.Second, 4 * time.Second}
	futs := make([]Future[*FleetAppRun], len(windows))
	for i, w := range windows {
		cfg := core.DefaultConfig()
		if w == 0 {
			cfg.EnableSalvage = false
		} else {
			cfg.SalvageWindow = w
		}
		futs[i] = eng.collect(o.Seed, testbedSpec("vanlan", workload.TCPKind), cfg, dur)
	}
	for i, w := range windows {
		run := futs[i].Wait()
		m := run.PerVehicle[0]
		r.AddRow(fmt.Sprintf("%gs", w.Seconds()),
			f2(m.TransferQuantile(0.5)),
			f1(m.TransfersPerSession()),
			fmt.Sprint(run.Collector.Salvaged))
	}
	r.AddNote("paper: the 1 s window (minimum TCP RTO) captures the disproportionate benefit; little beyond it")
	return r
}

// AblateRetx sweeps the retransmission-timer percentile (§4.7).
func AblateRetx(o Options) *Report {
	r := &Report{
		ID:     "ablate-retx",
		Title:  "Retransmission-timer percentile sweep (§4.7)",
		Header: []string{"percentile", "median transfer (s)", "spurious retx/pkt"},
	}
	eng := o.engine()
	dur := time.Duration(o.scaled(900)) * time.Second
	percentiles := []float64{0.5, 0.9, 0.99, 0.999}
	futs := make([]Future[*FleetAppRun], len(percentiles))
	for i, p := range percentiles {
		cfg := core.DefaultConfig()
		cfg.RetxPercentile = p
		futs[i] = eng.collect(o.Seed, testbedSpec("vanlan", workload.TCPKind), cfg, dur)
	}
	for i, p := range percentiles {
		run := futs[i].Wait()
		// Spurious retransmissions ≈ retransmitted attempts whose earlier
		// attempt had already reached the destination.
		spurious := spuriousRetxRate(run.Collector)
		r.AddRow(fmt.Sprintf("%g", p), f2(run.PerVehicle[0].TransferQuantile(0.5)), f2(spurious))
	}
	r.AddNote("paper: the 99th percentile errs toward waiting, trading delay for fewer spurious retransmissions")
	return r
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
