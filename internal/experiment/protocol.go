package experiment

import (
	"fmt"
	"time"

	"github.com/vanlan/vifi/internal/core"
	"github.com/vanlan/vifi/internal/handoff"
	"github.com/vanlan/vifi/internal/stats"
	"github.com/vanlan/vifi/internal/trace"
	"github.com/vanlan/vifi/internal/workload"
)

// Fig7 reproduces the link-layer comparison: ViFi's median session length
// against BRR and the trace-evaluated BestBS/AllBSes oracles, swept over
// the adequacy definition as in Fig 4.
func Fig7(o Options) *Report {
	r := &Report{
		ID:     "fig7",
		Title:  "Link-layer median session length: ViFi vs handoff policies (VanLAN)",
		Header: []string{"sweep", "x", "AllBSes", "ViFi", "BestBS", "BRR"},
	}
	eng := o.engine()
	dur := time.Duration(o.scaled(900)) * time.Second
	probe := testbedSpec("vanlan", workload.CBRKind)
	vifiF := eng.FleetApp(o.Seed, probe, core.DefaultConfig(), dur, 1)
	brrF := eng.FleetApp(o.Seed, probe, core.BRRConfig(), dur, 1)
	ptF := eng.VanLANProbes(o.Seed, o.scaled(8))
	pt := ptF.Wait()
	// The oracles are one trace replay each, pool jobs; every row then
	// reduces their slot tables and the two live runs' alike.
	allF := goJob(eng, func() *stats.SlotTable { return handoff.Evaluate(pt, handoff.NewAllBSes()) })
	bestF := goJob(eng, func() *stats.SlotTable { return handoff.Evaluate(pt, handoff.NewBestBS()) })
	addSessionSweep(r, []time.Duration{500 * time.Millisecond, time.Second,
		2 * time.Second, 4 * time.Second, 8 * time.Second},
		allF.Wait(), vifiF.Wait().Link, bestF.Wait(), brrF.Wait().Link)
	r.AddNote("paper shape: ViFi beats the BestBS oracle and approaches AllBSes; BRR trails badly")
	return r
}

// Fig8 reproduces the qualitative BRR-vs-ViFi trip timelines.
func Fig8(o Options) *Report {
	r := &Report{
		ID:     "fig8",
		Title:  "BRR vs ViFi along a VanLAN path segment",
		Header: []string{"protocol", "timeline (1s cells: # adequate, . interrupted)"},
	}
	eng := o.engine()
	dur := time.Duration(o.scaled(400)) * time.Second
	arms := []struct {
		name string
		cfg  core.Config
	}{{"BRR", core.BRRConfig()}, {"ViFi", core.DefaultConfig()}}
	futs := make([]Future[*FleetAppRun], len(arms))
	for i, c := range arms {
		futs[i] = eng.FleetApp(o.Seed, testbedSpec("vanlan", workload.CBRKind), c.cfg, dur, 1)
	}
	for i, c := range arms {
		adequate, interruptions := futs[i].Wait().Link.Timeline(0)
		r.AddRow(c.name, sparkline(adequate))
		r.AddRow(c.name+" interruptions", fmt.Sprint(interruptions))
	}
	r.AddNote("paper shape: the same segment shows several interruptions under BRR and almost none under ViFi")
	return r
}

// Fig10 reproduces the DieselNet TCP results: completed transfers per
// second on channels 1 and 6, trace-driven.
func Fig10(o Options) *Report {
	r := &Report{
		ID:     "fig10",
		Title:  "TCP performance in DieselNet (transfers/second)",
		Header: []string{"environment", "BRR", "ViFi", "gain"},
	}
	eng := o.engine()
	dur := time.Duration(o.scaled(1800)) * time.Second
	envs := testbeds[1:] // the DieselNet channels
	brrF := make([]Future[*FleetAppRun], len(envs))
	vifiF := make([]Future[*FleetAppRun], len(envs))
	for i, env := range envs {
		// Only the completion count and span are read: no collector.
		spec := testbedSpec(env.preset, workload.TCPKind)
		brrF[i] = eng.FleetApp(o.Seed, spec, core.BRRConfig(), dur, 1)
		vifiF[i] = eng.FleetApp(o.Seed, spec, core.DefaultConfig(), dur, 1)
	}
	for i, env := range envs {
		rate := func(f Future[*FleetAppRun]) float64 {
			m := f.Wait().PerVehicle[0]
			return float64(m.Completed) / m.Span.Seconds()
		}
		b := rate(brrF[i])
		v := rate(vifiF[i])
		gain := "n/a"
		if b > 0 {
			gain = fmt.Sprintf("%.1fx", v/b)
		}
		r.AddRow(env.name, fmt.Sprintf("%.3f", b), fmt.Sprintf("%.3f", v), gain)
	}
	r.AddNote("paper shape: ViFi roughly doubles BRR's transfer rate on both channels")
	return r
}

// Fig11 reproduces the VoIP results: median uninterrupted session length
// (MoS ≥ 2 in 3 s windows) and mean MoS for BRR and ViFi across all three
// environments.
func Fig11(o Options) *Report {
	r := &Report{
		ID:     "fig11",
		Title:  "Median length of uninterrupted VoIP sessions",
		Header: []string{"environment", "BRR session (s)", "ViFi session (s)", "gain", "BRR MoS", "ViFi MoS"},
	}
	eng := o.engine()
	dur := time.Duration(o.scaled(1200)) * time.Second
	runs := o.scaled(3)
	// Schedule every (env, protocol, replicate) run up front, then pool in
	// declaration order — the paper pools sessions across days of driving.
	futs := map[string]map[bool][]Future[*FleetAppRun]{}
	for _, env := range testbeds {
		futs[env.preset] = map[bool][]Future[*FleetAppRun]{}
		for _, brr := range []bool{true, false} {
			cfg := core.DefaultConfig()
			if brr {
				cfg = core.BRRConfig()
			}
			fs := make([]Future[*FleetAppRun], runs)
			for i := 0; i < runs; i++ {
				fs[i] = eng.FleetApp(o.Seed+int64(i*977), testbedSpec(env.preset, workload.VoIPKind), cfg, dur, 1)
			}
			futs[env.preset][brr] = fs
		}
	}
	for _, env := range testbeds {
		pooled := func(fs []Future[*FleetAppRun]) (median, meanMoS float64) {
			var lens []float64
			var mosSum float64
			var mosN int
			for _, f := range fs {
				q := f.Wait().PerVehicle[0].VoIP
				lens = append(lens, q.SessionLens...)
				mosSum += q.MeanMoS * float64(q.Windows)
				mosN += q.Windows
			}
			if mosN > 0 {
				meanMoS = mosSum / float64(mosN)
			}
			return stats.TimeWeightedMedian(lens), meanMoS
		}
		bMed, bMoS := pooled(futs[env.preset][true])
		vMed, vMoS := pooled(futs[env.preset][false])
		gain := "n/a"
		if bMed > 0 {
			gain = fmt.Sprintf("%.1fx", vMed/bMed)
		}
		r.AddRow(env.name, f1(bMed), f1(vMed), gain, f2(bMoS), f2(vMoS))
	}
	r.AddNote("paper shape: ViFi sessions ≈2× BRR on VanLAN, ≥1.5× on DieselNet; mean MoS 3.4 vs 3.0 on VanLAN")
	return r
}

// Fig12 reproduces the medium-usage efficiency comparison: application
// packets delivered per wireless transmission, upstream and downstream,
// for BRR, ViFi and the PerfectRelay oracle estimated from ViFi's logs.
func Fig12(o Options) *Report {
	r := &Report{
		ID:     "fig12",
		Title:  "Efficiency of medium usage (VanLAN TCP workload)",
		Header: []string{"direction", "BRR", "ViFi", "PerfectRelay"},
	}
	eng := o.engine()
	dur := time.Duration(o.scaled(1200)) * time.Second
	tcp := testbedSpec("vanlan", workload.TCPKind)
	brrF := eng.collect(o.Seed, tcp, core.BRRConfig(), dur)
	vifiF := eng.collect(o.Seed, tcp, core.DefaultConfig(), dur)
	brr := brrF.Wait().Collector
	vifi := vifiF.Wait().Collector
	for _, dir := range []core.Direction{core.Up, core.Down} {
		r.AddRow(dir.String(),
			f2(brr.Efficiency(dir)),
			f2(vifi.Efficiency(dir)),
			f2(vifi.PerfectRelayEfficiency(dir)))
	}
	r.AddNote("paper shape: upstream ViFi ≈ PerfectRelay > BRR; downstream all comparable with BRR slightly ahead of ViFi")
	return r
}

// Table1 reproduces the detailed coordination statistics of the VanLAN
// TCP experiments.
func Table1(o Options) *Report {
	r := &Report{
		ID:     "table1",
		Title:  "Detailed ViFi coordination behaviour (VanLAN TCP)",
		Header: []string{"row", "statistic", "upstream", "downstream"},
	}
	dur := time.Duration(o.scaled(1200)) * time.Second
	col := o.engine().collect(o.Seed, testbedSpec("vanlan", workload.TCPKind), core.DefaultConfig(), dur).Wait().Collector
	up := col.Stats(core.Up)
	down := col.Stats(core.Down)
	med := col.MedianAuxCount()
	r.AddRow("A1", "Median number of auxiliary BSes", fmt.Sprint(med), fmt.Sprint(med))
	r.AddRow("A2", "Avg aux hearing a source transmission", f1(up.MeanAuxHeard), f1(down.MeanAuxHeard))
	r.AddRow("A3", "Avg aux hearing it but not the ack", f1(up.MeanAuxContending), f1(down.MeanAuxContending))
	r.AddRow("B1", "Source transmissions reaching destination", pct(up.DirectSuccess), pct(down.DirectSuccess))
	r.AddRow("B2", "False positives (relays for successes)", pct(up.FalsePositiveRate), pct(down.FalsePositiveRate))
	r.AddRow("B3", "Avg relays when a false positive occurs", f1(up.MeanRelaysOnFP), f1(down.MeanRelaysOnFP))
	r.AddRow("C1", "Source transmissions missing destination", pct(1-up.DirectSuccess), pct(1-down.DirectSuccess))
	r.AddRow("C2", "Failed transmissions overheard by ≥1 aux", pct(up.FailedOverheard), pct(down.FailedOverheard))
	r.AddRow("C3", "False negatives (no relay for failures)", pct(up.FalseNegativeRate), pct(down.FalseNegativeRate))
	r.AddRow("C4", "Relayed packets reaching destination", pct(up.RelayDelivery), pct(down.RelayDelivery))
	r.AddNote("counterfactual FP without ack suppression or coin: up %s / down %s; hearing-only: up %s / down %s (paper: 60/250 and 170/360)",
		pct(up.DeterministicFPRate), pct(down.DeterministicFPRate),
		pct(up.AllHeardFPRate), pct(down.AllHeardFPRate))
	return r
}

// TraceSummary reduces a DieselNet trace to the headline coverage
// numbers; cmd/vifi-trace prints it when inspecting a CSV.
func TraceSummary(tr *trace.Trace) []string {
	counts := tr.VisibleCounts(0)
	any1, any2 := 0, 0
	for _, c := range counts {
		if c >= 1 {
			any1++
		}
		if c >= 2 {
			any2++
		}
	}
	return []string{
		fmt.Sprintf("seconds: %d", tr.Seconds()),
		fmt.Sprintf("basestations: %d", tr.NumBSes()),
		fmt.Sprintf("seconds with ≥1 BS audible: %s", pct(float64(any1)/float64(tr.Seconds()))),
		fmt.Sprintf("seconds with ≥2 BSes audible: %s", pct(float64(any2)/float64(tr.Seconds()))),
	}
}
