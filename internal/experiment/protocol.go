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

// brrAndViFi declares a BRR arm and then a ViFi arm on each testbed,
// both labelled by its name: the §5 comparisons across environments (Fig
// 10, Fig 11), whose reducers read the arms in pairs.
func brrAndViFi(envs []struct{ preset, name string }) []sweepArm {
	arms := make([]sweepArm, 0, 2*len(envs))
	for _, env := range envs {
		arms = append(arms, sweepArm{label: env.name, preset: env.preset, cfg: core.BRRConfig},
			sweepArm{label: env.name, preset: env.preset})
	}
	return arms
}

// gain renders ViFi's result as a multiple of BRR's, n/a when BRR's is 0.
func gain(vifi, brr float64) string {
	if brr > 0 {
		return fmt.Sprintf("%.1fx", vifi/brr)
	}
	return "n/a"
}

// transferRate is a TCP run's completed transfers per second of session,
// 0 when the run ended before its session began.
func transferRate(run *FleetAppRun) float64 {
	m := run.PerVehicle[0]
	if m.Span <= 0 {
		return 0
	}
	return float64(m.Completed) / m.Span.Seconds()
}

// pooledVoIP pools VoIP runs in order — the paper pools sessions across
// days of driving — into the time-weighted median uninterrupted session
// (seconds) and the window-weighted mean MoS.
func pooledVoIP(runs []*FleetAppRun) (median, meanMoS float64) {
	var lens []float64
	var windows int
	for _, run := range runs {
		q := run.PerVehicle[0].VoIP
		lens = append(lens, q.SessionLens...)
		meanMoS += q.MeanMoS * float64(q.Windows)
		windows += q.Windows
	}
	if windows > 0 {
		meanMoS /= float64(windows)
	}
	return stats.TimeWeightedMedian(lens), meanMoS
}

// coordinationRows is Table 1's reducer: the coordination statistics of
// its one collecting ViFi run, and the counterfactual false-positive
// rates as a note.
func coordinationRows(r *Report, _ []sweepArm, runs [][]*FleetAppRun) {
	col := runs[0][0].Collector
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
