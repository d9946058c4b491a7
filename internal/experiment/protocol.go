package experiment

import (
	"fmt"
	"time"

	"github.com/vanlan/vifi/internal/core"
	"github.com/vanlan/vifi/internal/handoff"
	"github.com/vanlan/vifi/internal/stats"
	"github.com/vanlan/vifi/internal/trace"
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
	vifiF := eng.Probe(o.Seed, EnvVanLAN, core.DefaultConfig(), dur)
	brrF := eng.Probe(o.Seed, EnvVanLAN, core.BRRConfig(), dur)
	ptF := eng.VanLANProbes(o.Seed, o.scaled(8))
	vifi, brr, pt := vifiF.Wait(), brrF.Wait(), ptF.Wait()

	// Each sweep row replays the measurement trace for the two oracles and
	// reduces both live runs — pool jobs, merged in declaration order.
	oracle := func(mk func() handoff.Policy, iv time.Duration, ratio float64) float64 {
		return handoff.Evaluate(pt, mk(), iv).MedianSessionTimeWeighted(ratio)
	}
	var rowJobs []Future[[]string]
	for _, iv := range []time.Duration{500 * time.Millisecond, time.Second,
		2 * time.Second, 4 * time.Second, 8 * time.Second} {
		rowJobs = append(rowJobs, goJob(eng, func() []string {
			return []string{"(a) interval", fmt.Sprintf("%gs", iv.Seconds()),
				fmt.Sprintf("%.0fs", oracle(func() handoff.Policy { return handoff.NewAllBSes() }, iv, 0.5)),
				fmt.Sprintf("%.0fs", vifi.MedianSession(iv, 0.5)),
				fmt.Sprintf("%.0fs", oracle(func() handoff.Policy { return handoff.NewBestBS() }, iv, 0.5)),
				fmt.Sprintf("%.0fs", brr.MedianSession(iv, 0.5))}
		}))
	}
	for _, ratio := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		rowJobs = append(rowJobs, goJob(eng, func() []string {
			return []string{"(b) ratio", pct(ratio),
				fmt.Sprintf("%.0fs", oracle(func() handoff.Policy { return handoff.NewAllBSes() }, time.Second, ratio)),
				fmt.Sprintf("%.0fs", vifi.MedianSession(time.Second, ratio)),
				fmt.Sprintf("%.0fs", oracle(func() handoff.Policy { return handoff.NewBestBS() }, time.Second, ratio)),
				fmt.Sprintf("%.0fs", brr.MedianSession(time.Second, ratio))}
		}))
	}
	for _, f := range rowJobs {
		r.AddRow(f.Wait()...)
	}
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
	futs := make([]Future[*FleetRun], len(arms))
	for i, c := range arms {
		futs[i] = eng.Probe(o.Seed, EnvVanLAN, c.cfg, dur)
	}
	for i, c := range arms {
		ratios := futs[i].Wait().intervalRatios(0, time.Second)
		adequate := make([]bool, len(ratios))
		for i, ratio := range ratios {
			adequate[i] = ratio >= 0.5
		}
		_, interruptions := stats.Sessions(ratios, 0.5, 1)
		r.AddRow(c.name, sparkline(adequate))
		r.AddRow(c.name+" interruptions", fmt.Sprint(interruptions))
	}
	r.AddNote("paper shape: the same segment shows several interruptions under BRR and almost none under ViFi")
	return r
}

// Fig9 reproduces the VanLAN TCP results: median transfer time for BRR,
// ViFi without salvaging ("Only Diversity") and full ViFi, plus completed
// transfers per session, with the EVDO cellular reference.
func Fig9(o Options) *Report {
	r := &Report{
		ID:     "fig9",
		Title:  "TCP performance in VanLAN (10 KB transfers)",
		Header: []string{"protocol", "median transfer (s)", "p90 transfer (s)", "transfers/session", "completed", "aborted", "salvaged pkts"},
	}
	eng := o.engine()
	dur := time.Duration(o.scaled(1200)) * time.Second
	arms := []struct {
		name string
		cfg  core.Config
	}{
		{"BRR", core.BRRConfig()},
		{"Only Diversity", core.DiversityOnlyConfig()},
		{"ViFi", core.DefaultConfig()},
	}
	futs := make([]Future[*TCPRun], len(arms))
	for i, c := range arms {
		futs[i] = eng.TCP(o.Seed, EnvVanLAN, c.cfg, dur)
	}
	for i, c := range arms {
		run := futs[i].Wait()
		r.AddRow(c.name,
			f2(run.Stats.MedianTransferTime()),
			f2(run.Stats.TransferTimes.Quantile(0.9)),
			f1(run.Stats.TransfersPerSession()),
			fmt.Sprint(run.Stats.Completed),
			fmt.Sprint(run.Stats.Aborted),
			fmt.Sprint(run.Salvaged))
	}
	r.AddNote("paper shape: ViFi halves BRR's median transfer time and doubles transfers/session; salvaging adds ~10%% on top of diversity")
	r.AddNote("paper reference: EVDO Rev. A measured 0.75 s median downlink for the same workload")
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
	envs := []Env{EnvDieselNetCh1, EnvDieselNetCh6}
	brrF := make([]Future[*TCPRun], len(envs))
	vifiF := make([]Future[*TCPRun], len(envs))
	for i, env := range envs {
		brrF[i] = eng.TCP(o.Seed, env, core.BRRConfig(), dur)
		vifiF[i] = eng.TCP(o.Seed, env, core.DefaultConfig(), dur)
	}
	for i, env := range envs {
		rate := func(f Future[*TCPRun]) float64 {
			run := f.Wait()
			return float64(run.Stats.Completed) / run.Duration.Seconds()
		}
		b := rate(brrF[i])
		v := rate(vifiF[i])
		gain := "n/a"
		if b > 0 {
			gain = fmt.Sprintf("%.1fx", v/b)
		}
		r.AddRow(env.String(), fmt.Sprintf("%.3f", b), fmt.Sprintf("%.3f", v), gain)
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
	envs := []Env{EnvVanLAN, EnvDieselNetCh1, EnvDieselNetCh6}
	// Schedule every (env, protocol, replicate) run up front, then pool in
	// declaration order — the paper pools sessions across days of driving.
	futs := map[Env]map[bool][]Future[*VoIPRun]{}
	for _, env := range envs {
		futs[env] = map[bool][]Future[*VoIPRun]{}
		for _, brr := range []bool{true, false} {
			cfg := core.DefaultConfig()
			if brr {
				cfg = core.BRRConfig()
			}
			fs := make([]Future[*VoIPRun], runs)
			for i := 0; i < runs; i++ {
				fs[i] = eng.VoIP(o.Seed+int64(i*977), env, cfg, dur)
			}
			futs[env][brr] = fs
		}
	}
	for _, env := range envs {
		pooled := func(fs []Future[*VoIPRun]) (median, meanMoS float64) {
			var lens []float64
			var mosSum float64
			var mosN int
			for _, f := range fs {
				q := f.Wait().Quality
				lens = append(lens, q.SessionLens...)
				mosSum += q.MeanMoS * float64(q.Windows)
				mosN += q.Windows
			}
			if mosN > 0 {
				meanMoS = mosSum / float64(mosN)
			}
			return stats.TimeWeightedMedian(lens), meanMoS
		}
		bMed, bMoS := pooled(futs[env][true])
		vMed, vMoS := pooled(futs[env][false])
		gain := "n/a"
		if bMed > 0 {
			gain = fmt.Sprintf("%.1fx", vMed/bMed)
		}
		r.AddRow(env.String(), f1(bMed), f1(vMed), gain, f2(bMoS), f2(vMoS))
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
	brrF := eng.TCP(o.Seed, EnvVanLAN, core.BRRConfig(), dur)
	vifiF := eng.TCP(o.Seed, EnvVanLAN, core.DefaultConfig(), dur)
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
	run := o.engine().TCP(o.Seed, EnvVanLAN, core.DefaultConfig(), dur).Wait()
	col := run.Collector
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

// Table2 reproduces the coordination-formulation comparison on DieselNet
// channel 1 (downstream): false positives and negatives for ViFi, ¬G1,
// ¬G2 and ¬G3.
func Table2(o Options) *Report {
	r := &Report{
		ID:     "table2",
		Title:  "Downstream coordination mechanisms on DieselNet Ch.1",
		Header: []string{"mechanism", "false positives", "false negatives*"},
	}
	eng := o.engine()
	dur := time.Duration(o.scaled(1500)) * time.Second
	kinds := []core.CoordinatorKind{core.CoordViFi, core.CoordNotG1, core.CoordNotG2, core.CoordNotG3}
	futs := make([]Future[*Collector], len(kinds))
	for i, c := range kinds {
		futs[i] = eng.ProbeCollect(o.Seed, EnvDieselNetCh1, DefaultTableConfig(c), dur)
	}
	for i, c := range kinds {
		down := futs[i].Wait().Stats(core.Down)
		r.AddRow(c.String(), pct(down.FalsePositiveRate), pct(down.FalseNegativeGivenHeard))
	}
	r.AddNote("*false negatives conditioned on ≥1 auxiliary overhearing the failure — coordination failures, not coverage gaps (our synthetic traces spend more time out of coverage than the originals)")
	r.AddNote("paper shape: similar false negatives everywhere; ViFi far fewer false positives than ¬G3; ¬G1's false positives grow with auxiliary count (see ablate-aux)")
	return r
}

// DefaultTableConfig returns ViFi with the chosen relay coordinator.
func DefaultTableConfig(kind core.CoordinatorKind) core.Config {
	cfg := core.DefaultConfig()
	cfg.Coordinator = kind
	return cfg
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
