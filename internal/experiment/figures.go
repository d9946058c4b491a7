package experiment

import (
	"fmt"
	"strings"
	"time"

	"github.com/vanlan/vifi/internal/handoff"
	"github.com/vanlan/vifi/internal/radio"
	"github.com/vanlan/vifi/internal/sim"
	"github.com/vanlan/vifi/internal/stats"
	"github.com/vanlan/vifi/internal/trace"
)

// Fig2 reproduces "Average number of packets delivered per day by various
// methods" versus the number of basestations: random BS subsets of each
// size, ten trials, six policies, packets scaled to the shuttle's ten
// trips per day. Every (density, trial) pair is one engine job: subsets
// are drawn serially first (preserving the serial RNG draw order), the
// jobs run in any order, and the merge accumulates per-policy samples in
// (density, trial) order — byte-identical to a serial sweep.
func Fig2(o Options) *Report {
	r := &Report{
		ID:     "fig2",
		Title:  "Packets delivered per day vs number of BSes (VanLAN)",
		Header: []string{"#BSes", "AllBSes", "BestBS", "History", "RSSI", "BRR", "Sticky"},
	}
	eng := o.engine()
	trials := o.scaled(10)
	trips := o.scaled(4)
	const tripsPerDay = 10
	rng := sim.NewKernel(o.Seed).RNG("fig2-subsets")
	order := []string{"AllBSes", "BestBS", "History", "RSSI", "BRR", "Sticky"}
	densities := []int{2, 4, 6, 8, 10, 11}
	// Draw every subset first, serially (preserving the RNG draw order of
	// a serial sweep), then synthesize one full 11-BS probe trace per
	// trial seed. Per-BS probe streams are label-derived from absolute BS
	// indices, so extracting a subset's columns from the full trace is
	// byte-identical to generating that subset directly — and ~4x cheaper
	// across the density sweep.
	subsets := make([][][]int, len(densities))
	for d := range densities {
		subsets[d] = make([][]int, trials)
		for trial := 0; trial < trials; trial++ {
			subsets[d][trial] = rng.Sample(11, densities[d])
		}
	}
	fullF := make([]Future[*trace.ProbeTrace], trials)
	for trial := 0; trial < trials; trial++ {
		fullF[trial] = eng.VanLANProbes(o.Seed+int64(trial*131), trips)
	}
	full := make([]*trace.ProbeTrace, trials)
	for trial := range full {
		full[trial] = fullF[trial].Wait()
	}
	jobs := make([][]Future[map[string]float64], len(densities))
	for d := range densities {
		jobs[d] = make([]Future[map[string]float64], trials)
		for trial := 0; trial < trials; trial++ {
			subset := subsets[d][trial]
			ft := full[trial]
			jobs[d][trial] = goJob(eng, func() map[string]float64 {
				pt := ft.Subset(subset)
				perDay := make(map[string]float64, 6)
				for _, p := range handoff.AllPolicies() {
					res := handoff.Evaluate(pt, p, time.Second)
					perDay[p.Name()] = float64(res.Delivered()) / float64(trips) * tripsPerDay / 1000
				}
				return perDay
			})
		}
	}
	for d, nb := range densities {
		sums := map[string]*stats.Sample{}
		for _, name := range order {
			sums[name] = stats.NewSample(trials)
		}
		for trial := 0; trial < trials; trial++ {
			perDay := jobs[d][trial].Wait()
			for _, p := range handoff.AllPolicies() {
				sums[p.Name()].Add(perDay[p.Name()])
			}
		}
		row := []string{fmt.Sprint(nb)}
		for _, name := range order {
			m, hw := sums[name].MeanCI95()
			row = append(row, fmt.Sprintf("%.1fK ±%.1f", m, hw))
		}
		r.AddRow(row...)
	}
	r.AddNote("paper shape: AllBSes > BestBS > History≈RSSI≈BRR ≫ Sticky; all but Sticky within ~25%% of AllBSes; rising with density")
	return r
}

// sparkline renders a connectivity timeline: '#' adequate seconds, '.'
// interrupted ones (the black lines and dark circles of Fig 3/8).
func sparkline(adequate []bool) string {
	var b strings.Builder
	for _, ok := range adequate {
		if ok {
			b.WriteByte('#')
		} else {
			b.WriteByte('.')
		}
	}
	return b.String()
}

// Fig3 reproduces the example-trip connectivity timelines (a–c) and the
// session-length CDF (d).
func Fig3(o Options) *Report {
	r := &Report{
		ID:     "fig3",
		Title:  "Connectivity timelines for one trip and session-length CDF",
		Header: []string{"series", "value"},
	}
	eng := o.engine()
	// The trace generates first; the per-policy replays over it then run
	// as pool-bounded jobs (the trace is read-only once built).
	pt := eng.VanLANProbes(o.Seed, o.scaled(6)).Wait()
	tlPolicies := []func() handoff.Policy{
		func() handoff.Policy { return handoff.NewBRR() },
		func() handoff.Policy { return handoff.NewBestBS() },
		func() handoff.Policy { return handoff.NewAllBSes() },
	}
	tlJobs := make([]Future[[2][2]string], len(tlPolicies))
	for i, mk := range tlPolicies {
		tlJobs[i] = goJob(eng, func() [2][2]string {
			p := mk()
			tl := handoff.TripTimeline(pt, p, 1, 0.5)
			return [2][2]string{
				{fmt.Sprintf("(%s) trip timeline", p.Name()), sparkline(tl.Adequate)},
				{fmt.Sprintf("(%s) interruptions", p.Name()), fmt.Sprint(len(tl.Interruptions))},
			}
		})
	}
	cdfPolicies := []func() handoff.Policy{
		func() handoff.Policy { return handoff.NewSticky() },
		func() handoff.Policy { return handoff.NewBRR() },
		func() handoff.Policy { return handoff.NewBestBS() },
		func() handoff.Policy { return handoff.NewAllBSes() },
	}
	cdfJobs := make([]Future[[2]string], len(cdfPolicies))
	for i, mk := range cdfPolicies {
		cdfJobs[i] = goJob(eng, func() [2]string {
			p := mk()
			res := handoff.Evaluate(pt, p, time.Second)
			lens := res.Sessions(0.5)
			xs, ps := handoff.SessionTimeCDF(lens)
			var cells []string
			for _, q := range []float64{25, 50, 75} {
				x := 0.0
				for i := range xs {
					if ps[i] >= q {
						x = xs[i]
						break
					}
				}
				cells = append(cells, fmt.Sprintf("p%.0f=%.0fs", q, x))
			}
			return [2]string{fmt.Sprintf("(%s)", p.Name()), strings.Join(cells, " ")}
		})
	}
	for _, f := range tlJobs {
		rows := f.Wait()
		r.AddRow(rows[0][0], rows[0][1])
		r.AddRow(rows[1][0], rows[1][1])
	}
	// (d): CDF of time spent in sessions of a given length.
	r.AddRow("", "")
	r.AddRow("session CDF", "len(s): %time ≤ len")
	for _, f := range cdfJobs {
		row := f.Wait()
		r.AddRow(row[0], row[1])
	}
	r.AddNote("paper shape: median session AllBSes > 2× BestBS and > 7× BRR; Sticky worst")
	return r
}

// Fig4 reproduces the median-session sweeps: (a) versus the averaging
// interval at 50%% reception, (b) versus the reception-ratio threshold at
// a one-second interval.
func Fig4(o Options) *Report {
	r := &Report{
		ID:     "fig4",
		Title:  "Median session length vs adequacy definition (VanLAN)",
		Header: []string{"sweep", "x", "AllBSes", "BestBS", "BRR", "Sticky"},
	}
	eng := o.engine()
	pt := eng.VanLANProbes(o.Seed, o.scaled(8)).Wait()
	policies := []func() handoff.Policy{
		func() handoff.Policy { return handoff.NewAllBSes() },
		func() handoff.Policy { return handoff.NewBestBS() },
		func() handoff.Policy { return handoff.NewBRR() },
		func() handoff.Policy { return handoff.NewSticky() },
	}
	// One pool job per sweep row: each replays the trace under four
	// policies, which is the figure's actual compute.
	intervals := []time.Duration{500 * time.Millisecond, time.Second,
		2 * time.Second, 4 * time.Second, 8 * time.Second, 16 * time.Second}
	ratios := []float64{0.1, 0.3, 0.5, 0.7, 0.9}
	rowJobs := make([]Future[[]string], 0, len(intervals)+len(ratios))
	for _, iv := range intervals {
		rowJobs = append(rowJobs, goJob(eng, func() []string {
			row := []string{"(a) interval", fmt.Sprintf("%gs", iv.Seconds())}
			for _, mk := range policies {
				med := handoff.Evaluate(pt, mk(), iv).MedianSessionTimeWeighted(0.5)
				row = append(row, fmt.Sprintf("%.0fs", med))
			}
			return row
		}))
	}
	for _, ratio := range ratios {
		rowJobs = append(rowJobs, goJob(eng, func() []string {
			row := []string{"(b) ratio", pct(ratio)}
			for _, mk := range policies {
				med := handoff.Evaluate(pt, mk(), time.Second).MedianSessionTimeWeighted(ratio)
				row = append(row, fmt.Sprintf("%.0fs", med))
			}
			return row
		}))
	}
	for _, f := range rowJobs {
		r.AddRow(f.Wait()...)
	}
	r.AddNote("paper shape: methods converge when the requirement is lax; multi-BS advantage grows as it tightens")
	return r
}

// Fig5 reproduces the CDFs of the number of basestations audible per
// second: (a) at least one beacon, (b) at least 50%% of beacons, for
// VanLAN and both DieselNet channels.
func Fig5(o Options) *Report {
	r := &Report{
		ID:    "fig5",
		Title: "CDF of #BSes heard per 1-second period",
		Header: []string{"#BSes ≤", "VanLAN ≥1", "Ch1 ≥1", "Ch6 ≥1",
			"VanLAN ≥50%", "Ch1 ≥50%", "Ch6 ≥50%"},
	}
	eng := o.engine()
	dur := time.Duration(o.scaled(40)) * time.Minute
	ptF := eng.VanLANProbes(o.Seed, o.scaled(4))
	ch1F := eng.DieselNetTrace(o.Seed, 1, dur)
	ch6F := eng.DieselNetTrace(o.Seed, 6, dur)
	pt, ch1, ch6 := ptF.Wait(), ch1F.Wait(), ch6F.Wait()

	cdfOf := func(counts []int) *stats.CDF {
		s := stats.NewSample(len(counts))
		for _, c := range counts {
			s.Add(float64(c))
		}
		return stats.NewCDF(s)
	}
	// Build the six CDFs as pool jobs; each scans a full trace.
	cdfJobs := []Future[*stats.CDF]{
		goJob(eng, func() *stats.CDF { return cdfOf(pt.VisibleCounts(0)) }),
		goJob(eng, func() *stats.CDF { return cdfOf(ch1.VisibleCounts(0)) }),
		goJob(eng, func() *stats.CDF { return cdfOf(ch6.VisibleCounts(0)) }),
		goJob(eng, func() *stats.CDF { return cdfOf(pt.VisibleCounts(0.5)) }),
		goJob(eng, func() *stats.CDF { return cdfOf(ch1.VisibleCounts(0.5)) }),
		goJob(eng, func() *stats.CDF { return cdfOf(ch6.VisibleCounts(0.5)) }),
	}
	sets := make([]*stats.CDF, len(cdfJobs))
	for i, f := range cdfJobs {
		sets[i] = f.Wait()
	}
	for n := 0; n <= 10; n++ {
		row := []string{fmt.Sprint(n)}
		for _, c := range sets {
			row = append(row, pct(c.P(float64(n))))
		}
		r.AddRow(row...)
	}
	r.AddNote("paper shape: vehicles regularly hear multiple BSes on one channel in all three environments")
	return r
}

// Fig6 reproduces the burst-loss evidence: (a) P(loss i+k | loss i) as a
// function of k for 10 ms sends, (b) the two-basestation conditional
// reception table for 20 ms sends.
func Fig6(o Options) *Report {
	r := &Report{
		ID:     "fig6",
		Title:  "Burstiness and cross-BS independence of losses",
		Header: []string{"quantity", "value"},
	}
	eng := o.engine()

	// The two halves are independent Monte Carlo sweeps; each runs as one
	// job with its own kernel. Named RNG streams derive from (seed, label)
	// only, so the values match the previous single-kernel execution.
	aF := goJob(eng, func() [][2]string { return fig6BurstRows(o) })
	bF := goJob(eng, func() [][2]string { return fig6IndependenceRows(o) })
	for _, row := range aF.Wait() {
		r.AddRow(row[0], row[1])
	}
	for _, row := range bF.Wait() {
		r.AddRow(row[0], row[1])
	}
	r.AddNote("paper shape: conditional loss ≫ unconditional at small k, decaying to it; the other BS is barely affected by a loss (Fig 6b)")
	return r
}

// fig6BurstRows computes Fig 6a: single BS sending every 10 ms at a fixed
// vehicular distance.
func fig6BurstRows(o Options) [][2]string {
	k := sim.NewKernel(o.Seed)
	p := radio.DefaultParams()
	n := o.scaled(300000)
	linkA := radio.NewFadingLink(p, k.RNG("fig6a"))
	coin := k.RNG("fig6a-coin")
	lost := make([]bool, n)
	for i := range lost {
		lost[i] = !coin.Bool(linkA.ReceiveProb(time.Duration(i)*10*time.Millisecond, 80))
	}
	uncond := 0
	for _, v := range lost {
		if v {
			uncond++
		}
	}
	uncondP := float64(uncond) / float64(n)
	cond := func(kk int) float64 {
		num, den := 0, 0
		for i := 0; i+kk < n; i++ {
			if lost[i] {
				den++
				if lost[i+kk] {
					num++
				}
			}
		}
		if den == 0 {
			return 0
		}
		return float64(num) / float64(den)
	}
	rows := [][2]string{{"(a) unconditional loss", pct1(uncondP)}}
	for _, kk := range []int{1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000} {
		if kk >= n {
			break
		}
		rows = append(rows, [2]string{fmt.Sprintf("(a) P(loss i+%d | loss i)", kk), pct1(cond(kk))})
	}
	return rows
}

// fig6IndependenceRows computes Fig 6b: two BSes sending every 20 ms.
func fig6IndependenceRows(o Options) [][2]string {
	k := sim.NewKernel(o.Seed)
	p := radio.DefaultParams()
	m := o.scaled(200000)
	la := radio.NewFadingLink(p, k.RNG("fig6b-A"))
	lb := radio.NewFadingLink(p, k.RNG("fig6b-B"))
	ca := k.RNG("fig6b-coinA")
	cb := k.RNG("fig6b-coinB")
	recvA := make([]bool, m)
	recvB := make([]bool, m)
	for i := 0; i < m; i++ {
		at := time.Duration(i) * 20 * time.Millisecond
		recvA[i] = ca.Bool(la.ReceiveProb(at, 80))
		recvB[i] = cb.Bool(lb.ReceiveProb(at, 80))
	}
	frac := func(pred func(i int) (bool, bool)) float64 {
		num, den := 0, 0
		for i := 0; i+1 < m; i++ {
			c, e := pred(i)
			if c {
				den++
				if e {
					num++
				}
			}
		}
		if den == 0 {
			return 0
		}
		return float64(num) / float64(den)
	}
	pa := frac(func(i int) (bool, bool) { return true, recvA[i] })
	pb := frac(func(i int) (bool, bool) { return true, recvB[i] })
	return [][2]string{
		{"(b) P(A)", f2(pa)},
		{"(b) P(A i+1 | ¬A i)", f2(frac(func(i int) (bool, bool) { return !recvA[i], recvA[i+1] }))},
		{"(b) P(B i+1 | ¬A i)", f2(frac(func(i int) (bool, bool) { return !recvA[i], recvB[i+1] }))},
		{"(b) P(B)", f2(pb)},
		{"(b) P(B i+1 | ¬B i)", f2(frac(func(i int) (bool, bool) { return !recvB[i], recvB[i+1] }))},
		{"(b) P(A i+1 | ¬B i)", f2(frac(func(i int) (bool, bool) { return !recvB[i], recvA[i+1] }))},
	}
}
