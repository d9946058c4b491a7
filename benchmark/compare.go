package main

import (
	"fmt"
	"io"
)

// minPairs is how many sub-seeds two runs must share for -compare to
// judge a metric seed by seed instead of by its two values.
const minPairs = 3

// compare applies each end-to-end metric's bound (the endToEnd table) to
// two result files, a (the parent) and b (the change), one row per
// workload and metric. It reports whether anything got worse: a metric
// past its bound, or more failed ops per op.
func compare(w io.Writer, a, b *resultFile) (worse bool) {
	fmt.Fprintf(w, "%-15s %-12s %12s %24s %3s %12s %24s %3s %5s %8s  %s\n",
		"workload", "metric", "a.value", "a.[q1,q3]", "n", "b.value", "b.[q1,q3]", "n", "pairs", "change", "verdict")
	for _, wl := range workloads {
		ra, rb := a.Workloads[wl.name], b.Workloads[wl.name]
		if ra == nil || rb == nil {
			fmt.Fprintf(w, "%-15s not in both files\n", wl.name)
			continue
		}
		for _, m := range endToEnd {
			sa, sb := ra.EndToEnd[m.Name], rb.EndToEnd[m.Name]
			v, change, pairs := verdict(m, sa, sb)
			worse = worse || v == "worse"
			fmt.Fprintf(w, "%-15s %-12s %12.6g %24s %3d %12.6g %24s %3d %5d %+7.2f%%  %s\n",
				wl.name, m.Name, sa.Value, fmt.Sprintf("[%.6g,%.6g]", sa.Q1, sa.Q3), sa.N,
				sb.Value, fmt.Sprintf("[%.6g,%.6g]", sb.Q1, sb.Q3), sb.N, pairs, 100*change, v)
		}
		if ratio(float64(rb.OpsFailed), float64(rb.Ops)) > ratio(float64(ra.OpsFailed), float64(ra.Ops)) {
			worse = true
			fmt.Fprintf(w, "%-15s ops_failed/ops rose: %d/%d → %d/%d\n", wl.name, ra.OpsFailed, ra.Ops, rb.OpsFailed, rb.Ops)
		}
		if ra.SimDigest != rb.SimDigest {
			fmt.Fprintf(w, "%-15s sim_digest differs: simulated statistics changed (%.12s → %.12s)\n", wl.name, ra.SimDigest, rb.SimDigest)
		}
	}
	return worse
}

// verdict judges b against a for one metric and returns the change it
// judged. Where the two runs share at least minPairs seeds it judges the
// ratios b/a of the values that came from the same seed, against the
// metric's same-seed bound: that takes the difference between seeds out
// of both the change and the spread. Otherwise (other seeds, or setup_s,
// whose timings have no seed) it judges the two values against the declared
// bound. Worse: the change is past the bound. Unresolved: the spread is
// wider than the bound, unless every value of b beats a.
func verdict(m metricDecl, a, b stat) (v string, change float64, pairs int) {
	if a.N == 0 || b.N == 0 || a.Value == 0 {
		return "unresolved", 0, 0
	}
	sign := 1.0 // sign*change > 0 means worse
	if m.Better == "higher" {
		sign = -1
	}
	bound := m.Bound
	change = ratio(b.Value-a.Value, a.Value)
	spread := max(ratio(a.Q3-a.Q1, a.Value), ratio(b.Q3-b.Q1, b.Value))
	every := everyBetter(sign, a.Values, b.Values)
	if ratios := seedPairedRatios(a, b); len(ratios) >= minPairs && m.SameSeed > 0 {
		pairs, bound, every = len(ratios), m.SameSeed, true
		for _, r := range ratios {
			every = every && sign*(r-1) < 0
		}
		q1, med, q3 := quartiles(ratios)
		change, spread = med-1, q3-q1
	}
	if m.Name == "setup_s" {
		bound = max(bound, setupFloorS/a.Value)
	}
	switch {
	case sign*change > bound:
		v = "worse"
	case spread > bound && every:
		v = "better"
	case spread > bound:
		v = "unresolved"
	case sign*change < -bound:
		v = "better"
	default:
		v = "same"
	}
	return v, change, pairs
}

// seedPairedRatios returns b/a for the values of the two runs that came
// from the same seed. A seed the other run lacks (every op on it failed,
// or another -seed) pairs with nothing.
func seedPairedRatios(a, b stat) []float64 {
	if len(a.Seeds) != len(a.Values) || len(b.Seeds) != len(b.Values) {
		return nil
	}
	bySeed := map[int64][]float64{}
	for i, s := range b.Seeds {
		bySeed[s] = append(bySeed[s], b.Values[i])
	}
	var out []float64
	for i, s := range a.Seeds {
		if vs := bySeed[s]; len(vs) > 0 && a.Values[i] != 0 {
			out = append(out, vs[0]/a.Values[i])
			bySeed[s] = vs[1:]
		}
	}
	return out
}

// everyBetter reports whether every value of b beats every value of a.
func everyBetter(sign float64, a, b []float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	for _, x := range a {
		for _, y := range b {
			if sign*(y-x) >= 0 {
				return false
			}
		}
	}
	return true
}
