package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"regexp"
	"sort"
	"syscall"
	"testing"
	"time"
)

// smokeSizes shrink the workloads so the whole file runs in seconds: the
// figures to Scale 0.01, the metro to 3 simulated seconds, the mixed-app
// city to 18 — its TCP sessions need that long to complete a transfer,
// which the benchmark's own checks insist on.
var smokeSizes = map[string]float64{
	"paper-figs": 0.33, "city-apps-live": 0.6, "metro-cbr": 0.2,
}

// oneSeed is w cycling through a single sub-seed: the shortest run that
// still repeats a seed.
func oneSeed(w workloadDef) workloadDef {
	w.seeds = 1
	return w
}

// inProcessExec runs ops in the test process instead of fresh children:
// the numbers mean little, the names and checks are what is tested.
func inProcessExec(r *runner) {
	r.execOp = func(_ context.Context, w workloadDef, seed int64, traced bool) (*opResult, error) {
		var before, after syscall.Rusage
		syscall.Getrusage(syscall.RUSAGE_SELF, &before)
		t0 := time.Now()
		res, err := runOp(w, seed, r.size, traced, t0)
		if err != nil {
			return nil, err
		}
		syscall.Getrusage(syscall.RUSAGE_SELF, &after)
		res.WallS = time.Since(t0).Seconds()
		res.CPUS = tvSeconds(after.Utime) + tvSeconds(after.Stime) - tvSeconds(before.Utime) - tvSeconds(before.Stime)
		res.PeakRSSMB = float64(after.Maxrss) / 1024
		return res, nil
	}
	r.execSetup = func(_ context.Context, w workloadDef, seed int64, reps int) ([]float64, error) {
		return runSetups(w, seed, r.size, reps)
	}
}

func smokeRunner(w workloadDef) *runner {
	r := &runner{seed: 3, size: smokeSizes[w.name], setupReps: 3, host: newFingerprint(), log: io.Discard}
	inProcessExec(r)
	return r
}

func names(ms []metricDecl) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.Name
	}
	sort.Strings(out)
	return out
}

func keys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sameNames(t *testing.T, what string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d names, want %d\n got %v\nwant %v", what, len(got), len(want), got, want)
		return
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s: name %d is %q, want %q", what, i, got[i], want[i])
		}
	}
}

// TestBenchmarkJSON pins BENCHMARK.json to the metric tables and to the
// limits the benchmark contract puts on names, units and reasons.
func TestBenchmarkJSON(t *testing.T) {
	want, err := benchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json differs from the tables in metrics.go; regenerate it with -print-benchmark-json")
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDecl `json:"end_to_end"`
		PerLayer  []metricDecl `json:"per_layer"`
	}
	if err := json.Unmarshal(got, &doc); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q breaks the naming rule", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range doc.Workloads {
		checkName(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || bytes.ContainsRune([]byte(w.Why), '\n') {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, m := range doc.EndToEnd {
		checkName(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range append(doc.EndToEnd, doc.PerLayer...) {
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q breaks the unit rule", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better is %q", m.Name, m.Better)
		}
	}
	for _, m := range doc.PerLayer {
		checkName(m.Name)
	}
	if n := len(doc.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	wantWorkloads := []string{"city-apps-live", "metro-cbr", "paper-figs"}
	var gotWorkloads []string
	for _, w := range doc.Workloads {
		gotWorkloads = append(gotWorkloads, w.Name)
	}
	sort.Strings(gotWorkloads)
	sameNames(t, "workloads", gotWorkloads, wantWorkloads)
}

// TestSmokeEmitsDeclaredMetrics runs every workload small, through the
// same path the driver uses, and checks that what comes out names exactly
// the declared metrics — none missing, none extra — with no failed op.
func TestSmokeEmitsDeclaredMetrics(t *testing.T) {
	for _, w := range workloads {
		w = oneSeed(w)
		t.Run(w.name, func(t *testing.T) {
			r := smokeRunner(w)
			wr := r.runOne(context.Background(), w, 200*time.Millisecond, true)
			rep := wr.report(r.host)
			for _, f := range rep.Failures {
				t.Errorf("failed op: %s", f)
			}
			if rep.SimDigest == "" {
				t.Error("no sim_digest")
			}
			sameNames(t, "end-to-end", keys(rep.EndToEnd), names(endToEnd))
			sameNames(t, "per-layer", keys(rep.PerLayer), names(perLayer))
			for name, s := range rep.EndToEnd {
				if !(s.Value > 0) {
					t.Errorf("%s = %v, want > 0", name, s.Value)
				}
			}
			for traced, want := range map[bool][]metricDecl{false: endToEnd, true: perLayer} {
				line, err := rep.driverLine(traced)
				if err != nil {
					t.Fatal(err)
				}
				var got struct {
					Correct   bool
					Attempted int
					Failed    int
					Metrics   map[string]metricValue
				}
				if err := json.Unmarshal(line, &got); err != nil {
					t.Fatal(err)
				}
				sameNames(t, "driver line", keys(got.Metrics), names(want))
				if !got.Correct || got.Attempted < 1 || got.Failed != 0 {
					t.Errorf("driver line says correct=%v attempted=%d failed=%d", got.Correct, got.Attempted, got.Failed)
				}
			}
			// Every layer-boundary call shows up as a span of the traced op.
			have := map[string]bool{}
			for _, s := range wr.traced.Spans {
				have[s.Name] = true
				if s.EndNs < s.StartNs || s.Workload != w.name || s.Op == 0 {
					t.Errorf("bad span %+v", s)
				}
			}
			wantSpans := []string{"scenario.Parse", "scenario.Generate", "experiment.StartLiveRun",
				"LiveRun.Step", "LiveRun.Finish", "experiment.FprintFleetReport", "obs.WriteAll"}
			if len(w.figs) > 0 {
				wantSpans = []string{"experiment.NewEngine", "experiment.Run(fig7)", "Report.String", "obs.WriteAll"}
			}
			for _, n := range wantSpans {
				if !have[n] {
					t.Errorf("traced op has no %s span", n)
				}
			}
			// The sharded twin ran on two lanes beside the workload it shadows.
			if w.sharded != nil && r.host.NProc >= w.sharded.shards {
				if len(wr.sharded) != shardedReps || rep.PerLayer["shard.lanes"].Value != 2 || !(rep.PerLayer["shard.speedup"].Value > 0) {
					t.Errorf("%d ops of %s, shard.lanes %v, shard.speedup %v", len(wr.sharded), w.sharded.name,
						rep.PerLayer["shard.lanes"].Value, rep.PerLayer["shard.speedup"].Value)
				}
			}
		})
	}
}

// TestCorruptedDigestIsFailedOp makes the repeat of seed 0 print another
// digest and expects the run to report a failed op and correct=false.
func TestCorruptedDigestIsFailedOp(t *testing.T) {
	w, _ := findWorkload("metro-cbr")
	w = oneSeed(w)
	r := smokeRunner(w)
	clean := r.execOp
	calls := 0
	r.execOp = func(ctx context.Context, w workloadDef, seed int64, traced bool) (*opResult, error) {
		res, err := clean(ctx, w, seed, traced)
		calls++
		if err == nil && calls == 2 {
			res.Digest = "corrupted" + res.Digest
		}
		return res, err
	}
	wr := &wlResult{w: w}
	r.measureTimed(context.Background(), wr, time.Millisecond)
	if len(wr.ops) != 2 || wr.ops[0].Seed != wr.ops[1].Seed {
		t.Fatalf("want two ops on one seed, got %d", len(wr.ops))
	}
	wr.check()
	rep := wr.report(r.host)
	if rep.OpsFailed != 1 || len(rep.Failures) != 1 {
		t.Fatalf("ops_failed = %d, failures = %v; want one failed op", rep.OpsFailed, rep.Failures)
	}
	line, err := rep.driverLine(false)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(line, []byte(`"correct":false`)) {
		t.Errorf("driver line does not say correct=false: %s", line)
	}
}

// TestTimedRunCyclesSubSeeds: op i simulates sub-seed i mod w.seeds, and
// however little the budget holds, every sub-seed is simulated and
// sub-seed 0 twice, so the determinism check always has its pair.
func TestTimedRunCyclesSubSeeds(t *testing.T) {
	w, _ := findWorkload("metro-cbr")
	r := &runner{seed: 3, host: newFingerprint(), log: io.Discard}
	r.execOp = func(_ context.Context, _ workloadDef, seed int64, _ bool) (*opResult, error) {
		time.Sleep(5 * time.Millisecond)
		return &opResult{Seed: seed, Digest: "d", WallS: 0.005}, nil
	}
	r.execSetup = func(context.Context, workloadDef, int64, int) ([]float64, error) {
		return []float64{0.001}, nil
	}
	fewest := 0
	for _, budget := range []time.Duration{time.Millisecond, 2 * time.Second} {
		wr := &wlResult{w: w}
		r.measureTimed(context.Background(), wr, budget)
		if len(wr.ops) <= max(w.seeds, fewest) {
			t.Fatalf("budget %v: %d ops, want more than %d", budget, len(wr.ops), max(w.seeds, fewest))
		}
		fewest = len(wr.ops)
		for i, op := range wr.ops {
			if op.Seed != r.subSeed(i%w.seeds) {
				t.Errorf("budget %v: op %d on seed %d, want %d", budget, i, op.Seed, r.subSeed(i%w.seeds))
			}
		}
	}
}

// TestEndToEndReduction: a metric is the mean over the seeds of the
// median over each seed's ops, setup_s the trimmed mean of the pooled
// set-ups, and the three times are divided by the host factor.
func TestEndToEndReduction(t *testing.T) {
	wr := &wlResult{
		ops: []*opResult{
			{Seed: 1, WallS: 3, AllocMB: 10}, {Seed: 2, WallS: 5, AllocMB: 30}, {Seed: 1, WallS: 2, AllocMB: 10},
			{Seed: 2, WallS: 7, AllocMB: 30}, {Seed: 1, WallS: 9, AllocMB: 10},
		},
		setups: []float64{4, 1, 3, 2, 5},
		calib:  []float64{2 * calibRefMs, 2 * calibRefMs},
	}
	st := wr.endToEndStats()
	if w, a, s := st["wall_s"].Value, st["alloc_mb"].Value, st["setup_s"].Value; w != 2.25 || a != 20 || s != 1.5 {
		t.Errorf("wall_s %v alloc_mb %v setup_s %v, want 2.25 20 1.5", w, a, s)
	}
	if got := st["wall_s"]; len(got.Values) != 2 || got.Seeds[0] != 1 || got.Seeds[1] != 2 {
		t.Errorf("wall_s holds %v on seeds %v, want one value per seed", got.Values, got.Seeds)
	}
	if f := hostFactor(nil); f != 1 {
		t.Errorf("host factor without readings = %v, want 1", f)
	}
	// The highest and lowest tenth of the readings do not count.
	if f := hostFactor([]float64{1, 50, 50, 50, 50, 50, 50, 50, 50, 5000}); f != 50/calibRefMs {
		t.Errorf("host factor = %v, want %v", f, 50/calibRefMs)
	}
}

// TestQuartilesMatchPython pins the quartile rule to
// statistics.quantiles(xs, n=4), which the driver uses for spreads.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{4, 1, 3, 2, 5}, 1.5, 3, 4.5},
		{[]float64{7}, 7, 7, 7},
	} {
		q1, med, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(med-c.med) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, med, q3, c.q1, c.med, c.q3)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	m := metricDecl{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.10, SameSeed: 0.02}
	tight := func(med float64) stat {
		return summarize([]float64{med * 0.99, med, med, med, med * 1.01}, nil, "s")
	}
	wide := func(med float64) stat {
		return summarize([]float64{med * 0.7, med * 0.8, med, med * 1.2, med * 1.3}, nil, "s")
	}
	for _, c := range []struct {
		name string
		a, b stat
		want string
	}{
		{"within bound", tight(10), tight(10.5), "same"},
		{"past bound", tight(10), tight(11.5), "worse"},
		{"gain", tight(10), tight(8), "better"},
		{"spread wider than bound", wide(10), wide(10.2), "unresolved"},
		{"wide but every run better", wide(10), tight(5), "better"},
	} {
		if got, _, pairs := verdict(m, c.a, c.b); got != c.want || pairs != 0 {
			t.Errorf("%s: verdict = %s on %d pairs, want %s on medians", c.name, got, pairs, c.want)
		}
	}

	// Runs that share seeds are judged op against op on the same seed, with
	// the same-seed bound: the seeds' own spread drops out, whatever order
	// the ops ran in, and an op the other run lacks pairs with nothing.
	onSeeds := func(f float64, seeds ...int64) stat {
		out := make([]float64, len(seeds))
		for i, s := range seeds {
			out[i] = float64(s-2990) * f // seed 3000 costs 10, 3001 costs 11, …
		}
		return summarize(out, seeds, "s")
	}
	a := onSeeds(1, 3000, 3001, 3002, 3003, 3000)
	for f, want := range map[float64]string{1: "same", 1.01: "same", 1.05: "worse", 0.9: "better"} {
		got, change, pairs := verdict(m, a, onSeeds(f, 3003, 3000, 3002, 3000, 3009))
		if got != want || pairs != 4 || math.Abs(change-(f-1)) > 1e-9 {
			t.Errorf("same seeds ×%v: verdict = %s, change %v on %d pairs; want %s on 4", f, got, change, pairs, want)
		}
	}
	other := onSeeds(1.05, a.Seeds...)
	other.Seeds = []int64{4000, 4001, 4002, 4003, 4000}
	if got, _, pairs := verdict(m, a, other); got != "unresolved" || pairs != 0 {
		t.Errorf("other seeds: verdict = %s on %d pairs, want unresolved on medians", got, pairs)
	}

	// setup_s has no seeds, is never paired, and has an absolute floor of
	// 5 ms on both the change and the spread: 2 ms → 3 ms is not a
	// regression, and 2 ms ± 0.5 ms is not unresolved.
	s := metricDecl{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25}
	if got, _, pairs := verdict(s, tight(0.002), tight(0.003)); got != "same" || pairs != 0 {
		t.Errorf("setup_s 2 ms → 3 ms: verdict = %s on %d pairs, want same on medians", got, pairs)
	}
	if got, _, _ := verdict(s, wide(0.002), wide(0.0021)); got != "same" {
		t.Errorf("setup_s 2 ms with a wide spread: verdict = %s, want same", got)
	}
	if got, _, _ := verdict(s, tight(0.06), tight(0.08)); got != "worse" {
		t.Errorf("setup_s 60 ms → 80 ms: verdict = %s, want worse", got)
	}

	// compare judges with the endToEnd table, where wall_s may move 25 %.
	file := func(med float64, failed int) *resultFile {
		rf := &resultFile{Workloads: map[string]*wlReport{}}
		for _, w := range workloads {
			rf.Workloads[w.name] = &wlReport{Ops: 5, OpsFailed: failed, EndToEnd: map[string]stat{"wall_s": tight(med)}}
		}
		return rf
	}
	if compare(io.Discard, file(10, 0), file(10.2, 0)) {
		t.Error("compare reports worse for a change within the bound")
	}
	if !compare(io.Discard, file(10, 0), file(13, 0)) {
		t.Error("compare misses a median past the bound")
	}
	if !compare(io.Discard, file(10, 0), file(10, 1)) {
		t.Error("compare misses a rise in ops_failed/ops")
	}
}
