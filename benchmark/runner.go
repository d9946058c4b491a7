package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os/exec"
	"strconv"
	"syscall"
	"time"
)

// This file is the parent side: it runs ops one at a time (a closed
// loop: the next child starts when the previous one has exited), takes
// wall from its own clock and CPU and peak RSS from the child's rusage,
// checks that the outputs are correct, and reduces the ops to metrics.

const (
	// opTimeout is ten times the slowest workload's expected wall; a
	// child that is still running then is killed and counts as failed.
	opTimeout = 30 * time.Second
	// defaultSetupReps is how many back-to-back set-ups one set-up child
	// times; a run starts one before every op and pools their timings.
	defaultSetupReps = 5
	// maxFailures stops a run whose workload is broken, not slow.
	maxFailures = 3
)

// wlResult collects everything measured about one workload in one run.
type wlResult struct {
	w workloadDef

	ops    []*opResult // untraced ops that ran to completion, in order
	traced *opResult
	setups []float64 // seconds per set-up, from the set-up child
	calib  []float64 // calibrate() readings taken between this workload's children
	probes map[string]float64
	// sharded holds the ops of w.sharded on sub-seed 0; coupled, the wall
	// of the districted scenario at shards 1 and 2.
	sharded []*opResult
	coupled [2]float64

	attempted, failed int
	failures          []string
}

func (wr *wlResult) fail(format string, args ...any) {
	if wr.failed < wr.attempted {
		wr.failed++
	}
	wr.failures = append(wr.failures, fmt.Sprintf(format, args...))
}

type runner struct {
	seed int64
	// size scales the in-process ops of the smoke tests; a child always
	// runs size 1, the benchmark.
	size      float64
	setupReps int
	host      *fingerprint
	log       io.Writer

	// execOp and execSetup run one op / the set-up timings. The default
	// is a fresh child process each; the smoke test runs them in-process.
	execOp    func(ctx context.Context, w workloadDef, seed int64, traced bool) (*opResult, error)
	execSetup func(ctx context.Context, w workloadDef, seed int64, reps int) ([]float64, error)

	nextOp int
}

// subSeed derives the i-th simulation seed from the run's seed. A run
// simulates several so that its result reflects the workload, not one
// random city, and each of them several times (measureTimed).
func (r *runner) subSeed(i int) int64 { return r.seed*1000 + int64(i) }

// childExec returns exec functions that re-exec exe once per call.
func childExec(exe string) (
	func(context.Context, workloadDef, int64, bool) (*opResult, error),
	func(context.Context, workloadDef, int64, int) ([]float64, error),
) {
	base := func(w workloadDef, seed int64) []string {
		return []string{"-child", w.name, "-seed", strconv.FormatInt(seed, 10)}
	}
	run := func(ctx context.Context, args []string) ([]byte, *exec.Cmd, time.Duration, error) {
		ctx, cancel := context.WithTimeout(ctx, opTimeout)
		defer cancel()
		cmd := exec.CommandContext(ctx, exe, args...)
		var out, errOut bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, &errOut
		t0 := time.Now()
		err := cmd.Run()
		wall := time.Since(t0)
		if err != nil {
			if ctx.Err() == context.DeadlineExceeded {
				err = fmt.Errorf("timed out after %v", opTimeout)
			}
			tail := bytes.TrimSpace(errOut.Bytes())
			if len(tail) > 400 {
				tail = tail[len(tail)-400:]
			}
			return nil, nil, 0, fmt.Errorf("child %v: %w: %s", args, err, tail)
		}
		return bytes.TrimSpace(out.Bytes()), cmd, wall, nil
	}
	op := func(ctx context.Context, w workloadDef, seed int64, traced bool) (*opResult, error) {
		args := base(w, seed)
		if traced {
			args = append(args, "-traced")
		}
		out, cmd, wall, err := run(ctx, args)
		if err != nil {
			return nil, err
		}
		res := &opResult{}
		if err := json.Unmarshal(out, res); err != nil {
			return nil, fmt.Errorf("child %v: bad result: %w", args, err)
		}
		ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
		if !ok {
			return nil, errors.New("no rusage for child")
		}
		res.WallS = wall.Seconds()
		res.CPUS = tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
		res.PeakRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
		return res, nil
	}
	setup := func(ctx context.Context, w workloadDef, seed int64, reps int) ([]float64, error) {
		out, _, _, err := run(ctx, append(base(w, seed), "-setup-reps", strconv.Itoa(reps)))
		if err != nil {
			return nil, err
		}
		var v []float64
		if err := json.Unmarshal(out, &v); err != nil {
			return nil, fmt.Errorf("set-up child: bad result: %w", err)
		}
		return v, nil
	}
	return op, setup
}

func tvSeconds(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }

// op runs op number i of w on wr's account and returns nil if it failed.
func (r *runner) op(ctx context.Context, wr *wlResult, w workloadDef, i int, traced bool) *opResult {
	wr.attempted++
	seed := r.subSeed(i)
	res, err := r.execOp(ctx, w, seed, traced)
	if err == nil && res.CheckError != "" {
		err = errors.New(res.CheckError)
	}
	if err != nil {
		wr.fail("%s seed %d: %v", w.name, seed, err)
		return nil
	}
	r.nextOp++
	for j := range res.Spans {
		res.Spans[j].Op = r.nextOp
	}
	kind := ""
	if traced {
		kind = "traced"
	}
	fmt.Fprintf(r.log, "  %-18s seed %-6d %-6s wall %.3fs cpu %.3fs rss %.0fMB alloc %.1fMB\n",
		w.name, seed, kind, res.WallS, res.CPUS, res.PeakRSSMB, res.AllocMB)
	return res
}

// calib takes one calibration reading for wr. The parent is idle while a
// child runs and no child runs now, so the reading is the host's speed
// between two children.
func (r *runner) calib(wr *wlResult) {
	ms := calibrate()
	wr.calib = append(wr.calib, ms)
	r.host.CalibMs = append(r.host.CalibMs, ms)
}

func (r *runner) measureSetup(ctx context.Context, wr *wlResult) {
	v, err := r.execSetup(ctx, wr.w, r.subSeed(0), r.setupReps)
	wr.attempted++
	if err != nil {
		wr.fail("%s set-up: %v", wr.w.name, err)
		return
	}
	wr.setups = append(wr.setups, v...)
}

// round times wr.w's set-ups, then runs its untraced op number idx, with
// a calibration reading before each of the two children. The set-ups are
// timed before every op, not once per run: one child's set-ups fit in a
// tenth of a second, and setup_s taken in one such window shows the
// host's speed in that moment (runs differed by up to 30 %).
func (r *runner) round(ctx context.Context, wr *wlResult, idx int) {
	r.calib(wr)
	r.measureSetup(ctx, wr)
	r.calib(wr)
	if res := r.op(ctx, wr, wr.w, idx, false); res != nil {
		wr.ops = append(wr.ops, res)
	}
}

// measureTimed runs untraced ops of wr.w until budget has no room for
// another: op i on sub-seed i mod w.seeds, so the ops of one seed lie a
// whole cycle apart and do not share one slow spell of the host. It runs
// at least w.seeds+1 ops, whatever the budget: every sub-seed is then
// simulated, and sub-seed 0 twice, which the determinism check needs.
func (r *runner) measureTimed(ctx context.Context, wr *wlResult, budget time.Duration) {
	start := time.Now()
	for i := 0; ctx.Err() == nil && wr.failed < maxFailures; i++ {
		if used := time.Since(start); i > wr.w.seeds && used+used/time.Duration(i) > budget {
			return
		}
		r.round(ctx, wr, i%wr.w.seeds)
	}
}

// shardedReps is how many ops of w.sharded a traced pass runs.
const shardedReps = 2

// tracedPass runs the traced op, then w.sharded and the coupled-shard
// pair where w has a sharded twin, then the probes at the operating
// point the traced op shows.
//
// The sharded twin is measured here and not as a workload with bounds of
// its own because its two spinning lanes need two whole cores, and the
// host this was sized on is a 2-vCPU virtual machine that often has one:
// the twin's wall then doubles while a single-threaded reading of the
// host's speed stays put, so nothing brings runs of the same code within
// a quarter of each other. The shard.* ratios it gives have no bound.
func (r *runner) tracedPass(ctx context.Context, wr *wlResult, probeBudget time.Duration) {
	wr.traced = r.op(ctx, wr, wr.w, 0, true)
	if wr.traced == nil {
		return
	}
	if k2 := wr.w.sharded; k2 != nil && r.host.NProc < k2.shards {
		// A meaningless number is worse than none: shard.* read 0.
		fmt.Fprintf(r.log, "  %s skipped: needs %d cores, host has %d\n", k2.name, k2.shards, r.host.NProc)
	} else if k2 != nil {
		for range shardedReps {
			if res := r.op(ctx, wr, *k2, 0, false); res != nil {
				wr.sharded = append(wr.sharded, res)
			}
		}
		for i, w := range coupledPair {
			if res := r.op(ctx, wr, w, 0, false); res != nil {
				wr.coupled[i] = res.WallS
			}
		}
	}
	probes, err := runProbes(probeBudget, operatingPoint(wr.w, wr.traced))
	wr.attempted++
	if err != nil {
		wr.fail("%s probes: %v", wr.w.name, err)
		return
	}
	wr.probes = probes
}

// check applies the correctness checks; each violation is a failed op.
func (wr *wlResult) check() {
	if len(wr.ops) == 0 {
		wr.fail("%s: no op completed", wr.w.name)
		return
	}
	// Ops that share a seed must print one digest: the repeated seeds
	// check determinism, the traced op checks that sampling is pure, and
	// the sharded twin's ops check that sharded ≡ serial.
	seen := map[int64]string{}
	all := append([]*opResult(nil), wr.ops...)
	if wr.traced != nil {
		all = append(all, wr.traced)
	}
	all = append(all, wr.sharded...)
	for _, op := range all {
		first, ok := seen[op.Seed]
		if !ok {
			seen[op.Seed] = op.Digest
			continue
		}
		if first != op.Digest {
			kind := "repeat"
			if op.Traced {
				kind = "traced op"
			} else if op.Workload != wr.w.name {
				kind = op.Workload
			}
			wr.fail("%s seed %d: %s printed digest %.12s, first op printed %.12s", wr.w.name, op.Seed, kind, op.Digest, first)
		}
	}
	if wr.traced != nil {
		wr.checkCounts(wr.traced.Counts)
	}
}

// checkCounts applies the sanity predicates to a traced op's counts.
func (wr *wlResult) checkCounts(c map[string]float64) {
	if c["sim.events"] <= 0 {
		wr.fail("%s: sim.events = %v", wr.w.name, c["sim.events"])
	}
	if ratio := deliveryRatio(c); !(ratio > 0 && ratio <= 1) {
		wr.fail("%s: core.delivery_ratio = %v, want in (0,1]", wr.w.name, ratio)
	}
	// TCP and web sessions count completed transfers; where such an app
	// ran, some must have completed.
	for _, app := range []string{"tcp", "web"} {
		if n, ran := c["wl."+app+".completed"]; ran && n <= 0 {
			wr.fail("%s: no %s transfer completed", wr.w.name, app)
		}
	}
}

func deliveryRatio(c map[string]float64) float64 {
	if c["core.src_tx"] == 0 {
		return 0
	}
	return c["core.delivered"] / c["core.src_tx"]
}

// endToEndStats reduces the ops to the end-to-end metrics. Each sub-seed
// is simulated several times, a cycle apart, and contributes the median
// of each metric over its ops; the metric is the mean over the sub-seeds.
// setup_s, which has no seed, is the trimmed mean of all the set-ups timed.
//
// The three times are then divided by the run's host factor (host.go):
// the sizing host's speed moves by up to 2× for minutes on end, which no
// statistic of one run's own timings can see, and runs of the same code
// read a quarter apart. The calibration loop run between the children
// sees it; divided by it, they read 5 % apart.
func (wr *wlResult) endToEndStats() map[string]stat {
	get := map[string]func(*opResult) float64{
		"wall_s":      func(o *opResult) float64 { return o.WallS },
		"cpu_s":       func(o *opResult) float64 { return o.CPUS },
		"peak_rss_mb": func(o *opResult) float64 { return o.PeakRSSMB },
		"alloc_mb":    func(o *opResult) float64 { return o.AllocMB },
		"mallocs_k":   func(o *opResult) float64 { return o.MallocsK },
	}
	var seeds []int64
	bySeed := map[int64][]*opResult{}
	for _, op := range wr.ops {
		if bySeed[op.Seed] == nil {
			seeds = append(seeds, op.Seed)
		}
		bySeed[op.Seed] = append(bySeed[op.Seed], op)
	}
	factor := hostFactor(wr.calib)
	scaled := func(values []float64, unit string) []float64 {
		for i := range values {
			if unit == "s" {
				values[i] /= factor
			}
		}
		return values
	}
	setup := summarize(scaled(append([]float64(nil), wr.setups...), "s"), nil, "s")
	setup.Value = trimmedMean(setup.Values)
	out := map[string]stat{"setup_s": setup}
	for _, m := range endToEnd {
		f, ok := get[m.Name]
		if !ok {
			continue
		}
		values := make([]float64, len(seeds))
		for i, seed := range seeds {
			var reps []float64
			for _, op := range bySeed[seed] {
				reps = append(reps, f(op))
			}
			values[i] = median(reps)
		}
		out[m.Name] = summarize(scaled(values, m.Unit), seeds, m.Unit)
	}
	return out
}
