package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"runtime"
	"runtime/metrics"
	"time"

	"github.com/vanlan/vifi/internal/core"
	"github.com/vanlan/vifi/internal/experiment"
	"github.com/vanlan/vifi/internal/obs"
	"github.com/vanlan/vifi/internal/scenario"
	"github.com/vanlan/vifi/internal/sim"
	"github.com/vanlan/vifi/internal/trace"
)

// This file is the child side of the benchmark: one op = one execution
// of one workload, start to finish, in the calling process. The parent
// (runner.go) re-execs the binary once per op so every op starts from a
// fresh heap and an empty experiment.traceCache, exactly like a CLI run.

// workloadDef describes one named benchmark workload. Exactly one of spec
// (a fleet session driven through experiment.LiveRun) and figs (paper
// figures through experiment.Run) is set.
type workloadDef struct {
	name string
	why  string

	spec   string        // scenario spec string
	simS   float64       // simulated seconds at size 1
	shards int           // LiveRun shard request (halo lanes on grid-metro)
	sample time.Duration // obs sampling cadence of the *untraced* run (0 = none)

	figs  []string // experiment ids
	scale float64  // experiment.Options.Scale at size 1

	// seeds is how many sub-seeds a run cycles its ops through: enough
	// that their mean holds still from one run seed to the next (the
	// mixed-app city's event count varies 13 % from seed to seed, the
	// metro's 0.2 %), few enough that each is simulated several times.
	seeds int

	// sharded is the same inputs on halo lanes. It is not a workload of
	// its own: the traced pass runs it, checks that it prints this
	// workload's digest, and reports the shard.* ratios (runner.go says why).
	sharded *workloadDef
}

// The workloads. Names are fixed: later issues cite them. Sizes are a
// seventh to a quarter of what ISSUE 11 sized (scale 0.2 / 150 s / 60 s):
// an op takes one to two seconds, so a 40 s run simulates every sub-seed
// three times or more; see README.md.
var workloads = []workloadDef{
	{
		name: "paper-figs",
		why:  "fig7,fig9,fig10,fig11,table1 at scale 0.03 on one engine worker: 12-node cells, so the protocol stack (core retx timers, frame codec, GC) does the work and radio fan-out is small",
		figs: []string{"fig7", "fig9", "fig10", "fig11", "table1"}, scale: 0.03, seeds: 10,
	},
	{
		name: "city-apps-live",
		why:  "grid-city,app=mixed (54 BS, 24 vehicles) for 30 sim-s stepped and sampled at 1 s like vifi-serve: the only workload with real workload/transport/backplane traffic and obs in the timed path",
		spec: "grid-city,app=mixed", simS: 30, shards: 1, sample: time.Second, seeds: 9,
	},
	{
		name: "metro-cbr",
		why:  "grid-metro (500 radios, indexed radio path) CBR for 15 sim-s: radio- and kernel-bound, so a cheaper timer heap must show here and a codec change must not; the traced run adds its 2-lane sharded twin",
		spec: "grid-metro", simS: 15, shards: 1, seeds: 3, sharded: &metroK2,
	},
}

// metroK2 is byte for byte the inputs of metro-cbr on two halo lanes
// (ISSUE 11's fourth workload). A sharding fix moves shard.speedup and
// shard.cpu_ratio and predicts no change on metro-cbr's own metrics.
var metroK2 = workloadDef{name: "metro-cbr-k2", spec: "grid-metro", simS: 15, shards: 2}

// coupledPair is the districted scenario behind shard.coupled_speedup,
// serial and on two coupled kernels: the sharding mode no workload uses.
// The traced pass that runs metroK2 runs one op of each.
var coupledPair = [2]workloadDef{
	{name: "metro-districts", spec: "metro-districts", simS: 15, shards: 1},
	{name: "metro-districts-k2", spec: "metro-districts", simS: 15, shards: 2},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// findChildWorkload also resolves the names only children run.
func findChildWorkload(name string) (workloadDef, bool) {
	for _, w := range append(coupledPair[:], metroK2) {
		if w.name == name {
			return w, true
		}
	}
	return findWorkload(name)
}

// span is one timed call from the benchmark into a layer. Times are
// nanoseconds since the child entered main; Parent is the ID of the
// enclosing span (0 = none); spans of one op share Workload and Op, the
// number the parent gives the op.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Op       int    `json:"op"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
}

// recorder keeps an op's spans in memory; the parent writes the traced
// op's spans out when the benchmark ends.
type recorder struct {
	epoch    time.Time
	workload string
	spans    []span
}

func (r *recorder) begin(name string, parent int) int {
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Name: name, Workload: r.workload,
		StartNs: time.Since(r.epoch).Nanoseconds(),
	})
	return id
}

func (r *recorder) end(id int) { r.spans[id-1].EndNs = time.Since(r.epoch).Nanoseconds() }

func (r *recorder) ms(id int) float64 {
	s := r.spans[id-1]
	return float64(s.EndNs-s.StartNs) / 1e6
}

// opResult is what one op reports. The child fills everything except
// the rusage block, which only the parent can read.
type opResult struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Traced   bool   `json:"traced"`

	// Parent-side (rusage and the parent's own clock).
	WallS     float64 `json:"wall_s"`
	CPUS      float64 `json:"cpu_s"`
	PeakRSSMB float64 `json:"peak_rss_mb"`

	// SetupS is child entry → the first simulated event can run.
	SetupS   float64 `json:"setup_s"`
	AllocMB  float64 `json:"alloc_mb"`
	MallocsK float64 `json:"mallocs_k"`
	Digest   string  `json:"sim_digest"`
	Lanes    int     `json:"lanes"` // halo lanes or coupled kernels the run really used
	SimS     float64 `json:"sim_s"`

	SetupMs  float64   `json:"setup_ms"`
	RunMs    float64   `json:"run_ms"`
	FinishMs float64   `json:"finish_ms"`
	ReportMs float64   `json:"report_ms"`
	StepMs   []float64 `json:"step_ms,omitempty"`

	GCCycles  float64 `json:"gc_cycles"`
	GCPauseMs float64 `json:"gc_pause_ms"`
	GCCPUS    float64 `json:"gc_cpu_s"`

	Jobs      int64 `json:"jobs"`
	CacheHits int64 `json:"cache_hits"`

	// Counts holds the recording's series, reduced: a counter's final
	// value under its own name, a gauge's time mean and maximum under
	// name+"_mean" / name+"_max". Filled whenever the run sampled.
	Counts     map[string]float64 `json:"counts,omitempty"`
	ObsRows    int                `json:"obs_rows"`
	ObsSeries  int                `json:"obs_series"`
	ObsBytes   int64              `json:"obs_bytes"`
	ObsEncMs   float64            `json:"obs_encode_ms"`
	ShardExec  []shardLane        `json:"shard_exec,omitempty"`
	Spans      []span             `json:"spans,omitempty"`
	CheckError string             `json:"check_error,omitempty"`
}

// shardLane is one halo lane's (or coupled shard's) execution counters.
type shardLane struct {
	Computed uint64 `json:"computed"`
	Rounds   int    `json:"rounds"`
	Stalled  int    `json:"stalled"`
}

// runOp executes one op of w in this process. size scales simulated
// length (1 = the benchmark's fixed size; the smoke test runs tiny ones);
// traced turns on 1 s obs sampling and the extra layer-boundary spans.
func runOp(w workloadDef, seed int64, size float64, traced bool, epoch time.Time) (*opResult, error) {
	rec := &recorder{epoch: epoch, workload: w.name}
	res := &opResult{Workload: w.name, Seed: seed, Traced: traced}
	var err error
	if len(w.figs) > 0 {
		err = runFigs(w, seed, size, traced, rec, res)
	} else {
		err = runCity(w, seed, size, traced, rec, res)
	}
	if err != nil {
		return nil, err
	}

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.AllocMB = float64(ms.TotalAlloc) / (1 << 20)
	res.MallocsK = float64(ms.Mallocs) / 1000
	res.GCCycles = float64(ms.NumGC)
	res.GCPauseMs = float64(ms.PauseTotalNs) / 1e6
	gc := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(gc)
	if gc[0].Value.Kind() == metrics.KindFloat64 {
		res.GCCPUS = gc[0].Value.Float64()
	}
	res.Spans = rec.spans
	return res, nil
}

func simDuration(w workloadDef, size float64) time.Duration {
	d := time.Duration(w.simS * size * float64(time.Second)).Round(time.Second)
	if d < time.Second {
		d = time.Second
	}
	return d
}

// runCity drives a fleet session the way vifi-serve does: build, Step per
// one-second barrier, Finish, render the report, encode the recording.
func runCity(w workloadDef, seed int64, size float64, traced bool, rec *recorder, res *opResult) error {
	dur := simDuration(w, size)
	interval := w.sample
	if traced {
		interval = time.Second
	}
	root := rec.begin("op", 0)

	setup := rec.begin("setup", root)
	sp := rec.begin("scenario.Parse", setup)
	spec, err := scenario.Parse(w.spec)
	rec.end(sp)
	if err != nil {
		return err
	}
	if traced {
		// StartLiveRun generates the layout internally; the traced pass
		// also times the generator alone so the trace shows its share.
		sp = rec.begin("scenario.Generate", setup)
		_, err = scenario.Generate(sim.NewKernel(seed), spec)
		rec.end(sp)
		if err != nil {
			return err
		}
	}
	sp = rec.begin("experiment.StartLiveRun", setup)
	l, err := experiment.StartLiveRun(seed, spec, core.DefaultConfig(), dur, w.shards, interval, nil)
	rec.end(sp)
	if err != nil {
		return err
	}
	rec.end(setup)
	res.SetupS = time.Since(rec.epoch).Seconds()
	res.Lanes = max(l.Lanes(), l.Shards())
	res.SimS = l.End().Seconds()

	runSp := rec.begin("run", root)
	for {
		sp = rec.begin("LiveRun.Step", runSp)
		_, done := l.Step()
		rec.end(sp)
		res.StepMs = append(res.StepMs, rec.ms(sp))
		if done {
			break
		}
	}
	rec.end(runSp)

	sp = rec.begin("LiveRun.Finish", root)
	run := l.Finish()
	rec.end(sp)
	res.FinishMs = rec.ms(sp)

	repSp := rec.begin("report", root)
	sp = rec.begin("experiment.FprintFleetReport", repSp)
	var buf bytes.Buffer
	experiment.FprintFleetReport(&buf, run, "vifi", dur, seed)
	rec.end(sp)
	if r := l.Recording(); r != nil {
		if err := encodeRecordings(rec, repSp, []*obs.Recording{r}, res); err != nil {
			return err
		}
	}
	rec.end(repSp)
	rec.end(root)

	// Sharded diagnostics accumulate in package sinks; drain them as the
	// daemon does.
	experiment.TakeShardLog()
	experiment.TakeRecordings()

	sum := sha256.Sum256(buf.Bytes())
	res.Digest = hex.EncodeToString(sum[:])
	res.SetupMs, res.RunMs, res.ReportMs = rec.ms(setup), rec.ms(runSp), rec.ms(repSp)
	for _, se := range run.ShardExec {
		res.ShardExec = append(res.ShardExec, shardLane{Computed: se.Events, Rounds: se.Rounds, Stalled: se.Stalled})
	}
	if buf.Len() == 0 {
		res.CheckError = "empty fleet report"
	}
	if w.shards > 1 && res.Lanes != w.shards {
		res.CheckError = fmt.Sprintf("asked for %d shards, ran with %d: the run fell back to serial", w.shards, res.Lanes)
	}
	return nil
}

// runFigs regenerates paper figures on one engine worker — what
// `vifi-bench -run fig7,... -parallel 1` does.
func runFigs(w workloadDef, seed int64, size float64, traced bool, rec *recorder, res *opResult) error {
	root := rec.begin("op", 0)
	setup := rec.begin("setup", root)
	sp := rec.begin("experiment.NewEngine", setup)
	eng := experiment.NewEngine(1)
	if traced {
		eng.EnableMetrics(time.Second)
	}
	rec.end(sp)
	rec.end(setup)
	res.SetupS = time.Since(rec.epoch).Seconds()
	opts := experiment.Options{Seed: seed, Scale: w.scale * size, Engine: eng}

	runSp := rec.begin("run", root)
	reports := make([]*experiment.Report, len(w.figs))
	for i, id := range w.figs {
		sp = rec.begin("experiment.Run("+id+")", runSp)
		r, err := experiment.Run(id, opts)
		rec.end(sp)
		if err != nil {
			return err
		}
		reports[i] = r
		res.StepMs = append(res.StepMs, rec.ms(sp))
	}
	rec.end(runSp)

	repSp := rec.begin("report", root)
	h := sha256.New()
	for i, r := range reports {
		sp = rec.begin("Report.String", repSp)
		s := r.String()
		rec.end(sp)
		if len(r.Rows) == 0 || s == "" {
			res.CheckError = "empty report for " + w.figs[i]
		}
		io.WriteString(h, s)
	}
	if recs := experiment.TakeRecordings(); len(recs) > 0 {
		if err := encodeRecordings(rec, repSp, recs, res); err != nil {
			return err
		}
	}
	rec.end(repSp)
	rec.end(root)

	res.Digest = hex.EncodeToString(h.Sum(nil))
	res.Jobs, res.CacheHits = eng.Jobs(), eng.CacheHits()
	res.SetupMs, res.RunMs, res.ReportMs = rec.ms(setup), rec.ms(runSp), rec.ms(repSp)
	return nil
}

// encodeRecordings writes the run's recordings through the binary codec,
// as the CLIs' -metrics and the daemon do, under an obs.WriteAll span, and
// reduces them to res.Counts.
func encodeRecordings(rec *recorder, parent int, recs []*obs.Recording, res *opResult) error {
	sp := rec.begin("obs.WriteAll", parent)
	cw := &countingWriter{}
	err := obs.WriteAll(cw, recs)
	rec.end(sp)
	if err != nil {
		return err
	}
	res.ObsBytes, res.ObsEncMs = cw.n, rec.ms(sp)
	res.Counts = map[string]float64{}
	reduceRecordings(recs, res)
	return nil
}

// reduceRecordings folds sampled recordings into res.Counts: counters
// add their final row across recordings (each recording is one
// simulation run), gauges keep their time mean and maximum.
func reduceRecordings(recs []*obs.Recording, res *opResult) {
	type acc struct{ sum, max float64 }
	gauges := map[string]*acc{}
	rows := 0
	for _, r := range recs {
		n := r.Rows()
		if n == 0 {
			continue
		}
		rows += n
		if len(r.Series) > res.ObsSeries {
			res.ObsSeries = len(r.Series)
		}
		last := r.Row(n - 1)
		for c, def := range r.Series {
			if def.Kind == obs.Counter {
				res.Counts[def.Name] += float64(last[c])
				continue
			}
			g := gauges[def.Name]
			if g == nil {
				g = &acc{}
				gauges[def.Name] = g
			}
			for i := 0; i < n; i++ {
				v := float64(r.Row(i)[c])
				g.sum += v
				if v > g.max {
					g.max = v
				}
			}
		}
	}
	res.ObsRows = rows
	for name, g := range gauges {
		res.Counts[name+"_mean"] = g.sum / float64(rows)
		res.Counts[name+"_max"] = g.max
	}
}

type countingWriter struct{ n int64 }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

// setupOnce performs what stands between process entry and the first
// simulated event: for a city, spec parse plus the session build
// (layout generation, cell, drivers); for the figures, the engine plus
// the two DieselNet trace syntheses that experiment's cell builder
// memoises on first use.
func setupOnce(w workloadDef, seed int64, size float64) error {
	if len(w.figs) > 0 {
		experiment.NewEngine(1)
		ts := int64(sim.NewKernel(seed).RNG("traceseed").Uint64() % (1 << 30))
		for _, ch := range []int{1, 6} {
			if tr := trace.GenerateDieselNet(ts, ch, time.Hour); len(tr.Ratio) == 0 {
				return fmt.Errorf("empty DieselNet trace for channel %d", ch)
			}
		}
		return nil
	}
	spec, err := scenario.Parse(w.spec)
	if err != nil {
		return err
	}
	// A sharded session's lane workers are only stopped by Finish, which
	// needs a completed run; the workers of these abandoned builds park
	// after a short spin and are reclaimed when the child exits.
	_, err = experiment.StartLiveRun(seed, spec, core.DefaultConfig(), simDuration(w, size), w.shards, w.sample, nil)
	return err
}

// runSetups times reps back-to-back set-ups and returns each in seconds.
func runSetups(w workloadDef, seed int64, size float64, reps int) ([]float64, error) {
	out := make([]float64, reps)
	for i := range out {
		t0 := time.Now()
		if err := setupOnce(w, seed, size); err != nil {
			return nil, err
		}
		out[i] = time.Since(t0).Seconds()
	}
	return out, nil
}
