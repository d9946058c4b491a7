// Command vifi-bench regenerates the ViFi paper's tables and figures.
//
// Usage:
//
//	vifi-bench                 # every paper table/figure at full scale
//	vifi-bench -run fig9       # one experiment
//	vifi-bench -scale 0.2      # quicker, smaller runs
//	vifi-bench -list           # available experiment ids
//	vifi-bench -all            # paper set plus ablations and scaling sweeps
//	vifi-bench -parallel 8     # worker-pool width (default GOMAXPROCS)
//	vifi-bench -run scale-fleet -scenario cluster-town,vehicles=32
//	                           # scaling sweeps on a custom base scenario
//	vifi-bench -run scale-app-tcp,scale-app-voip
//	                           # application-metric sweeps (per-vehicle
//	                           # TCP/VoIP sessions; -scenario accepts the
//	                           # app=, xfer=, think=, mix= spec keys)
//	vifi-bench -run scale-radio -scale 0.1
//	                           # radio-count sweep, 100→2000 radios at
//	                           # fixed traffic on the spatially indexed
//	                           # channel (full scale is a long run)
//
// Performance instrumentation:
//
//	vifi-bench -cpuprofile cpu.out          # pprof CPU profile of the run
//	vifi-bench -memprofile mem.out          # pprof heap profile at exit
//	vifi-bench -benchjson BENCH_2026.json   # per-experiment ns/allocs/bytes
//
// -benchjson measures each experiment's wall time and allocator traffic
// and writes a JSON perf-trajectory file (see cmd/vifi-benchcmp for the
// CI regression gate over the same schema). Accurate per-experiment
// attribution requires exclusive use of the allocator and an unshared
// run-cache, so -benchjson forces -parallel 1 and gives every experiment
// a fresh engine (costs are never deduplicated across experiments, and a
// given -run id measures the same regardless of what ran before it).
//
// Reports go to stdout; per-figure wall times and engine statistics go to
// stderr, so stdout is byte-identical for any -parallel value.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"github.com/vanlan/vifi/internal/benchfmt"
	"github.com/vanlan/vifi/internal/experiment"
	"github.com/vanlan/vifi/internal/obs"
	"github.com/vanlan/vifi/internal/scenario"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vifi-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		runIDs     = fs.String("run", "", "comma-separated experiment ids (default: the paper set)")
		scale      = fs.Float64("scale", 1.0, "duration/trial multiplier (1.0 = paper-shaped)")
		seed       = fs.Int64("seed", 42, "random seed; equal seeds reproduce identical reports")
		list       = fs.Bool("list", false, "list experiment ids and exit")
		all        = fs.Bool("all", false, "run everything, including ablations")
		parallel   = fs.Int("parallel", runtime.GOMAXPROCS(0), "simulation worker-pool width; 1 = serial")
		scn        = fs.String("scenario", "", "base scenario for the scale-* experiments (preset[,key=value...]); empty keeps their defaults")
		shards     = fs.Int("shards", 1, "run each fleet simulation this many ways parallel — coupled shard kernels (districted) or halo-band stripe lanes (un-districted indexed); reports stay byte-identical, fallbacks to serial say why on stderr")
		cpuprofile = fs.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memprofile = fs.String("memprofile", "", "write a pprof heap profile to this file at exit")
		benchjson  = fs.String("benchjson", "", "write per-experiment ns/op, allocs/op, B/op to this JSON file (forces -parallel 1)")
		metrics    = fs.String("metrics", "", "write an FTDC-style metrics recording of every executed run to this file (reports stay byte-identical)")
		minterv    = fs.Duration("metrics-interval", time.Second, "sim-time sampling cadence for -metrics")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *list {
		for _, id := range experiment.IDs() {
			fmt.Fprintln(stdout, id)
		}
		return 0
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(stderr, "vifi-bench:", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(stderr, "vifi-bench:", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	defer func() {
		if *memprofile == "" {
			return
		}
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintln(stderr, "vifi-bench:", err)
			return
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(stderr, "vifi-bench:", err)
		}
	}()

	ids := experiment.PaperOrder()
	if *all {
		ids = experiment.IDs()
	}
	if *runIDs != "" {
		ids = strings.Split(*runIDs, ",")
		for i := range ids {
			ids[i] = strings.TrimSpace(ids[i])
		}
	}
	// Validate ids before computing anything: a typo must fail fast, not
	// after minutes of simulation.
	known := map[string]bool{}
	for _, id := range experiment.IDs() {
		known[id] = true
	}
	for _, id := range ids {
		if !known[id] {
			fmt.Fprintf(stderr, "vifi-bench: unknown experiment id %q (see -list)\n", id)
			return 1
		}
	}

	measure := *benchjson != ""
	if measure && *parallel != 1 {
		// Concurrent workers share the allocator, so per-experiment
		// attribution of allocs/op needs the serial path.
		fmt.Fprintln(stderr, "vifi-bench: -benchjson forces -parallel 1")
		*parallel = 1
	}

	if *scn != "" {
		if _, err := scenario.Parse(*scn); err != nil {
			fmt.Fprintln(stderr, "vifi-bench:", err)
			return 2
		}
	}

	eng := experiment.NewEngine(*parallel)
	if *metrics != "" {
		eng.EnableMetrics(*minterv)
	}
	opts := experiment.Options{Seed: *seed, Scale: *scale, Engine: eng, Scenario: *scn, Shards: *shards}

	type outcome struct {
		rep     *experiment.Report
		err     error
		elapsed time.Duration
		bench   benchfmt.Entry
	}
	results := make([]outcome, len(ids))
	engines := make([]*experiment.Engine, len(ids))
	exec := func(i int) {
		runOpts := opts
		var before runtime.MemStats
		if measure {
			// A fresh engine per experiment keeps attribution exact: the
			// shared run-cache would otherwise charge a memoized job's
			// whole cost to whichever experiment happened to run it first.
			runOpts.Engine = experiment.NewEngine(1)
			runOpts.Engine.EnableMetrics(eng.MetricsInterval())
			engines[i] = runOpts.Engine
			runtime.GC()
			runtime.ReadMemStats(&before)
		}
		t0 := time.Now()
		rep, err := experiment.Run(ids[i], runOpts)
		elapsed := time.Since(t0)
		o := outcome{rep: rep, err: err, elapsed: elapsed}
		if measure {
			var after runtime.MemStats
			runtime.ReadMemStats(&after)
			o.bench = benchfmt.Entry{
				NsOp:     elapsed.Nanoseconds(),
				BytesOp:  after.TotalAlloc - before.TotalAlloc,
				AllocsOp: after.Mallocs - before.Mallocs,
			}
		}
		results[i] = o
	}
	// emit streams one finished report, preserving request order.
	emit := func(i int) error {
		if results[i].err != nil {
			fmt.Fprintln(stderr, "vifi-bench:", results[i].err)
			return results[i].err
		}
		fmt.Fprintln(stdout, results[i].rep)
		fmt.Fprintf(stderr, "(%s completed in %v)\n", ids[i], results[i].elapsed.Round(time.Millisecond))
		return nil
	}
	start := time.Now()
	if *parallel > 1 {
		// Every figure runner starts at once; runners mostly merge — the
		// engine's bounded pool carries the simulation work, and the
		// shared run-cache deduplicates identical workloads across
		// figures. Reports stream in request order as they complete.
		ready := make([]chan struct{}, len(ids))
		for i := range ids {
			ready[i] = make(chan struct{})
			go func(i int) {
				exec(i)
				close(ready[i])
			}(i)
		}
		for i := range ids {
			<-ready[i]
			if emit(i) != nil {
				return 1
			}
		}
	} else {
		for i := range ids {
			exec(i)
			if emit(i) != nil {
				return 1
			}
		}
	}
	jobs, hits := eng.Jobs(), eng.CacheHits()
	if measure {
		// The shared engine executed nothing; report the per-experiment
		// engines' aggregate instead.
		jobs, hits = 0, 0
		for _, e := range engines {
			if e != nil {
				jobs += e.Jobs()
				hits += e.CacheHits()
			}
		}
	}
	fmt.Fprintf(stderr, "total %v · %d workers · %d jobs run · %d run-cache hits\n",
		time.Since(start).Round(time.Millisecond), eng.Workers(), jobs, hits)
	// Per-shard execution stats for any sharded simulations, next to the
	// engine stats; stdout stays byte-identical for any -shards value.
	experiment.FprintShardLog(stderr, experiment.TakeShardLog())

	if *metrics != "" {
		f, err := os.Create(*metrics)
		if err == nil {
			err = obs.WriteAll(f, experiment.TakeRecordings())
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintln(stderr, "vifi-bench:", err)
			return 1
		}
	}

	if measure {
		bf := benchfmt.File{
			Generated:   time.Now().UTC().Format(time.RFC3339),
			GoVersion:   runtime.Version(),
			Seed:        *seed,
			Scale:       *scale,
			Experiments: make(map[string]benchfmt.Entry, len(ids)),
		}
		for i, id := range ids {
			bf.Experiments[id] = results[i].bench
		}
		data, err := json.MarshalIndent(&bf, "", "  ")
		if err != nil {
			fmt.Fprintln(stderr, "vifi-bench:", err)
			return 1
		}
		if err := os.WriteFile(*benchjson, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(stderr, "vifi-bench:", err)
			return 1
		}
		fmt.Fprintf(stderr, "wrote %s\n", *benchjson)
	}
	return 0
}
