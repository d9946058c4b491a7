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
//
// What a change costs is measured by benchmark/ (bash benchmark/run.sh,
// -compare between two result files); the profiles above say where.
//
// Reports go to stdout; per-figure wall times and engine statistics go to
// stderr, so stdout is byte-identical for any -parallel value.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

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
		scn        = fs.String("scenario", "", "base scenario for the scale-* experiments (preset[,key=value...]); empty keeps their defaults; the paper figures and ablations ignore it")
		shards     = fs.Int("shards", 1, "run each fleet simulation of the scale-* experiments this many ways parallel — independent district kernels (districted) or halo-band stripe lanes (un-districted indexed); the paper figures and ablations run serially; reports stay byte-identical")
		cpuprofile = fs.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memprofile = fs.String("memprofile", "", "write a pprof heap profile to this file at exit")
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
	if err := experiment.CheckScale(*scale); err != nil {
		fmt.Fprintf(stderr, "vifi-bench: -%v\n", err)
		return 2
	}
	if *shards < 1 {
		fmt.Fprintf(stderr, "vifi-bench: -shards %d is not positive\n", *shards)
		return 2
	}
	if *metrics != "" && *minterv <= 0 {
		fmt.Fprintf(stderr, "vifi-bench: -metrics-interval %v is not positive: the recording would hold no sample\n", *minterv)
		return 2
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
	}
	results := make([]outcome, len(ids))
	exec := func(i int) {
		t0 := time.Now()
		rep, err := experiment.Run(ids[i], opts)
		results[i] = outcome{rep: rep, err: err, elapsed: time.Since(t0)}
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
	// Every figure runner starts at once; runners mostly merge — the
	// engine's bounded pool carries the simulation work (one worker is the
	// serial run: jobs are leaves), and the shared run-cache deduplicates
	// identical workloads across figures. Reports stream in request order
	// as they complete.
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
	fmt.Fprintf(stderr, "total %v · %d workers · %d jobs run · %d run-cache hits\n",
		time.Since(start).Round(time.Millisecond), eng.Workers(), eng.Jobs(), eng.CacheHits())
	// Per-shard execution stats for any sharded simulations, next to the
	// engine stats; stdout stays byte-identical for any -shards value.
	experiment.FprintShardLog(stderr, experiment.TakeShardLog())

	if *metrics != "" {
		if err := obs.WriteFile(*metrics, experiment.TakeRecordings()); err != nil {
			fmt.Fprintln(stderr, "vifi-bench:", err)
			return 1
		}
	}
	return 0
}
