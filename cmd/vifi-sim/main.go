// Command vifi-sim runs one ViFi (or baseline) deployment scenario and
// prints the application-level results. -scenario is a preset name plus
// optional key=value overrides (internal/scenario): the paper's testbeds
// (vanlan, run live; dieselnet1 and dieselnet6, trace-driven; one vehicle
// each) or a generated city-scale deployment, under the per-vehicle
// application its app= key names — cbr (on a testbed, the §5.2 link-layer
// probe), tcp, voip, web or mixed — with the per-app knobs (xfer, think,
// mix). -protocol accepts a comma-separated list; the arms run as jobs on
// the experiment engine's worker pool and print in the order given.
//
// Usage:
//
//	vifi-sim -scenario vanlan,app=voip -protocol vifi -duration 600s
//	vifi-sim -scenario dieselnet1,app=tcp -protocol brr
//	vifi-sim -scenario vanlan -protocol vifi,brr -parallel 2  # the link-layer probe
//	vifi-sim -scenario grid-city -protocol vifi,brr -duration 240s
//	vifi-sim -scenario grid,app=voip,vehicles=8          # VoIP fleet
//	vifi-sim -scenario grid-city,app=mixed,mix=1:2:1:1   # mixed fleet
//	vifi-sim -scenario strip-highway,vehicles=30,bs=64 -seed 7
//	vifi-sim -scenario grid-city,faults=chaos -duration 120s  # fault injection
//	vifi-sim -scenario list            # available presets (incl. fault presets)
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"github.com/vanlan/vifi/internal/core"
	"github.com/vanlan/vifi/internal/experiment"
	"github.com/vanlan/vifi/internal/fault"
	"github.com/vanlan/vifi/internal/obs"
	"github.com/vanlan/vifi/internal/scenario"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vifi-sim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		protocol = fs.String("protocol", "vifi", "comma-separated protocols: vifi, brr, diversity-only")
		scn      = fs.String("scenario", "vanlan,app=voip", "scenario: preset[,key=value...] ('list' to enumerate), the application in app=cbr|tcp|voip|web|mixed")
		duration = fs.Duration("duration", 10*time.Minute, "simulated duration")
		seed     = fs.Int64("seed", 42, "random seed")
		parallel = fs.Int("parallel", runtime.GOMAXPROCS(0), "simulation worker-pool width; 1 = serial")
		shards   = fs.Int("shards", 1, "run each scenario simulation this many ways parallel: independent district kernels for districted scenarios, halo-band stripe lanes for un-districted ones, serially for a trace-driven testbed (results are byte-identical to -shards 1)")
		metrics  = fs.String("metrics", "", "write an FTDC-style metrics recording of every run to this file (sampling is pure observation: results are byte-identical with or without it)")
		minterv  = fs.Duration("metrics-interval", time.Second, "sim-time sampling cadence for -metrics")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *scn == "list" {
		for _, name := range scenario.Presets() {
			p, _ := scenario.Preset(name)
			fmt.Fprintf(stdout, "%-14s %s\n", name, p.Key())
		}
		fmt.Fprintf(stdout, "\nfault presets (use faults=<name> or faults=<layer>:key=value...):\n")
		for _, name := range fault.Presets() {
			fmt.Fprintf(stdout, "%-14s %s\n", name, fault.Preset(name))
		}
		return 0
	}

	if *duration <= 0 {
		fmt.Fprintf(stderr, "vifi-sim: -duration %v is not positive\n", *duration)
		return 2
	}
	if *shards < 1 {
		fmt.Fprintf(stderr, "vifi-sim: -shards %d is not positive\n", *shards)
		return 2
	}
	if *metrics != "" && *minterv <= 0 {
		fmt.Fprintf(stderr, "vifi-sim: -metrics-interval %v is not positive: the recording would hold no sample\n", *minterv)
		return 2
	}

	names := strings.Split(*protocol, ",")
	cfgs := make([]core.Config, len(names))
	for i, name := range names {
		names[i] = strings.TrimSpace(name)
		var err error
		if cfgs[i], err = core.ConfigByName(names[i]); err != nil {
			fmt.Fprintf(stderr, "vifi-sim: %v\n", err)
			return 2
		}
	}

	eng := experiment.NewEngine(*parallel)
	if *metrics != "" {
		eng.EnableMetrics(*minterv)
	}
	spec, err := scenario.Parse(*scn)
	if err != nil {
		fmt.Fprintln(stderr, "vifi-sim:", err)
		return 2
	}
	futs := make([]experiment.Future[*experiment.FleetAppRun], len(cfgs))
	for i, cfg := range cfgs {
		futs[i] = eng.FleetApp(*seed, spec, cfg, *duration, *shards)
	}
	for i, name := range names {
		experiment.FprintFleetReport(stdout, futs[i].Wait(), name, *duration, *seed)
	}
	// Per-shard execution stats next to the results, stdout untouched:
	// reports stay byte-identical for any -shards value.
	experiment.FprintShardLog(stderr, experiment.TakeShardLog())
	if *metrics != "" {
		if err := obs.WriteFile(*metrics, experiment.TakeRecordings()); err != nil {
			fmt.Fprintln(stderr, "vifi-sim:", err)
			return 1
		}
	}
	return 0
}
