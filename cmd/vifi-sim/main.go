// Command vifi-sim runs one ViFi (or baseline) deployment scenario and
// prints the application-level results. -protocol accepts a
// comma-separated list; the arms run as jobs on the experiment engine's
// worker pool and print in the order given.
//
// Usage:
//
//	vifi-sim -env vanlan -protocol vifi -workload voip -duration 600s
//	vifi-sim -env dieselnet1 -protocol brr -workload tcp
//	vifi-sim -env vanlan -protocol vifi,brr -workload probes -parallel 2
//
// Beyond the paper's two testbeds, -scenario runs a generated city-scale
// deployment (internal/scenario) under a per-vehicle application
// workload: a preset name plus optional key=value overrides, including
// app=cbr|tcp|voip|web|mixed and the per-app knobs (xfer, think, mix).
// It replaces -env/-workload.
//
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
	"github.com/vanlan/vifi/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vifi-sim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		env      = fs.String("env", "vanlan", "environment: vanlan, dieselnet1, dieselnet6")
		protocol = fs.String("protocol", "vifi", "comma-separated protocols: vifi, brr, diversity-only")
		wkld     = fs.String("workload", "voip", "workload: voip, tcp, probes")
		scn      = fs.String("scenario", "", "generated scenario (preset[,key=value...], 'list' to enumerate); replaces -env/-workload with the fleet application workload (app=cbr|tcp|voip|web|mixed)")
		duration = fs.Duration("duration", 10*time.Minute, "simulated duration")
		seed     = fs.Int64("seed", 42, "random seed")
		parallel = fs.Int("parallel", runtime.GOMAXPROCS(0), "simulation worker-pool width; 1 = serial")
		shards   = fs.Int("shards", 1, "run each scenario simulation this many ways parallel: independent district kernels for districted scenarios, halo-band stripe lanes for un-districted indexed ones (results are byte-identical to -shards 1)")
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
	writeMetrics := func() int {
		if *metrics == "" {
			return 0
		}
		if err := obs.WriteFile(*metrics, experiment.TakeRecordings()); err != nil {
			fmt.Fprintln(stderr, "vifi-sim:", err)
			return 1
		}
		return 0
	}

	if *scn != "" {
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
		return writeMetrics()
	}

	// The paper's testbeds: -env and -workload apply from here on.
	e, ok := map[string]experiment.Env{
		"vanlan":     experiment.EnvVanLAN,
		"dieselnet1": experiment.EnvDieselNetCh1,
		"dieselnet6": experiment.EnvDieselNetCh6,
	}[*env]
	if !ok {
		fmt.Fprintf(stderr, "vifi-sim: unknown environment %q\n", *env)
		return 2
	}
	kind, ok := map[string]workload.Kind{
		"voip":   workload.VoIPKind,
		"tcp":    workload.TCPKind,
		"probes": workload.CBRKind,
	}[*wkld]
	if !ok {
		fmt.Fprintf(stderr, "vifi-sim: unknown workload %q\n", *wkld)
		return 2
	}
	futs := make([]experiment.Future[*experiment.TestbedRun], len(cfgs))
	for i, cfg := range cfgs {
		// TCP collects for the salvaged-packet count.
		futs[i] = eng.Testbed(*seed, e, kind, cfg, *duration, kind == workload.TCPKind)
	}
	for i, name := range names {
		run := futs[i].Wait()
		printHeader(stdout, e, name, *duration, *seed)
		switch kind {
		case workload.VoIPKind:
			q := run.VoIP
			fmt.Fprintf(stdout, "median disruption-free session: %.0f s\n", q.MedianSessionSec)
			fmt.Fprintf(stdout, "mean MoS (3s windows):          %.2f\n", q.MeanMoS)
			fmt.Fprintf(stdout, "interruptions:                  %d over %d windows\n\n", q.Interruptions, q.Windows)
		case workload.TCPKind:
			fmt.Fprintf(stdout, "completed transfers:   %d (%.3f /s)\n", run.Completed,
				float64(run.Completed)/run.Span.Seconds())
			fmt.Fprintf(stdout, "aborted transfers:     %d\n", run.Aborted)
			fmt.Fprintf(stdout, "median transfer time:  %.2f s (p90 %.2f s)\n",
				run.TransferQuantile(0.5), run.TransferQuantile(0.9))
			fmt.Fprintf(stdout, "transfers per session: %.1f\n", run.TransfersPerSession())
			fmt.Fprintf(stdout, "salvaged packets:      %d\n\n", run.Collector.Salvaged)
		case workload.CBRKind:
			link := run.Link()
			for _, ratio := range []float64{0.3, 0.5, 0.7, 0.9} {
				fmt.Fprintf(stdout, "median session (1s, ≥%.0f%%): %.0f s\n",
					ratio*100, link.MedianSession(time.Second, ratio))
			}
			fmt.Fprintln(stdout)
		}
	}
	return writeMetrics()
}

func printHeader(w io.Writer, e experiment.Env, protocol string, d time.Duration, seed int64) {
	fmt.Fprintf(w, "environment=%s protocol=%s duration=%v seed=%d\n", e, protocol, d, seed)
}
