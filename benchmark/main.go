// Command benchmark is the repository's one performance instrument: three
// named workloads, six end-to-end metrics with bounds, a per-layer table
// and a traced cost-model pass. README.md explains every choice.
//
//	bash benchmark/run.sh                       # every workload, R rounds, traced pass
//	bash benchmark/run.sh --workload metro-cbr --seed 3 --seconds 40 --trace 0
//	bash benchmark/run.sh -compare a.json b.json
//	bash benchmark/run.sh -child metro-cbr -cpuprofile benchmark/out/cpu.prof
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"
)

// procStart is taken as early as the runtime allows: a child's set-up
// time counts from here.
var procStart = time.Now()

func main() {
	os.Exit(run())
}

func run() int {
	fs := flag.NewFlagSet("benchmark", flag.ExitOnError)
	var (
		wlName   = fs.String("workload", "", "run only this workload, for -seconds (the driver's mode); empty runs them all in interleaved rounds")
		seed     = fs.Int64("seed", 3, "workload seed: every simulation seed is derived from it")
		seconds  = fs.Float64("seconds", runSeconds, "with -workload: how long to measure")
		trace    = fs.Int("trace", 0, "with -workload: 1 adds the traced op and the probes and prints the per-layer metrics")
		rounds   = fs.Int("rounds", 27, "without -workload: measured rounds after one discarded warm-up round; round i simulates each workload's sub-seed i mod its seeds")
		out      = fs.String("out", "benchmark/out/result.json", "result file")
		traceOut = fs.String("trace-out", "benchmark/out/trace.json", "span file of the traced pass")
		cmp      = fs.Bool("compare", false, "compare two result files: -compare a.json b.json")
		printDoc = fs.Bool("print-benchmark-json", false, "print BENCHMARK.json as the metric tables declare it")

		child      = fs.String("child", "", "run one op of this workload in this process and print its result (what the parent re-execs)")
		traced     = fs.Bool("traced", false, "with -child: sample at 1 s and record the extra spans")
		setups     = fs.Int("setup-reps", 0, "with -child: time this many back-to-back set-ups instead of an op")
		cpuprofile = fs.String("cpuprofile", "", "with -child: write a CPU profile of the op")
	)
	fs.Parse(os.Args[1:])
	runtime.GOMAXPROCS(childProcs)

	switch {
	case *printDoc:
		b, err := benchmarkJSON()
		if err != nil {
			return fatal(err)
		}
		os.Stdout.Write(b)
		return 0
	case *cmp:
		return runCompare(fs.Args())
	case *child != "":
		return runChild(*child, *seed, *traced, *setups, *cpuprofile)
	}

	exe, err := os.Executable()
	if err != nil {
		return fatal(err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	r := &runner{seed: *seed, size: 1, setupReps: defaultSetupReps, host: newFingerprint(), log: os.Stderr}
	r.execOp, r.execSetup = childExec(exe)

	var results []*wlResult
	if *wlName != "" {
		w, ok := findWorkload(*wlName)
		if !ok {
			return fatal(fmt.Errorf("unknown workload %q", *wlName))
		}
		results = []*wlResult{r.runOne(ctx, w, time.Duration(*seconds*float64(time.Second)), *trace == 1)}
	} else {
		results = r.runAll(ctx, *rounds)
	}
	if ctx.Err() != nil {
		return fatal(ctx.Err())
	}

	rf := &resultFile{Host: r.host, Seed: *seed, Workloads: map[string]*wlReport{}}
	var spans []span
	failed := false
	for _, wr := range results {
		rep := wr.report(r.host)
		rf.Workloads[wr.w.name] = rep
		rep.print(os.Stdout, wr.w.name)
		failed = failed || rep.OpsFailed > 0
		if wr.traced != nil {
			spans = append(spans, wr.traced.Spans...)
		}
	}
	if err := writeJSON(*out, rf); err != nil {
		return fatal(err)
	}
	if spans != nil {
		if err := writeJSON(*traceOut, map[string]any{"host": r.host, "spans": spans}); err != nil {
			return fatal(err)
		}
	}
	if *wlName != "" {
		// The driver reads the last line; it carries the verdict itself.
		line, err := rf.Workloads[*wlName].driverLine(*trace == 1)
		if err != nil {
			return fatal(err)
		}
		fmt.Printf("%s\n", line)
		return 0
	}
	if failed {
		return 1
	}
	return 0
}

func fatal(err error) int {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	return 1
}

func runCompare(args []string) int {
	if len(args) != 2 {
		return fatal(fmt.Errorf("-compare takes two result files"))
	}
	a, err := readResult(args[0])
	if err != nil {
		return fatal(err)
	}
	b, err := readResult(args[1])
	if err != nil {
		return fatal(err)
	}
	if compare(os.Stdout, a, b) {
		return 1
	}
	return 0
}

func runChild(name string, seed int64, traced bool, setups int, cpuprofile string) int {
	w, ok := findChildWorkload(name)
	if !ok {
		return fatal(fmt.Errorf("unknown workload %q", name))
	}
	var result any
	if setups > 0 {
		v, err := runSetups(w, seed, 1, setups)
		if err != nil {
			return fatal(err)
		}
		result = v
	} else {
		if cpuprofile != "" {
			f, err := os.Create(cpuprofile)
			if err != nil {
				return fatal(err)
			}
			defer f.Close()
			if err := pprof.StartCPUProfile(f); err != nil {
				return fatal(err)
			}
		}
		res, err := runOp(w, seed, 1, traced, procStart)
		pprof.StopCPUProfile()
		if err != nil {
			return fatal(err)
		}
		result = res
	}
	if err := json.NewEncoder(os.Stdout).Encode(result); err != nil {
		return fatal(err)
	}
	return 0
}

// runOne is the driver's mode: one workload, measured for about budget.
// A traced run spends half the budget on untraced ops (the walls the
// overhead and cost-model ratios need), then runs the traced op and
// gives the probes a quarter.
func (r *runner) runOne(ctx context.Context, w workloadDef, budget time.Duration, traced bool) *wlResult {
	wr := &wlResult{w: w}
	if traced {
		r.measureTimed(ctx, wr, budget/2)
		r.tracedPass(ctx, wr, budget/4)
	} else {
		r.measureTimed(ctx, wr, budget)
	}
	wr.check()
	return wr
}

// runAll measures every workload in interleaved rounds — round 1 of all
// of them, then round 2, … — so host drift lands on all of them alike, then
// makes the traced pass with a second of measuring per probe.
func (r *runner) runAll(ctx context.Context, rounds int) []*wlResult {
	var all []*wlResult
	for _, w := range workloads {
		all = append(all, &wlResult{w: w})
	}
	fmt.Fprintln(r.log, "warm-up round (discarded)")
	for _, wr := range all {
		r.execOp(ctx, wr.w, r.subSeed(0), false) // page cache and binary load only
	}
	for round := 0; round < rounds && ctx.Err() == nil; round++ {
		fmt.Fprintf(r.log, "round %d/%d\n", round+1, rounds)
		for _, wr := range all {
			r.round(ctx, wr, round%wr.w.seeds)
		}
	}
	fmt.Fprintln(r.log, "traced pass")
	for _, wr := range all {
		r.tracedPass(ctx, wr, probeCount*time.Second)
		wr.check()
	}
	return all
}
