// Command vifi-trace generates and inspects DieselNet-style beacon
// traces (the per-second reception-ratio CSV format also used for real
// traces from traces.cs.umass.edu).
//
// Usage:
//
//	vifi-trace -gen -channel 1 -duration 1h -o ch1.csv
//	vifi-trace -inspect ch1.csv
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"github.com/vanlan/vifi/internal/experiment"
	"github.com/vanlan/vifi/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vifi-trace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		gen      = fs.Bool("gen", false, "generate a synthetic trace")
		channel  = fs.Int("channel", 1, "DieselNet channel (1 or 6)")
		duration = fs.Duration("duration", time.Hour, "profiling duration")
		seed     = fs.Int64("seed", 42, "random seed")
		out      = fs.String("o", "", "output CSV path (default stdout)")
		inspect  = fs.String("inspect", "", "inspect an existing trace CSV")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	switch {
	case *gen:
		if *channel != 1 && *channel != 6 {
			fmt.Fprintf(stderr, "vifi-trace: -channel %d: DieselNet profiled channels 1 and 6 only\n", *channel)
			return 2
		}
		if *duration < time.Second {
			fmt.Fprintf(stderr, "vifi-trace: -duration %v: a trace needs at least one whole second\n", *duration)
			return 2
		}
		tr := trace.GenerateDieselNet(*seed, *channel, *duration)
		w := stdout
		if *out != "" {
			f, err := os.Create(*out)
			if err != nil {
				return fatal(stderr, err)
			}
			defer f.Close()
			w = f
		}
		if err := tr.Write(w); err != nil {
			return fatal(stderr, err)
		}
		if *out != "" {
			fmt.Fprintf(stdout, "wrote %s: %d s × %d BSes\n", *out, tr.Seconds(), tr.NumBSes())
		}
	case *inspect != "":
		f, err := os.Open(*inspect)
		if err != nil {
			return fatal(stderr, err)
		}
		defer f.Close()
		tr, err := trace.Read(f)
		if err != nil {
			return fatal(stderr, err)
		}
		fmt.Fprintf(stdout, "trace %s\n", *inspect)
		for _, line := range experiment.TraceSummary(tr) {
			fmt.Fprintln(stdout, " ", line)
		}
		fmt.Fprintln(stdout, "  visibility CDF (#BSes with ≥1 beacon per second):")
		counts := tr.VisibleCounts(0)
		hist := map[int]int{}
		for _, c := range counts {
			hist[c]++
		}
		cum := 0
		for n := 0; n <= tr.NumBSes(); n++ {
			cum += hist[n]
			if hist[n] == 0 && n > 0 {
				continue
			}
			fmt.Fprintf(stdout, "    ≤%2d BSes: %5.1f%%\n", n, 100*float64(cum)/float64(len(counts)))
		}
	default:
		fs.Usage()
		return 2
	}
	return 0
}

func fatal(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "vifi-trace:", err)
	return 1
}
