// Command vifi-metrics inspects FTDC-style metrics recordings written by
// vifi-sim -metrics, vifi-bench -metrics, or vifi-serve.
//
// Usage:
//
//	vifi-metrics run.ftdc              # per-recording summary
//	vifi-metrics -dump run.ftdc        # every sample row as text
//	vifi-metrics -json run.ftdc        # re-encode the stream as JSON
//	vifi-metrics -series radio.tx run.ftdc   # one series' column
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"github.com/vanlan/vifi/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vifi-metrics", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		dump   = fs.Bool("dump", false, "print every sample row")
		asJSON = fs.Bool("json", false, "re-encode the stream as JSON on stdout")
		series = fs.String("series", "", "print one series' sampled column")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "vifi-metrics: exactly one recording file expected")
		return 2
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "vifi-metrics:", err)
		return 1
	}
	defer f.Close()
	recs, err := obs.ReadAll(f)
	if err != nil {
		fmt.Fprintln(stderr, "vifi-metrics:", err)
		return 1
	}

	switch {
	case *asJSON:
		if err := obs.WriteJSONAll(stdout, recs); err != nil {
			fmt.Fprintln(stderr, "vifi-metrics:", err)
			return 1
		}
	case *series != "":
		found := false
		for _, r := range recs {
			col := r.Column(*series)
			if col == nil {
				continue
			}
			found = true
			fmt.Fprintf(stdout, "# %s\n", metaLine(r))
			for i, v := range col {
				fmt.Fprintf(stdout, "%v\t%d\n", r.Start+time.Duration(i)*r.Interval, v)
			}
		}
		if !found {
			fmt.Fprintf(stderr, "vifi-metrics: no recording has series %q; the recordings have: %s\n",
				*series, strings.Join(seriesNames(recs), ", "))
			return 1
		}
	case *dump:
		for _, r := range recs {
			fmt.Fprintf(stdout, "# %s\n", metaLine(r))
			fmt.Fprint(stdout, "time")
			for _, s := range r.Series {
				fmt.Fprintf(stdout, "\t%s", s.Name)
			}
			fmt.Fprintln(stdout)
			for i := 0; i < r.Rows(); i++ {
				fmt.Fprintf(stdout, "%v", r.Start+time.Duration(i)*r.Interval)
				for _, v := range r.Row(i) {
					fmt.Fprintf(stdout, "\t%d", v)
				}
				fmt.Fprintln(stdout)
			}
		}
	default:
		for _, r := range recs {
			fmt.Fprintf(stdout, "recording: %s\n", metaLine(r))
			fmt.Fprintf(stdout, "  %d series · %d rows · every %v from %v\n",
				len(r.Series), r.Rows(), r.Interval, r.Start)
			last := r.Rows() - 1
			for _, s := range r.Series {
				final := int64(0)
				if last >= 0 {
					final = r.Column(s.Name)[last]
				}
				fmt.Fprintf(stdout, "  %-22s %-7s final %d\n", s.Name, s.Kind, final)
			}
		}
	}
	return 0
}

// seriesNames lists the distinct series names of recs in first-seen order.
func seriesNames(recs []*obs.Recording) []string {
	seen := map[string]bool{}
	var names []string
	for _, r := range recs {
		for _, s := range r.Series {
			if !seen[s.Name] {
				seen[s.Name] = true
				names = append(names, s.Name)
			}
		}
	}
	return names
}

// metaLine renders a recording's meta map sorted by key.
func metaLine(r *obs.Recording) string {
	keys := make([]string, 0, len(r.Meta))
	for k := range r.Meta {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	s := ""
	for i, k := range keys {
		if i > 0 {
			s += " "
		}
		s += k + "=" + r.Meta[k]
	}
	return s
}
