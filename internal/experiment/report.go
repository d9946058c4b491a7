// Package experiment contains one report per table and figure of the ViFi
// paper's evaluation (§3 and §5), plus the ablation studies listed in
// DESIGN.md and the city-scale sweeps: a row of the sweeps table when the
// report is fleet runs and one reduction, a runner function when its job
// is not only fleet runs (Fig 1–7, ablate-aux). Each returns a Report —
// the textual equivalent of the paper's plot or table — and is reachable
// from cmd/vifi-bench. What the runs cost is measured by the benchmark/
// module (shard.speedup and shard.coupled_speedup for the sharded modes).
package experiment

import (
	"fmt"
	"math"
	"strings"
	"time"
)

// Options control experiment scale and reproducibility.
type Options struct {
	// Seed drives all randomness; equal seeds give identical reports.
	Seed int64
	// Scale multiplies run durations and trial counts. 1.0 is the
	// paper-shaped run; benchmarks use smaller values for speed.
	Scale float64
	// Engine schedules the experiment's simulation runs. nil runs every
	// job on a fresh one-worker engine (serial, with a per-figure
	// run-cache and DieselNet trace memo); a shared Engine adds bounded
	// parallelism and cross-figure memoization. Reports are byte-identical
	// either way.
	Engine *Engine
	// Scenario overrides the base scenario spec of the scale-* sweeps: a
	// preset name plus key=value overrides in internal/scenario.Parse
	// syntax. Empty keeps each sweep's default; one that does not parse,
	// or that makes an arm invalid, is an error from Run. Paper figures
	// and ablations ignore it, the sweep rows on a testbed among them.
	Scenario string
	// Shards requests sharded single-run execution of the scale-* sweeps:
	// each fleet simulation runs as this many independent event kernels
	// when its scenario is districted and as this many halo-band stripe
	// lanes inside one kernel otherwise. Results are byte-identical in
	// every case; 0 means 1. Paper figures and ablations, the sweep rows
	// on a testbed among them, ignore it and run serially.
	Shards int
}

// engine returns the configured engine, or a fresh one-worker engine so
// figures can be called directly without one.
func (o Options) engine() *Engine {
	if o.Engine != nil {
		return o.Engine
	}
	return NewEngine(1)
}

// maxScale is the largest Scale at which every registered report's
// scaled counts and run lengths fit: the longest run, Fig 5's 40-minute
// DieselNet trace (2400 s), must stay a whole number of seconds a
// time.Duration holds, about 292 years. Every count is far below that.
const maxScale = float64(math.MaxInt64/int64(time.Second)) / 2400

// CheckScale returns an error unless s is a positive Scale no larger than
// maxScale. Run takes any Scale and floors every count at one (the zero
// Options runs each figure at that floor), and a larger scale overflows a
// count or a duration into that floor or below zero, so a caller handed a
// scale checks it here first.
func CheckScale(s float64) error {
	if !(s > 0 && s <= maxScale) {
		return fmt.Errorf("scale %v is not a positive finite number up to %v, the largest at which every run length fits", s, maxScale)
	}
	return nil
}

// scaled returns max(1, round(n·Scale)) for trial counts.
func (o Options) scaled(n int) int {
	v := int(float64(n)*o.Scale + 0.5)
	if v < 1 {
		v = 1
	}
	return v
}

// Report is the textual reproduction of one paper table or figure.
type Report struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends one formatted row.
func (r *Report) AddRow(cells ...string) { r.Rows = append(r.Rows, cells) }

// AddNote appends an explanatory note printed under the table.
func (r *Report) AddNote(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// String renders the report as an aligned text table.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len([]rune(h))
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len([]rune(c)) > widths[i] {
				widths[i] = len([]rune(c))
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if i < len(widths) {
				for p := len([]rune(c)); p < widths[i]; p++ {
					b.WriteByte(' ')
				}
			}
		}
		b.WriteByte('\n')
	}
	writeRow(r.Header)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range r.Rows {
		writeRow(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// f2 formats a float with two decimals.
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

// f1 formats a float with one decimal.
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }

// pct formats a ratio as a percentage.
func pct(v float64) string { return fmt.Sprintf("%.0f%%", v*100) }

// pct1 formats a ratio as a percentage with one decimal.
func pct1(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }
