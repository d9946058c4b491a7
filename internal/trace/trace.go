// Package trace implements the measurement-trace machinery of the ViFi
// reproduction.
//
// The paper uses two trace forms and this package provides both:
//
//   - ProbeTrace — the §3 methodology on VanLAN: every node broadcasts a
//     500-byte probe each 100 ms and every node logs which probes (and
//     beacons, with RSSI) it decodes. Handoff policies are then evaluated
//     offline against these logs.
//
//   - Trace — the §5.1 DieselNet methodology: the per-second beacon
//     reception ratio between each basestation and the vehicle, used as
//     the per-second packet loss rate in trace-driven simulation. Pairs of
//     basestations never simultaneously visible to the bus are assumed
//     mutually unreachable; other pairs get a uniformly random loss ratio.
//
// The real DieselNet traces (traces.cs.umass.edu) are not redistributable
// here, so GenerateDieselNet synthesizes statistically matching traces by
// driving the paper's town layouts (internal/mobility) through the
// calibrated channel model (internal/radio); DESIGN.md documents the
// substitution. The CSV codec lets users swap in the real traces if they
// have them: the format is one row per second with one reception-ratio
// column per basestation.
package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"runtime"
	"strconv"
	"sync"
	"time"

	"github.com/vanlan/vifi/internal/mobility"
	"github.com/vanlan/vifi/internal/radio"
	"github.com/vanlan/vifi/internal/sim"
)

// BeaconsPerSecond is the beacon rate assumed when converting beacon
// counts to reception ratios (100 ms beacon interval).
const BeaconsPerSecond = 10

// Trace is a per-second reception-ratio trace between one vehicle and a
// set of basestations (the DieselNet reduction).
type Trace struct {
	BSes []string
	// Ratio[s][b] is the beacon reception ratio from basestation b to the
	// vehicle during second s, in [0,1].
	Ratio [][]float64
	// CoVisible[a][b] reports whether basestations a and b were ever
	// simultaneously audible (ratio > 0 in the same second); the paper
	// deems never-co-visible pairs mutually unreachable (§5.1).
	CoVisible [][]bool
}

// Seconds returns the trace length in seconds.
func (t *Trace) Seconds() int { return len(t.Ratio) }

// NumBSes returns the number of basestations in the trace.
func (t *Trace) NumBSes() int { return len(t.BSes) }

// Validate checks structural invariants and value ranges.
func (t *Trace) Validate() error {
	nb := len(t.BSes)
	for s, row := range t.Ratio {
		if len(row) != nb {
			return fmt.Errorf("trace: second %d has %d ratios, want %d", s, len(row), nb)
		}
		for b, r := range row {
			if r < 0 || r > 1 || math.IsNaN(r) {
				return fmt.Errorf("trace: ratio out of range at second %d bs %d: %v", s, b, r)
			}
		}
	}
	if t.CoVisible != nil {
		if len(t.CoVisible) != nb {
			return fmt.Errorf("trace: co-visibility matrix is %d×?, want %d", len(t.CoVisible), nb)
		}
		for a, row := range t.CoVisible {
			if len(row) != nb {
				return fmt.Errorf("trace: co-visibility row %d has %d entries", a, len(row))
			}
		}
	}
	return nil
}

// computeCoVisibility fills CoVisible from Ratio.
func (t *Trace) computeCoVisibility() {
	nb := len(t.BSes)
	co := make([][]bool, nb)
	for i := range co {
		co[i] = make([]bool, nb)
		co[i][i] = true
	}
	for _, row := range t.Ratio {
		for a := 0; a < nb; a++ {
			if row[a] <= 0 {
				continue
			}
			for b := a + 1; b < nb; b++ {
				if row[b] > 0 {
					co[a][b] = true
					co[b][a] = true
				}
			}
		}
	}
	t.CoVisible = co
}

// VisibleCounts returns, for each second, how many basestations exceeded
// the given reception-ratio threshold — the quantity plotted in Fig 5.
// A threshold of 0 counts basestations with at least one beacon heard
// (ratio > 0).
func (t *Trace) VisibleCounts(threshold float64) []int {
	out := make([]int, len(t.Ratio))
	for s, row := range t.Ratio {
		n := 0
		for _, r := range row {
			if (threshold == 0 && r > 0) || (threshold > 0 && r >= threshold) {
				n++
			}
		}
		out[s] = n
	}
	return out
}

// ScheduleLinks returns the trace's columns as per-BS link models for the
// vehicle↔BS links (used symmetrically, as the paper does: "ignores any
// asymmetry"). Basestation b's model replays Ratio[s][b] as the reception
// probability during second s and zero beyond the trace (the paper's
// §5.1 methodology: "The beacon loss ratio from a BS to the vehicle in
// each one-second interval is used as the packet loss rate"); it reads the
// trace, so nothing is copied.
func (t *Trace) ScheduleLinks() []radio.LinkModel {
	out := make([]radio.LinkModel, len(t.BSes))
	for b := range out {
		out[b] = column{t, b}
	}
	return out
}

// column is one basestation's column of a trace as a radio.LinkModel.
type column struct {
	t *Trace
	b int
}

// ReceiveProb implements radio.LinkModel.
func (c column) ReceiveProb(at time.Duration, _ float64) float64 {
	s := int(at / time.Second)
	if s < 0 || s >= len(c.t.Ratio) {
		return 0
	}
	return c.t.Ratio[s][c.b]
}

// InterBSRatios assigns the paper's inter-BS loss model: 0 for pairs never
// co-visible, else a uniform random reception ratio in [0,1] drawn from
// rng, symmetric. The diagonal is 1.
func (t *Trace) InterBSRatios(rng *sim.RNG) [][]float64 {
	if t.CoVisible == nil {
		t.computeCoVisibility()
	}
	nb := len(t.BSes)
	m := make([][]float64, nb)
	for i := range m {
		m[i] = make([]float64, nb)
		m[i][i] = 1
	}
	for a := 0; a < nb; a++ {
		for b := a + 1; b < nb; b++ {
			var r float64
			if t.CoVisible[a][b] {
				r = rng.Float64()
			}
			m[a][b] = r
			m[b][a] = r
		}
	}
	return m
}

// Write encodes the trace as CSV: a header row ("second", BS names...)
// followed by one row per second of reception ratios.
func (t *Trace) Write(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := append([]string{"second"}, t.BSes...)
	if err := cw.Write(header); err != nil {
		return err
	}
	row := make([]string, len(t.BSes)+1)
	for s, ratios := range t.Ratio {
		row[0] = strconv.Itoa(s)
		for b, r := range ratios {
			row[b+1] = strconv.FormatFloat(r, 'f', 3, 64)
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Read decodes a CSV trace written by Write (or hand-prepared real traces
// in the same format).
func Read(r io.Reader) (*Trace, error) {
	cr := csv.NewReader(r)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if len(header) < 2 || header[0] != "second" {
		return nil, fmt.Errorf("trace: bad header %v", header)
	}
	t := &Trace{BSes: header[1:]}
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("trace: reading row: %w", err)
		}
		if len(rec) != len(header) {
			return nil, fmt.Errorf("trace: row has %d fields, want %d", len(rec), len(header))
		}
		row := make([]float64, len(t.BSes))
		for b := range row {
			v, err := strconv.ParseFloat(rec[b+1], 64)
			if err != nil {
				return nil, fmt.Errorf("trace: parsing ratio: %w", err)
			}
			row[b] = v
		}
		t.Ratio = append(t.Ratio, row)
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	t.computeCoVisibility()
	return t, nil
}

// GenerateDieselNet synthesizes a DieselNet-style trace for the given
// channel (1 or 6) by driving the town route through independent fading
// links and logging per-second beacon reception ratios, exactly as the
// instrumented bus did (§2.2). A column reads only its own link and coin
// streams and the route's stateless positions, so min(GOMAXPROCS, #BSes)
// workers synthesize contiguous blocks of columns side by side, each asking
// the route for a second's positions once for its block. The trace is the
// same at any GOMAXPROCS (DESIGN.md §6 "Trace synthesis").
func GenerateDieselNet(seed int64, channel int, duration time.Duration) *Trace {
	dn := mobility.NewDieselNet(channel)
	k := sim.NewKernel(seed)
	p := radio.DefaultParams()
	nb := len(dn.BSes)
	links := make([]*radio.FadingLink, nb)
	coins := make([]*sim.RNG, nb)
	t := &Trace{
		BSes:  make([]string, nb),
		Ratio: make([][]float64, int(duration/time.Second)),
	}
	for i := range links {
		links[i] = radio.NewFadingLink(p, k.RNG("dieselnet", fmt.Sprint(channel), fmt.Sprint(i)))
		coins[i] = k.RNG("dieselnet-coin", fmt.Sprint(channel), fmt.Sprint(i))
		t.BSes[i] = fmt.Sprintf("ch%d-bs%d", channel, i)
	}
	cells := make([]float64, len(t.Ratio)*nb)
	for s := range t.Ratio {
		t.Ratio[s] = cells[s*nb : (s+1)*nb : (s+1)*nb]
	}
	var wg sync.WaitGroup
	workers := min(runtime.GOMAXPROCS(0), nb)
	for w := range workers {
		wg.Add(1)
		go func(lo, hi int) { // the columns [lo, hi) of every row
			defer wg.Done()
			var at [BeaconsPerSecond]time.Duration
			var pos [BeaconsPerSecond]mobility.Point
			for s, row := range t.Ratio {
				for j := range at {
					at[j] = time.Duration(s)*time.Second + time.Duration(j)*100*time.Millisecond
					pos[j] = dn.Route.Position(at[j])
				}
				for b := lo; b < hi; b++ {
					link, coin, bs, heard := links[b], coins[b], dn.BSes[b], 0
					for j := range at {
						// Every beacon advances the link in order: its burst and
						// gray processes draw from one stream.
						if link.Receives(at[j], pos[j].Dist(bs), coin.Float64()) {
							heard++
						}
					}
					row[b] = float64(heard) / BeaconsPerSecond
				}
			}
		}(w*nb/workers, (w+1)*nb/workers)
	}
	wg.Wait()
	t.computeCoVisibility()
	return t
}
