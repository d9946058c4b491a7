package experiment

import (
	"fmt"
	"time"

	"github.com/vanlan/vifi/internal/scenario"
	"github.com/vanlan/vifi/internal/stats"
	"github.com/vanlan/vifi/internal/workload"
)

// This file carries the city-scale scaling experiments: synthetic
// environments from internal/scenario driven by a fleet-wide constant-rate
// workload, swept over fleet size (scale-fleet) and basestation density
// (scale-density). They probe the regime the ROADMAP's north star cares
// about — many vehicles contending for one channel across a large
// deployment — rather than any figure of the paper. The workload itself
// is the CBR application driver (one 500-byte packet each way per 200 ms
// slot — 5 pkt/s per direction per vehicle drives a 24-vehicle fleet to
// the channel's saturation knee); fleetapp.go carries the runner and the
// application-metric sweeps.

// fleetWarm is the settling time before a vehicle starts measuring (one
// probability window plus anchor selection slack, as in the §5 workloads).
const fleetWarm = 2 * time.Second

// FleetRun is the slot table of one constant-rate execution — a CBR
// fleet's link view, or the §5.2 probe run as a fleet of one: per-vehicle,
// per-slot delivery outcomes for both directions, plus channel-level
// counters. Results are shared through the run-cache; treat as read-only.
type FleetRun struct {
	SpecKey  string
	SlotDur  time.Duration
	Duration time.Duration
	// Up[v][i] / Down[v][i] record whether vehicle v's slot-i packet was
	// delivered (upstream at the gateway, downstream at the vehicle).
	// Vehicles depart staggered, so later vehicles have fewer slots.
	Up, Down [][]bool
	// Channel counters over the whole run.
	Transmissions int
	Collisions    int
	BSCount       int
}

// sent returns the total number of send opportunities (both directions).
func (f *FleetRun) sent() int {
	n := 0
	for _, s := range f.Up {
		n += 2 * len(s)
	}
	return n
}

// delivered returns total delivered packets (both directions).
func (f *FleetRun) delivered() int {
	n := 0
	for v := range f.Up {
		for i := range f.Up[v] {
			if f.Up[v][i] {
				n++
			}
			if f.Down[v][i] {
				n++
			}
		}
	}
	return n
}

// DeliveryRatio is the fleet-wide fraction of send opportunities that
// were delivered.
func (f *FleetRun) DeliveryRatio() float64 {
	if f.sent() == 0 {
		return 0
	}
	return float64(f.delivered()) / float64(f.sent())
}

// DeliveredPerSec is the aggregate delivered packet rate (both
// directions) over the measured duration.
func (f *FleetRun) DeliveredPerSec() float64 {
	if f.Duration <= 0 {
		return 0
	}
	return float64(f.delivered()) / f.Duration.Seconds()
}

// intervalRatios reduces vehicle v's per-slot outcomes to the combined
// up+down delivery ratio of each whole interval (a trailing partial
// interval is dropped; intervals shorter than a slot count one slot).
// Every session metric below reads this vector through stats.Sessions.
func (f *FleetRun) intervalRatios(v int, interval time.Duration) []float64 {
	spi := int(interval / f.SlotDur)
	if spi < 1 {
		spi = 1
	}
	up, down := f.Up[v], f.Down[v]
	out := make([]float64, len(up)/spi)
	for i := range out {
		hit := 0
		for j := i * spi; j < (i+1)*spi; j++ {
			if up[j] {
				hit++
			}
			if down[j] {
				hit++
			}
		}
		out[i] = float64(hit) / float64(2*spi)
	}
	return out
}

// MedianSession pools every vehicle's uninterrupted sessions (intervals
// whose combined up+down delivery ratio stays ≥ minRatio) and returns the
// time-weighted median length in seconds — the §5.2 session metric, over
// one vehicle for a probe run and the whole fleet otherwise.
func (f *FleetRun) MedianSession(interval time.Duration, minRatio float64) float64 {
	var pooled []float64
	for v := range f.Up {
		lens, _ := stats.Sessions(f.intervalRatios(v, interval), minRatio, interval.Seconds())
		pooled = append(pooled, lens...)
	}
	return stats.TimeWeightedMedian(pooled)
}

// Interruptions counts adequate→interrupted transitions across the fleet
// (1 s intervals, 50% adequacy), normalized per vehicle-hour.
func (f *FleetRun) Interruptions() float64 {
	total := 0
	hours := 0.0
	for v := range f.Up {
		ratios := f.intervalRatios(v, time.Second)
		hours += float64(len(ratios)) * time.Second.Hours()
		_, n := stats.Sessions(ratios, 0.5, 1)
		total += n
	}
	if hours == 0 {
		return 0
	}
	return float64(total) / hours
}

// baseScenario resolves the experiment's base spec: the -scenario option
// when given, otherwise the named default preset.
func (o Options) baseScenario(def string) (scenario.Spec, error) {
	src := o.Scenario
	if src == "" {
		src = def
	}
	return scenario.Parse(src)
}

// fleetRow renders one sweep arm of a scaling report.
func fleetRow(label string, run *FleetRun) []string {
	colPerK := 0.0
	if run.Transmissions > 0 {
		colPerK = 1000 * float64(run.Collisions) / float64(run.Transmissions)
	}
	return []string{
		label,
		fmt.Sprintf("%d", run.BSCount),
		fmt.Sprintf("%d", len(run.Up)),
		fmt.Sprintf("%.1f", run.DeliveredPerSec()),
		pct(run.DeliveryRatio()),
		fmt.Sprintf("%.0f", run.MedianSession(time.Second, 0.5)),
		fmt.Sprintf("%.0f", run.Interruptions()),
		fmt.Sprintf("%.0f", colPerK),
	}
}

// fleetHeader labels the sweep columns. "rx collisions" are per-receiver
// collision events (one transmission can collide at many receivers), so
// the rate can exceed 1000 — it is a congestion signal, not a fraction.
var fleetHeader = []string{"arm", "BSes", "vehicles", "delivered/s", "delivery", "median session (s)", "interrupts/veh·h", "rx collisions/1k tx"}

// ScaleFleet sweeps fleet size over a city-scale deployment: aggregate
// throughput, delivery ratio and session quality as more vehicles share
// one channel. The base scenario is grid-city (54 basestations) unless
// Options.Scenario overrides it; the sweep tops out at a 24-vehicle
// fleet. Durations scale with Options.Scale as everywhere else.
func ScaleFleet(o Options) *Report {
	r := &Report{
		ID:     "scale-fleet",
		Title:  "Fleet-size scaling on a generated city grid",
		Header: fleetHeader,
	}
	// This sweep measures link delivery, so the workload is pinned to CBR.
	runFleetSweep(r, o, "grid-city", workload.CBRKind, []int{1, 4, 8, 16, 24},
		func(s *scenario.Spec, n int) { s.Vehicles = n },
		func(n int, run *FleetAppRun) []string {
			return fleetRow(fmt.Sprintf("fleet=%d", n), run.Link)
		})
	r.AddNote("expected shape: aggregate delivered/s grows then saturates at the channel knee; per-vehicle delivery and session length degrade as the fleet contends")
	return r
}

// ScaleDensity sweeps basestation density at a fixed fleet: coverage and
// session quality versus infrastructure investment. The default base runs
// 8 vehicles; a -scenario override keeps whatever fleet size it asks for
// (only the BS count is swept).
func ScaleDensity(o Options) *Report {
	r := &Report{
		ID:     "scale-density",
		Title:  "Basestation-density scaling on a generated city grid",
		Header: fleetHeader,
	}
	// This sweep measures link delivery, so the workload is pinned to CBR.
	runFleetSweep(r, o, "grid-city,vehicles=8", workload.CBRKind, []int{14, 28, 54, 96},
		func(s *scenario.Spec, n int) { s.BS = n },
		func(n int, run *FleetAppRun) []string {
			return fleetRow(fmt.Sprintf("bs=%d", n), run.Link)
		})
	r.AddNote("expected shape: delivery ratio and session length improve with density until routes are fully covered, then flatten")
	return r
}
