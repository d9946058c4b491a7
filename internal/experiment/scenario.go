package experiment

import (
	"time"

	"github.com/vanlan/vifi/internal/stats"
)

// This file carries the constant-rate slot table: the link view of a CBR
// fleet (one 500-byte packet each way per 200 ms slot per vehicle) and of
// the §5.2 probe run, which is a fleet of one. The sweeps that read it are
// rows of the table in sweeps.go; fleetapp.go carries the runner.

// fleetWarm is the settling time before a vehicle starts measuring (one
// probability window plus anchor selection slack, as in the §5 workloads).
const fleetWarm = 2 * time.Second

// FleetRun is the slot table of one constant-rate execution — a CBR
// fleet's link view, or the §5.2 probe run as a fleet of one: per-vehicle,
// per-slot delivery outcomes for both directions. Results are shared
// through the run-cache; treat as read-only.
type FleetRun struct {
	SlotDur  time.Duration
	Duration time.Duration
	// Up[v][i] / Down[v][i] record whether vehicle v's slot-i packet was
	// delivered (upstream at the gateway, downstream at the vehicle).
	// Vehicles depart staggered, so later vehicles have fewer slots.
	Up, Down [][]bool
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
