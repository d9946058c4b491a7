package stats

import "time"

// SlotTable is the per-slot delivery record the session metric is read
// from: one row per vehicle of a live run (a CBR fleet, or the §5.2 probe
// run as a fleet of one) or per trip of a handoff policy replayed over a
// probe trace, each slot saying whether its upstream and its downstream
// packet got through. It is the one place slots are cut into intervals:
// an interval is a whole number of slots counted from the start of its
// row, and a row's trailing partial interval is dropped. Tables are
// shared through the run-cache; treat them as read-only.
type SlotTable struct {
	SlotDur  time.Duration
	Duration time.Duration
	// Up[r][i] / Down[r][i] record whether row r's slot-i packet was
	// delivered (upstream at the gateway, downstream at the vehicle).
	// Rows may differ in length: fleet vehicles depart staggered, and a
	// trace's last trip may be short.
	Up, Down [][]bool
}

// sent returns the total number of send opportunities (both directions).
func (t *SlotTable) sent() int {
	n := 0
	for _, s := range t.Up {
		n += 2 * len(s)
	}
	return n
}

// Delivered returns the total delivered packets (both directions).
func (t *SlotTable) Delivered() int {
	n := 0
	for r := range t.Up {
		for i := range t.Up[r] {
			if t.Up[r][i] {
				n++
			}
			if t.Down[r][i] {
				n++
			}
		}
	}
	return n
}

// DeliveryRatio is the table-wide fraction of send opportunities that
// were delivered.
func (t *SlotTable) DeliveryRatio() float64 {
	if t.sent() == 0 {
		return 0
	}
	return float64(t.Delivered()) / float64(t.sent())
}

// DeliveredPerSec is the aggregate delivered packet rate (both
// directions) over the measured duration.
func (t *SlotTable) DeliveredPerSec() float64 {
	if t.Duration <= 0 {
		return 0
	}
	return float64(t.Delivered()) / t.Duration.Seconds()
}

// intervalRatios reduces row r's per-slot outcomes to the combined
// up+down delivery ratio of each whole interval (a trailing partial
// interval is dropped; intervals shorter than a slot count one slot).
// Every session metric below reads this vector through Sessions.
func (t *SlotTable) intervalRatios(r int, interval time.Duration) []float64 {
	spi := int(interval / t.SlotDur)
	if spi < 1 {
		spi = 1
	}
	up, down := t.Up[r], t.Down[r]
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

// Sessions pools every row's uninterrupted sessions, in row order: the
// lengths in seconds of the maximal runs of intervals whose combined
// up+down delivery ratio stays ≥ minRatio. A session never spans two
// rows.
func (t *SlotTable) Sessions(interval time.Duration, minRatio float64) []float64 {
	var pooled []float64
	for r := range t.Up {
		lens, _ := Sessions(t.intervalRatios(r, interval), minRatio, interval.Seconds())
		pooled = append(pooled, lens...)
	}
	return pooled
}

// MedianSession returns the time-weighted median of Sessions — the
// session metric of §3.3, §5.2 and Fig 7, over one vehicle for a probe
// run, the whole fleet for a CBR fleet and every trip for a replay.
func (t *SlotTable) MedianSession(interval time.Duration, minRatio float64) float64 {
	return TimeWeightedMedian(t.Sessions(interval, minRatio))
}

// Timeline returns row r's connectivity at the interruption definition
// (1 s intervals, 50 % adequacy): whether each second was adequate, and
// how many adequate→interrupted transitions the row has — the trip
// timelines of Fig 3a–c and Fig 8.
func (t *SlotTable) Timeline(r int) (adequate []bool, interruptions int) {
	ratios := t.intervalRatios(r, time.Second)
	adequate = make([]bool, len(ratios))
	for i, ratio := range ratios {
		adequate[i] = ratio >= 0.5
	}
	_, interruptions = Sessions(ratios, 0.5, 1)
	return adequate, interruptions
}

// Interruptions counts adequate→interrupted transitions across the table
// (1 s intervals, 50 % adequacy), normalized per row-hour of whole
// intervals.
func (t *SlotTable) Interruptions() float64 {
	total := 0
	hours := 0.0
	for r := range t.Up {
		adequate, n := t.Timeline(r)
		hours += float64(len(adequate)) * time.Second.Hours()
		total += n
	}
	if hours == 0 {
		return 0
	}
	return float64(total) / hours
}
