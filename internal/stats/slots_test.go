package stats

import (
	"math"
	"reflect"
	"testing"
	"time"
)

// TestSlotTableReductions pins the one interval-adequacy vector under
// every session metric — Sessions, MedianSession, Interruptions and the
// Fig 3/Fig 8 Timeline (its adequacy row is the 1 s ratios thresholded at
// 0.5, its count is Sessions' interruptions) — against hand-computed
// values.
func TestSlotTableReductions(t *testing.T) {
	rep := func(n int, v bool) []bool {
		out := make([]bool, n)
		for i := range out {
			out[i] = v
		}
		return out
	}
	cat := func(parts ...[]bool) []bool {
		var out []bool
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	T, F := true, false
	for _, tc := range []struct {
		name          string
		run           SlotTable
		interval      time.Duration
		ratios        [][]float64 // per vehicle, at interval
		interrupts    []int       // per vehicle, at interval and 0.5
		median        float64     // MedianSession(interval, 0.5)
		interruptions float64     // Interruptions(): 1 s intervals per vehicle-hour
	}{
		{
			// A probe run: one vehicle, 100 ms slots, five per interval.
			name: "one vehicle",
			run: SlotTable{SlotDur: 100 * time.Millisecond,
				Up:   [][]bool{{T, T, F, F, T, T, T, T, F, F}},
				Down: [][]bool{{T, T, T, T, T, T, T, T, F, F}}},
			interval:   500 * time.Millisecond,
			ratios:     [][]float64{{0.8, 0.6}},
			interrupts: []int{0},
			median:     1.0, // one session of two intervals
			// One whole second at 14/20: adequate, no interruption.
			interruptions: 0,
		},
		{
			// Staggered departures leave later vehicles shorter rows:
			// 10, 7 and 25 slots of 200 ms. Trailing partial intervals
			// (v1's last two slots) are dropped.
			name: "ragged fleet",
			run: SlotTable{SlotDur: 200 * time.Millisecond,
				Up: [][]bool{
					cat(rep(5, T), rep(5, F)),
					{F, F, F, F, F, T, T},
					cat(rep(7, T), rep(3, F), rep(15, T)),
				},
				Down: [][]bool{
					cat(rep(5, T), rep(5, F)),
					{F, F, F, F, T, T, T},
					cat(rep(5, T), rep(5, F), rep(15, T)),
				}},
			interval:   time.Second,
			ratios:     [][]float64{{1, 0}, {0.1}, {1, 0.2, 1, 1, 1}},
			interrupts: []int{1, 1, 1}, // v1 opens inadequate: that counts
			median:     3,              // sessions 1 s, 1 s, 3 s: half of 5 s falls in the 3 s one
			// 3 interruptions over 2+1+5 whole vehicle-seconds.
			interruptions: 3 / (8.0 / 3600),
		},
		{
			// An interval shorter than a slot counts one slot per
			// interval; session lengths are still in interval units.
			name: "interval below slot",
			run: SlotTable{SlotDur: 200 * time.Millisecond,
				Up:   [][]bool{{T, F, T, T}},
				Down: [][]bool{{T, F, F, T}}},
			interval:   100 * time.Millisecond,
			ratios:     [][]float64{{1, 0, 0.5, 1}},
			interrupts: []int{1},
			median:     0.2, // sessions 0.1 s and 0.2 s
			// Four slots make no whole second: no vehicle-hours.
			interruptions: 0,
		},
		{
			name:     "no vehicles",
			run:      SlotTable{SlotDur: 200 * time.Millisecond},
			interval: time.Second,
		},
		{
			// Vehicles that departed after the run's end.
			name: "empty rows",
			run: SlotTable{SlotDur: 200 * time.Millisecond,
				Up: [][]bool{{}, {}}, Down: [][]bool{{}, {}}},
			interval:   time.Second,
			ratios:     [][]float64{{}, {}},
			interrupts: []int{0, 0},
		},
	} {
		for v := range tc.run.Up {
			got := tc.run.intervalRatios(v, tc.interval)
			if !reflect.DeepEqual(got, tc.ratios[v]) {
				t.Errorf("%s: vehicle %d ratios = %v, want %v", tc.name, v, got, tc.ratios[v])
			}
			if _, n := Sessions(got, 0.5, tc.interval.Seconds()); n != tc.interrupts[v] {
				t.Errorf("%s: vehicle %d interruptions = %d, want %d", tc.name, v, n, tc.interrupts[v])
			}
			if tc.interval != time.Second {
				continue
			}
			adequate, n := tc.run.Timeline(v)
			for i, ok := range adequate {
				if ok != (got[i] >= 0.5) {
					t.Errorf("%s: vehicle %d timeline cell %d = %v at ratio %v", tc.name, v, i, ok, got[i])
				}
			}
			if len(adequate) != len(got) || n != tc.interrupts[v] {
				t.Errorf("%s: vehicle %d timeline %v with %d interruptions", tc.name, v, adequate, n)
			}
		}
		if got := tc.run.MedianSession(tc.interval, 0.5); got != tc.median {
			t.Errorf("%s: median session = %v, want %v", tc.name, got, tc.median)
		}
		if got := tc.run.Interruptions(); math.Abs(got-tc.interruptions) > 1e-9*tc.interruptions {
			t.Errorf("%s: interruptions/veh·h = %v, want %v", tc.name, got, tc.interruptions)
		}
	}
}
