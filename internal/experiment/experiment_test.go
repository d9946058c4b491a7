package experiment

import (
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/vanlan/vifi/internal/core"
	"github.com/vanlan/vifi/internal/mobility"
	"github.com/vanlan/vifi/internal/radio"
	"github.com/vanlan/vifi/internal/sim"
	"github.com/vanlan/vifi/internal/stats"
	"github.com/vanlan/vifi/internal/workload"
)

// tiny returns options small enough for CI while still exercising every
// code path.
func tiny() Options { return Options{Seed: 7, Scale: 0.08} }

func TestReportRendering(t *testing.T) {
	r := &Report{ID: "x", Title: "T", Header: []string{"a", "bb"}}
	r.AddRow("1", "2")
	r.AddNote("hello %d", 5)
	s := r.String()
	for _, want := range []string{"== x: T ==", "a", "bb", "note: hello 5"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendering missing %q:\n%s", want, s)
		}
	}
}

func TestRegistryComplete(t *testing.T) {
	// Executing every id is TestReports' job; here, that a registered id
	// runs even on zero Options and an unknown one does not.
	if _, err := Run(PaperOrder()[0], Options{}); err != nil {
		t.Errorf("paper experiment %s missing: %v", PaperOrder()[0], err)
	}
	if _, err := Run("nope", tiny()); err == nil {
		t.Error("unknown id accepted")
	}
	ids := IDs()
	if len(ids) < len(PaperOrder()) {
		t.Errorf("registry has %d ids, need at least %d", len(ids), len(PaperOrder()))
	}
}

func TestScaledFloor(t *testing.T) {
	o := Options{Scale: 0.001}
	if got := o.scaled(10); got != 1 {
		t.Errorf("scaled floor = %d, want 1", got)
	}
	o = Options{Scale: 2}
	if got := o.scaled(10); got != 20 {
		t.Errorf("scaled = %d, want 20", got)
	}
}

func TestFig2ShapeTiny(t *testing.T) {
	r := Fig2(tiny())
	if len(r.Rows) != 6 {
		t.Fatalf("fig2 rows = %d, want 6 BS densities", len(r.Rows))
	}
	if len(r.Header) != 7 {
		t.Fatalf("fig2 header = %v", r.Header)
	}
}

// parsePct reads a "12.3%" cell.
func parsePct(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(s), "%"), 64)
	if err != nil {
		t.Fatalf("bad percentage cell %q: %v", s, err)
	}
	return v
}

func TestFig5CDFsMonotone(t *testing.T) {
	r := Fig5(tiny())
	// Each CDF column must be non-decreasing down the rows.
	prev := make([]float64, 6)
	for _, row := range r.Rows {
		for c := 1; c < len(row); c++ {
			v := parsePct(t, row[c])
			if v < prev[c-1]-1e-9 {
				t.Errorf("CDF column %d decreases at row %v", c, row)
			}
			prev[c-1] = v
		}
	}
}

func TestFig6BurstShape(t *testing.T) {
	r := Fig6(Options{Seed: 3, Scale: 0.2})
	// Row 1 is P(loss|loss,k=1): must exceed the unconditional loss in
	// row 0.
	uncond := parsePct(t, r.Rows[0][1])
	c1 := parsePct(t, r.Rows[1][1])
	if c1 <= uncond {
		t.Errorf("burstiness absent: c1=%v uncond=%v", c1, uncond)
	}
}

// TestSlotTableReductions pins the one interval-adequacy vector under
// every session metric — MedianSession, Interruptions and Fig 8's
// timeline (its adequacy row is these ratios thresholded at 0.5, its
// count row is stats.Sessions' interruptions) — against hand-computed
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
		run           FleetRun
		interval      time.Duration
		ratios        [][]float64 // per vehicle, at interval
		interrupts    []int       // per vehicle, at interval and 0.5
		median        float64     // MedianSession(interval, 0.5)
		interruptions float64     // Interruptions(): 1 s intervals per vehicle-hour
	}{
		{
			// A probe run: one vehicle, 100 ms slots, five per interval.
			name: "one vehicle",
			run: FleetRun{SlotDur: 100 * time.Millisecond,
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
			run: FleetRun{SlotDur: 200 * time.Millisecond,
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
			run: FleetRun{SlotDur: 200 * time.Millisecond,
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
			run:      FleetRun{SlotDur: 200 * time.Millisecond},
			interval: time.Second,
		},
		{
			// Vehicles that departed after the run's end.
			name: "empty rows",
			run: FleetRun{SlotDur: 200 * time.Millisecond,
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
			if _, n := stats.Sessions(got, 0.5, tc.interval.Seconds()); n != tc.interrupts[v] {
				t.Errorf("%s: vehicle %d interruptions = %d, want %d", tc.name, v, n, tc.interrupts[v])
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

func TestMedianTimeWeightedHelper(t *testing.T) {
	if got := stats.TimeWeightedMedian(nil); got != 0 {
		t.Errorf("empty = %v", got)
	}
	if got := stats.TimeWeightedMedian([]float64{1, 1, 8}); got != 8 {
		t.Errorf("weighted median = %v, want 8", got)
	}
}

// testbed runs one default-protocol testbed job on a fresh engine.
func testbed(seed int64, env Env, kind workload.Kind, dur time.Duration, collect bool) *TestbedRun {
	return NewEngine(1).Testbed(seed, env, kind, core.DefaultConfig(), dur, collect).Wait()
}

func TestCollectorTable1Pipeline(t *testing.T) {
	// A miniature TCP run must populate every Table 1 statistic without
	// NaNs or out-of-range values.
	run := testbed(11, EnvVanLAN, workload.TCPKind, 60*time.Second, true)
	for _, dir := range []core.Direction{core.Up, core.Down} {
		s := run.Collector.Stats(dir)
		if s.SourceTransmissions == 0 {
			t.Fatalf("%v: no source transmissions recorded", dir)
		}
		for name, v := range map[string]float64{
			"direct":  s.DirectSuccess,
			"failed":  s.FailedOverheard,
			"fn":      s.FalseNegativeRate,
			"relayed": s.RelayDelivery,
		} {
			if v < 0 || v > 1 {
				t.Errorf("%v %s out of range: %v", dir, name, v)
			}
		}
		if s.MeanAuxHeard < 0 || s.MeanAuxContending > s.MeanAuxHeard+1e-9 {
			t.Errorf("%v aux counters inconsistent: heard=%v contending=%v",
				dir, s.MeanAuxHeard, s.MeanAuxContending)
		}
	}
	if run.Collector.MedianAuxCount() < 0 {
		t.Error("negative aux count")
	}
}

func TestEfficiencyBounds(t *testing.T) {
	run := testbed(12, EnvVanLAN, workload.TCPKind, 60*time.Second, true)
	for _, dir := range []core.Direction{core.Up, core.Down} {
		e := run.Collector.Efficiency(dir)
		p := run.Collector.PerfectRelayEfficiency(dir)
		if e < 0 || e > 1.2 {
			t.Errorf("%v efficiency = %v", dir, e)
		}
		if p < 0 || p > 1.2 {
			t.Errorf("%v perfect-relay efficiency = %v", dir, p)
		}
	}
}

func TestVoIPWorkloadRuns(t *testing.T) {
	q := testbed(13, EnvVanLAN, workload.VoIPKind, 90*time.Second, false).VoIP
	if q.Windows == 0 {
		t.Fatal("no VoIP windows scored")
	}
	if q.MeanMoS < 1 || q.MeanMoS > 4.5 {
		t.Errorf("mean MoS = %v", q.MeanMoS)
	}
}

func TestProbeWorkloadTraceDriven(t *testing.T) {
	run := testbed(14, EnvDieselNetCh1, workload.CBRKind, 60*time.Second, false).Link()
	if len(run.Up) != 1 || len(run.Up[0]) == 0 || len(run.Down[0]) == 0 {
		t.Fatal("probe run empty")
	}
	anyUp := false
	for _, ok := range run.Up[0] {
		if ok {
			anyUp = true
			break
		}
	}
	if !anyUp {
		t.Error("no upstream probe ever delivered on the trace")
	}
}

func TestEnvString(t *testing.T) {
	if EnvVanLAN.String() != "VanLAN" || EnvDieselNetCh6.String() != "DieselNet Ch.6" {
		t.Error("env strings wrong")
	}
}

// TestPaperCellsIgnoreTheCutoff: in the VanLAN cell no (transmitter,
// receiver) pair is ever beyond the channel cutoff or beyond its link's own
// reach, at any seed a golden, the CI cmp or the benchmark runs it at
// (fig11's replicates add i·977). So the grid skips nothing a full sweep
// would decide, and the paper figures' bytes are a property of the
// geometry, not of luck. The basestations
// are fixed; the vehicle's farthest point from a basestation on a segment
// of the loop is one of its ends, so the waypoints bound every distance
// the run can see. A link's reach follows from its shadowing, drawn from
// the link stream the channel seeds with the labels ("link", from, to).
// NewCell attaches the basestations first and the vehicle last.
func TestPaperCellsIgnoreTheCutoff(t *testing.T) {
	p := core.DefaultCellOptions().Radio
	cutoff := p.CutoffM()
	v := mobility.NewVanLAN()
	veh := len(v.BSes)
	farthest := func(from, to int) float64 {
		if from == veh {
			from, to = to, from
		}
		if to != veh {
			return v.BSes[from].Dist(v.BSes[to])
		}
		d := 0.0
		for _, w := range v.Route.Waypoints {
			d = max(d, v.BSes[from].Dist(w))
		}
		return d
	}
	seeds := []int64{17, 42}
	for s := int64(0); s < 16; s++ {
		seeds = append(seeds, 3000+s, 5000+s)
	}
	slack := math.Inf(1)
	for _, base := range seeds {
		for i := int64(0); i < 3; i++ {
			seed := base + i*977
			k := sim.NewKernel(seed)
			for from := 0; from <= veh; from++ {
				for to := 0; to <= veh; to++ {
					if from == to {
						continue
					}
					d := farthest(from, to)
					reach := radio.NewFadingLink(p, k.RNG("link", strconv.Itoa(from), strconv.Itoa(to))).MaxRangeM()
					if d > cutoff || d > reach {
						t.Fatalf("seed %d: link %d→%d reaches %.0f m, beyond the %.0f m cutoff or its %.0f m reach",
							seed, from, to, d, cutoff, reach)
					}
					slack = min(slack, cutoff-d, reach-d)
				}
			}
		}
	}
	t.Logf("%d seeds: every VanLAN pair stays at least %.0f m inside the cutoff and its link's reach", len(seeds)*3, slack)
}
