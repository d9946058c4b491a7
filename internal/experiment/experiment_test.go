package experiment

import (
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/vanlan/vifi/internal/core"
	"github.com/vanlan/vifi/internal/handoff"
	"github.com/vanlan/vifi/internal/mobility"
	"github.com/vanlan/vifi/internal/radio"
	"github.com/vanlan/vifi/internal/sim"
	"github.com/vanlan/vifi/internal/stats"
	"github.com/vanlan/vifi/internal/trace"
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

// TestReplayReadsLikeALiveRun holds trace replay and live runs to one
// reducer: a one-basestation probe trace whose per-slot outcomes are a
// live probe run's row, one VanLAN trip long, replayed under AllBSes must
// read exactly as the live slot table does at every interval Fig 4
// sweeps — sessions, median and interruptions.
func TestReplayReadsLikeALiveRun(t *testing.T) {
	const tripSlots = 2071 // a VanLAN lap in 100 ms slots
	probe := testbedSpec("vanlan", workload.CBRKind)
	live := NewEngine(1).FleetApp(21, probe, core.DefaultConfig(), fleetWarm+tripSlots*probe.AppConfig().CBRSlot, 1).Wait().Link
	up, down := live.Up[0], live.Down[0]
	if len(up) != tripSlots {
		t.Fatalf("live row has %d slots, want %d", len(up), tripSlots)
	}
	pt := &trace.ProbeTrace{BSes: []string{"bs0"}, SlotDur: live.SlotDur, Slots: tripSlots, SlotsPerTrip: tripSlots}
	for s := range up {
		pt.Up = append(pt.Up, []bool{up[s]})
		pt.Down = append(pt.Down, []bool{down[s]})
		pt.RSSI = append(pt.RSSI, []float64{math.NaN()})
		pt.Pos = append(pt.Pos, mobility.Point{})
	}
	if err := pt.Validate(); err != nil {
		t.Fatal(err)
	}
	replay := handoff.Evaluate(pt, handoff.NewAllBSes())
	for _, iv := range []time.Duration{500 * time.Millisecond, time.Second,
		2 * time.Second, 4 * time.Second, 8 * time.Second, 16 * time.Second} {
		if got, want := replay.Sessions(iv, 0.5), live.Sessions(iv, 0.5); !slices.Equal(got, want) {
			t.Errorf("%v: replayed sessions %v, live %v", iv, got, want)
		}
		if got, want := replay.MedianSession(iv, 0.5), live.MedianSession(iv, 0.5); got != want {
			t.Errorf("%v: replayed median %v s, live %v s", iv, got, want)
		}
	}
	if got, want := replay.Interruptions(), live.Interruptions(); got != want || want == 0 {
		t.Errorf("replayed interruptions %v per hour, live %v", got, want)
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

// paperRun runs one default-protocol testbed preset on a fresh engine.
func paperRun(seed int64, preset string, app workload.Kind, dur time.Duration, collect bool) *FleetAppRun {
	return NewEngine(1).fleetApp(seed, testbedSpec(preset, app), core.DefaultConfig(), dur, 1, collect).Wait()
}

// TestRunLongerThanTrace: a DieselNet run asked for more than its
// one-hour trace runs the trace's hour and says so — FleetAppRun.Duration,
// the probe's slots and the report header all carry the hour, not the
// two requested.
func TestRunLongerThanTrace(t *testing.T) {
	run := paperRun(7, "dieselnet1", workload.CBRKind, 2*time.Hour, false)
	m := run.PerVehicle[0]
	if span := time.Hour - fleetWarm; run.Duration != time.Hour || m.Span != span || len(m.Up) != int(span/m.Slot) {
		t.Errorf("duration %v, span %v, %d slots of %v; want 1h, %v, %d", run.Duration, m.Span, len(m.Up), m.Slot, span, int(span/m.Slot))
	}
	var buf strings.Builder
	FprintFleetReport(&buf, run, "vifi", 2*time.Hour, 7)
	if header, _, _ := strings.Cut(buf.String(), "\n"); !strings.Contains(header, " duration=1h0m0s ") {
		t.Errorf("report header %q, want duration=1h0m0s", header)
	}
}

func TestCollectorTable1Pipeline(t *testing.T) {
	// A miniature TCP run must populate every Table 1 statistic without
	// NaNs or out-of-range values.
	run := paperRun(11, "vanlan", workload.TCPKind, 60*time.Second, true)
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
	run := paperRun(12, "vanlan", workload.TCPKind, 60*time.Second, true)
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
	q := paperRun(13, "vanlan", workload.VoIPKind, 90*time.Second, false).PerVehicle[0].VoIP
	if q.Windows == 0 {
		t.Fatal("no VoIP windows scored")
	}
	if q.MeanMoS < 1 || q.MeanMoS > 4.5 {
		t.Errorf("mean MoS = %v", q.MeanMoS)
	}
}

func TestProbeWorkloadTraceDriven(t *testing.T) {
	run := paperRun(14, "dieselnet1", workload.CBRKind, 60*time.Second, false).Link
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
