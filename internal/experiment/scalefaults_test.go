package experiment

import (
	"testing"
	"time"

	"github.com/vanlan/vifi/internal/core"
	"github.com/vanlan/vifi/internal/fault"
	"github.com/vanlan/vifi/internal/scenario"
	"github.com/vanlan/vifi/internal/sim"
)

// TestFaultedRunInjectsAndRecovers pins the sweep's substance at test
// scale: the faulted run actually injects basestation outages, the
// report attributes them, and the fleet keeps delivering — availability
// stays positive and every completed restore eventually recovers.
func TestFaultedRunInjectsAndRecovers(t *testing.T) {
	spec, err := scenario.Parse("grid-city,vehicles=8,app=voip,faults=bs:mtbf=30s:mttr=4s")
	if err != nil {
		t.Fatal(err)
	}
	run, err := RunFleetAppWorkload(17, spec, core.DefaultConfig(), 30*time.Second, 1)
	if err != nil {
		t.Fatal(err)
	}
	f := run.Faults
	if f == nil {
		t.Fatal("faulted spec produced a nil FaultReport")
	}
	if f.Windows[fault.LayerBS] == 0 {
		t.Fatal("no basestation outages injected at mtbf=30s over 30s on a city grid")
	}
	if f.DownSec[fault.LayerBS] <= 0 {
		t.Error("outages injected but zero downtime recorded")
	}
	if f.Availability <= 0 || f.Availability > 1 {
		t.Errorf("availability = %v, want (0,1]", f.Availability)
	}
	if f.Restores > 0 && f.Recovered == 0 {
		t.Error("restores completed but no delivery ever followed (wedged after restore)")
	}
	if f.GapBinsFault > f.GapBins {
		t.Errorf("fault-attributed gaps %d exceed total gaps %d", f.GapBinsFault, f.GapBins)
	}
}

// TestUnfaultedRunHasNilFaultReport pins the golden-safety contract:
// without a faults= knob the run carries no fault report and its spec
// key is byte-identical to the historical format.
func TestUnfaultedRunHasNilFaultReport(t *testing.T) {
	spec, err := scenario.Parse("grid-small,vehicles=2,app=voip")
	if err != nil {
		t.Fatal(err)
	}
	run, err := RunFleetAppWorkload(17, spec, core.DefaultConfig(), 5*time.Second, 1)
	if err != nil {
		t.Fatal(err)
	}
	if run.Faults != nil {
		t.Error("fault-free run carries a FaultReport")
	}
}

// TestSilentFaultedRunCountsEveryBin: a faulted run that delivered nothing
// is silent in every one-second bin, and the silent bins an outage
// overlaps are attributed to it — zero availability never comes with zero
// silent bins.
func TestSilentFaultedRunCountsEveryBin(t *testing.T) {
	r := newFaultRecorder(sim.NewKernel(1), 10*time.Second) // bins 0…11
	tl := fault.Timeline{Outages: []fault.Outage{
		{Layer: fault.LayerBS, Start: 2500 * time.Millisecond, End: 4 * time.Second}, // bins 2 and 3
	}}
	rep := r.report(tl)
	if rep.Availability != 0 || rep.GapBins != 12 || rep.GapBinsFault != 2 {
		t.Errorf("silent run: availability %v, %d silent bins, %d fault-attributable; want 0, 12, 2",
			rep.Availability, rep.GapBins, rep.GapBinsFault)
	}

	spec, err := scenario.Parse("dieselnet1,faults=chaos,app=tcp")
	if err != nil {
		t.Fatal(err)
	}
	run, err := RunFleetAppWorkload(1, spec, core.DefaultConfig(), 30*time.Second, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The bus spends these 30 s short of the covered town core, so the run
	// never delivers: all 32 bins (30 s plus the drain) are silent.
	if f := run.Faults; f.Availability != 0 || f.GapBins != 32 || f.GapBinsFault == 0 {
		t.Errorf("silent DieselNet run: %+v, want availability 0 over 32 silent bins, some fault-attributable", f)
	}
}

// TestNonPositiveDurationIsAnError: a run needs simulated time. A zero or
// negative duration is an error returned before anything is built — on a
// faulted spec too, whose fault recorder is sized by the duration.
func TestNonPositiveDurationIsAnError(t *testing.T) {
	spec, err := scenario.Parse("grid,faults=chaos")
	if err != nil {
		t.Fatal(err)
	}
	for _, dur := range []time.Duration{0, -5 * time.Second} {
		if l, err := StartLiveRun(1, spec, core.DefaultConfig(), dur, 1, time.Second, nil); err == nil || l != nil {
			t.Errorf("StartLiveRun(duration %v) = %v, %v; want an error", dur, l, err)
		}
		if run, err := RunFleetAppWorkload(1, spec, core.DefaultConfig(), dur, 1); err == nil || run != nil {
			t.Errorf("RunFleetAppWorkload(duration %v) = %v, %v; want an error", dur, run, err)
		}
	}
}
