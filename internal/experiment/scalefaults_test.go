package experiment

import (
	"testing"
	"time"

	"github.com/vanlan/vifi/internal/core"
	"github.com/vanlan/vifi/internal/fault"
	"github.com/vanlan/vifi/internal/scenario"
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
