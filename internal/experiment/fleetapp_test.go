package experiment

import (
	"bytes"
	"testing"
	"time"

	"github.com/vanlan/vifi/internal/core"
	"github.com/vanlan/vifi/internal/scenario"
	"github.com/vanlan/vifi/internal/workload"
)

// TestFleetAppWorkloadsRun drives each application over a compact grid
// and checks the fleet actually produces application metrics.
func TestFleetAppWorkloadsRun(t *testing.T) {
	cases := []struct {
		spec  string
		check func(t *testing.T, run *FleetAppRun)
	}{
		{"grid,app=cbr,vehicles=3", func(t *testing.T, run *FleetAppRun) {
			if run.Link == nil || len(run.Link.Up) != 3 {
				t.Fatal("cbr fleet lost its link-level rows")
			}
			if run.DeliveredPerSec() <= 0 {
				t.Error("cbr fleet delivered nothing")
			}
		}},
		{"grid,app=tcp,vehicles=3", func(t *testing.T, run *FleetAppRun) {
			a := run.Apps.App(workload.TCPKind)
			if a.Vehicles != 3 {
				t.Fatalf("tcp vehicles = %d", a.Vehicles)
			}
			if a.Completed == 0 {
				t.Error("no transfers completed across the fleet")
			}
			if run.Link != nil {
				t.Error("pure-TCP fleet grew a CBR link table")
			}
		}},
		{"grid,app=voip,vehicles=3", func(t *testing.T, run *FleetAppRun) {
			a := run.Apps.App(workload.VoIPKind)
			if a.Vehicles != 3 || a.CallWindows == 0 {
				t.Fatalf("voip summary: %+v", a)
			}
		}},
		{"grid,app=web,vehicles=3", func(t *testing.T, run *FleetAppRun) {
			a := run.Apps.App(workload.WebKind)
			if a.Vehicles != 3 {
				t.Fatalf("web vehicles = %d", a.Vehicles)
			}
			if a.Completed == 0 {
				t.Error("no pages loaded across the fleet")
			}
		}},
		{"grid,app=mixed,vehicles=4", func(t *testing.T, run *FleetAppRun) {
			total := 0
			for k := 0; k < 4; k++ {
				total += run.Apps.Apps[k].Vehicles
			}
			if total != 4 {
				t.Fatalf("mixed split assigned %d of 4 vehicles", total)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.spec, func(t *testing.T) {
			spec, err := scenario.Parse(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			run, err := RunFleetAppWorkload(7, spec, core.DefaultConfig(), 40*time.Second, 1)
			if err != nil {
				t.Fatal(err)
			}
			if run.Vehicles != spec.Vehicles || run.BSCount != spec.BS {
				t.Fatalf("run shape %d/%d, want %d/%d", run.BSCount, run.Vehicles, spec.BS, spec.Vehicles)
			}
			if run.Transmissions == 0 {
				t.Fatal("no channel activity")
			}
			tc.check(t, run)
		})
	}
}

// TestFleetAppDeterminism pins the application runner directly: two
// executions of a mixed fleet agree on every per-vehicle metric.
func TestFleetAppDeterminism(t *testing.T) {
	spec, _ := scenario.Parse("grid,app=mixed,vehicles=4")
	run := func() *FleetAppRun {
		r, err := RunFleetAppWorkload(19, spec, core.DefaultConfig(), 30*time.Second, 1)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(), run()
	if a.Transmissions != b.Transmissions || a.Collisions != b.Collisions {
		t.Errorf("channel counters diverged: %d/%d vs %d/%d",
			a.Transmissions, a.Collisions, b.Transmissions, b.Collisions)
	}
	for i := range a.PerVehicle {
		ma, mb := a.PerVehicle[i], b.PerVehicle[i]
		if ma.App != mb.App || ma.Completed != mb.Completed || ma.Aborted != mb.Aborted ||
			ma.VoIP.MeanMoS != mb.VoIP.MeanMoS || len(ma.Up) != len(mb.Up) {
			t.Errorf("vehicle %d diverged: %+v vs %+v", i, ma, mb)
		}
	}
}

// TestRunFleetWorkloadMatchesCBRApp pins the constant-rate view: the Link
// of a spec forced to CBR is exactly the default (CBR) application run.
func TestRunFleetWorkloadMatchesCBRApp(t *testing.T) {
	spec, _ := scenario.Parse("grid-small,vehicles=4")
	forced, err := RunFleetAppWorkload(9, forceApp(spec, workload.CBRKind), core.DefaultConfig(), 20*time.Second, 1)
	if err != nil {
		t.Fatal(err)
	}
	link := forced.Link
	app, err := RunFleetAppWorkload(9, spec, core.DefaultConfig(), 20*time.Second, 1)
	if err != nil {
		t.Fatal(err)
	}
	if link.DeliveryRatio() != app.DeliveryRatio() ||
		forced.Transmissions != app.Transmissions ||
		link.DeliveredPerSec() != app.DeliveredPerSec() {
		t.Errorf("wrapper diverged from CBR app run: %v/%d vs %v/%d",
			link.DeliveryRatio(), forced.Transmissions, app.DeliveryRatio(), app.Transmissions)
	}
	if len(link.Up) != 4 {
		t.Errorf("link rows = %d, want one per vehicle", len(link.Up))
	}
}

// TestFleetReportGolden pins the rendered report of a mixed city fleet —
// the one path that runs the Web and TCP drivers side by side, next to
// CBR and VoIP — across code versions (-update-golden to refresh
// deliberately). It is the command
// `vifi-sim -scenario grid-city,app=mixed -duration 30s -seed 7`.
func TestFleetReportGolden(t *testing.T) {
	const (
		seed = 7
		dur  = 30 * time.Second
	)
	spec, err := scenario.Parse("grid-city,app=mixed")
	if err != nil {
		t.Fatal(err)
	}
	run, err := RunFleetAppWorkload(seed, spec, core.DefaultConfig(), dur, 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	FprintFleetReport(&buf, run, "vifi", dur, seed)
	goldenBytes(t, "fleet-mixed", buf.String())
}
