package vifi

import (
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestFacadeVoIP(t *testing.T) {
	q := NewVanLAN(1, DefaultProtocol()).RunVoIP(60 * time.Second)
	if q.Windows == 0 {
		t.Fatal("no VoIP windows")
	}
	if q.MeanMoS < 1 || q.MeanMoS > 4.5 {
		t.Errorf("MoS out of range: %v", q.MeanMoS)
	}
}

func TestFacadeTCPDeterminism(t *testing.T) {
	a := NewVanLAN(9, HardHandoff()).RunTCP(60 * time.Second)
	b := NewVanLAN(9, HardHandoff()).RunTCP(60 * time.Second)
	if a.Completed != b.Completed || a.Aborted != b.Aborted {
		t.Errorf("same seed diverged: %d/%d vs %d/%d",
			a.Completed, a.Aborted, b.Completed, b.Aborted)
	}
	c := NewVanLAN(10, HardHandoff()).RunTCP(60 * time.Second)
	if c.Completed == a.Completed && slices.Equal(c.TransferSecs, a.TransferSecs) {
		t.Error("different seeds produced identical runs")
	}
}

func TestFacadeDieselNet(t *testing.T) {
	q := NewDieselNet(2, 1, DefaultProtocol()).RunVoIP(45 * time.Second)
	if q.Windows == 0 {
		t.Fatal("trace-driven run produced nothing")
	}
	defer func() {
		if recover() == nil {
			t.Error("channel 3 accepted")
		}
	}()
	NewDieselNet(2, 3, DefaultProtocol())
}

func TestFacadeExperiment(t *testing.T) {
	out, err := Experiment("fig6", 3, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "fig6") {
		t.Errorf("report looks wrong:\n%s", out)
	}
	if _, err := Experiment("figX", 3, 1); err == nil {
		t.Error("unknown experiment accepted")
	}
	if len(Experiments()) < 13 {
		t.Errorf("only %d experiments registered", len(Experiments()))
	}
}

func TestFacadeTrace(t *testing.T) {
	tr := GenerateDieselNetTrace(4, 6, time.Minute)
	if tr.NumBSes() != 14 || tr.Seconds() != 60 {
		t.Errorf("trace shape: %d BSes, %d s", tr.NumBSes(), tr.Seconds())
	}
}

func TestFacadeCustomCell(t *testing.T) {
	k := NewKernel(5)
	cell := NewCell(k, DefaultCellOptions(),
		[]Mover{Fixed{X: 0}, Fixed{X: 120}},
		&RouteMover{Route: NewRoute([]Point{{X: 0}, {X: 300}}, 10, true)})
	k.RunUntil(5 * time.Second)
	if cell.Vehicle.Anchor() == 0xFFFE {
		t.Error("vehicle never anchored in a 2-BS cell")
	}
}

func TestFacadeScenario(t *testing.T) {
	if _, err := NewScenario(1, "no-such", DefaultProtocol()); err == nil {
		t.Error("unknown preset accepted")
	}
	d, err := NewScenario(9, "grid-small,vehicles=3", DefaultProtocol())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.RunFleet(0); err == nil {
		t.Error("a zero-duration fleet run was accepted")
	}
	run, err := d.RunFleet(15 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if run.BSCount != 12 || run.Vehicles != 3 {
		t.Errorf("fleet shape: %d BSes, %d vehicles", run.BSCount, run.Vehicles)
	}
	if run.DeliveredPerSec() <= 0 {
		t.Error("fleet delivered nothing")
	}
	if len(ScenarioPresets()) < 4 {
		t.Error("presets missing")
	}
	// An application spec returns per-app stats through the same facade.
	app, err := NewScenario(9, "grid,app=voip,vehicles=3", DefaultProtocol())
	if err != nil {
		t.Fatal(err)
	}
	vrun, err := app.RunFleet(20 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if s := vrun.Apps.App(VoIPApp); s.Vehicles != 3 || s.CallWindows == 0 {
		t.Errorf("voip fleet summary: %+v", s)
	}
}

// TestFacadeTestbedIsAScenario: a testbed deployment is its preset run as
// a fleet of one, so NewVanLAN's call and the vanlan,app=voip scenario's
// one vehicle are the same simulation.
func TestFacadeTestbedIsAScenario(t *testing.T) {
	q := NewVanLAN(4, DefaultProtocol()).RunVoIP(40 * time.Second)
	d, err := NewScenario(4, "vanlan,app=voip", DefaultProtocol())
	if err != nil {
		t.Fatal(err)
	}
	run, err := d.RunFleet(40 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if run.Vehicles != 1 || !reflect.DeepEqual(run.PerVehicle[0].VoIP, q) {
		t.Errorf("scenario run (%d vehicles) %+v, testbed call %+v", run.Vehicles, run.PerVehicle[0].VoIP, q)
	}
}
