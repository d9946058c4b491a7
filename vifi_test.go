package vifi

import (
	"math"
	"slices"
	"strings"
	"testing"
	"time"
)

// fleet runs a preset spec and fails the test on any error.
func fleet(t *testing.T, seed int64, spec string, cfg Protocol, d time.Duration) *FleetRun {
	t.Helper()
	dep, err := NewScenario(seed, spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	run, err := dep.RunFleet(d)
	if err != nil {
		t.Fatal(err)
	}
	return run
}

func TestFacadeVoIP(t *testing.T) {
	run := fleet(t, 1, "vanlan,app=voip", DefaultProtocol(), 60*time.Second)
	if run.Vehicles != 1 {
		t.Fatalf("testbed fleet of %d vehicles", run.Vehicles)
	}
	q := run.PerVehicle[0].VoIP
	if q.Windows == 0 {
		t.Fatal("no VoIP windows")
	}
	if q.MeanMoS < 1 || q.MeanMoS > 4.5 {
		t.Errorf("MoS out of range: %v", q.MeanMoS)
	}
}

func TestFacadeTCPDeterminism(t *testing.T) {
	a := fleet(t, 9, "vanlan,app=tcp", HardHandoff(), 60*time.Second).PerVehicle[0]
	b := fleet(t, 9, "vanlan,app=tcp", HardHandoff(), 60*time.Second).PerVehicle[0]
	if a.Completed != b.Completed || a.Aborted != b.Aborted {
		t.Errorf("same seed diverged: %d/%d vs %d/%d",
			a.Completed, a.Aborted, b.Completed, b.Aborted)
	}
	c := fleet(t, 10, "vanlan,app=tcp", HardHandoff(), 60*time.Second).PerVehicle[0]
	if c.Completed == a.Completed && slices.Equal(c.TransferSecs, a.TransferSecs) {
		t.Error("different seeds produced identical runs")
	}
}

func TestFacadeDieselNet(t *testing.T) {
	q := fleet(t, 2, "dieselnet1,app=voip", DefaultProtocol(), 45*time.Second).PerVehicle[0].VoIP
	if q.Windows == 0 {
		t.Fatal("trace-driven run produced nothing")
	}
	// DieselNet was profiled on channels 1 and 6 only.
	if _, err := NewScenario(2, "dieselnet3", DefaultProtocol()); err == nil ||
		!strings.Contains(err.Error(), `unknown preset "dieselnet3"`) {
		t.Errorf("channel 3: err = %v", err)
	}
}

// TestFacadeRejectsUnrunnableProtocol: NewScenario refuses a Protocol the
// stack cannot run before anything is simulated. Run, each of these
// panics in the retransmission timer (RetxPercentile 1.5, NaN), never
// returns (BeaconInterval < 0), reports an all-zero estimator as a
// plausible MoS (BeaconInterval 0) or never gives a packet up (MaxRetx
// 300 overflows the attempt counter). The rest run and mislead: at seed 1
// over 60 s the default MoS of 2.60 reads 1.93 at ProbStale −1 s, 2.18 at
// ProbAlpha NaN and 2.50 at Coordinator 99, which never relays while the
// run is labelled ViFi; ProbAlpha 0 or 2 and SalvageWindow −1 s run too.
func TestFacadeRejectsUnrunnableProtocol(t *testing.T) {
	for name, edit := range map[string]func(*Protocol){
		"RetxPercentile 1.5": func(p *Protocol) { p.RetxPercentile = 1.5 },
		"RetxPercentile NaN": func(p *Protocol) { p.RetxPercentile = math.NaN() },
		"BeaconInterval -1s": func(p *Protocol) { p.BeaconInterval = -time.Second },
		"BeaconInterval 0":   func(p *Protocol) { p.BeaconInterval = 0 },
		"MaxRetx 300":        func(p *Protocol) { p.MaxRetx = 300 },
		"ProbStale -1s":      func(p *Protocol) { p.ProbStale = -time.Second },
		"ProbAlpha NaN":      func(p *Protocol) { p.ProbAlpha = math.NaN() },
		"ProbAlpha 0":        func(p *Protocol) { p.ProbAlpha = 0 },
		"ProbAlpha 2":        func(p *Protocol) { p.ProbAlpha = 2 },
		"Coordinator 99":     func(p *Protocol) { p.Coordinator = 99 },
		"SalvageWindow -1s":  func(p *Protocol) { p.SalvageWindow = -time.Second },
	} {
		p := DefaultProtocol()
		edit(&p)
		if _, err := NewScenario(1, "vanlan,app=voip", p); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
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
	// A scale that is not a positive finite number is refused before
	// anything runs, never silently floored to the smallest run.
	for _, s := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if out, err := Experiment("fig6", 3, s); err == nil {
			t.Errorf("scale %v accepted:\n%s", s, out)
		}
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
	vrun := fleet(t, 9, "grid,app=voip,vehicles=3", DefaultProtocol(), 20*time.Second)
	if s := vrun.Apps.App(VoIPApp); s.Vehicles != 3 || s.CallWindows == 0 {
		t.Errorf("voip fleet summary: %+v", s)
	}
}
