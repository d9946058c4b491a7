package experiment

import (
	"slices"
	"testing"
	"time"

	"github.com/vanlan/vifi/internal/core"
	"github.com/vanlan/vifi/internal/scenario"
	"github.com/vanlan/vifi/internal/workload"
)

// TestScaleProtocolArmsShared pins the run-cache economics the sweep is
// built on: every scale-protocol arm is also a scale-radio arm and both
// sweeps build their specs through setScaleRadioArm, so one engine
// serving both reports simulates each shared arm once.
func TestScaleProtocolArmsShared(t *testing.T) {
	for _, n := range scaleProtocolArms {
		if !slices.Contains(scaleRadioArms, n) {
			t.Errorf("scale-protocol arm %d is not a scale-radio arm", n)
		}
	}
	if top := scaleProtocolArms[len(scaleProtocolArms)-1]; top < 10000 {
		t.Errorf("top arm %d, acceptance needs the 10000-radio endpoint", top)
	}
}

// TestScaleRadioTopArmIndexed pins the sweep's reason to exist: the top
// arm's radio population is city-sized, and the fixed probe fleet is the
// same in every arm.
func TestScaleRadioTopArmIndexed(t *testing.T) {
	if top := scaleRadioArms[len(scaleRadioArms)-1]; top < 2000 {
		t.Fatalf("top arm is %d radios, acceptance needs ≥ 2000", top)
	}
	for _, n := range scaleRadioArms {
		if n <= scaleRadioVehicles {
			t.Fatalf("arm %d smaller than the fixed %d-vehicle fleet", n, scaleRadioVehicles)
		}
	}
	w, h := scaleRadioRegion(2000 - scaleRadioVehicles)
	if d := float64(2000-scaleRadioVehicles) / (w * h); d < 1.2e-5 || d > 1.8e-5 {
		t.Errorf("top-arm BS density %.2g per m², want ≈1.5e-5 (grid-city reference)", d)
	}
}

// TestScaleFleetTopArmShape pins the acceptance floor: the sweep's top arm
// deploys ≥ 50 basestations and ≥ 20 vehicles.
func TestScaleFleetTopArmShape(t *testing.T) {
	spec, err := scenario.Parse("grid-city")
	if err != nil {
		t.Fatal(err)
	}
	if spec.BS < 50 || spec.Vehicles < 20 {
		t.Fatalf("grid-city preset is %d BSes / %d vehicles, acceptance needs ≥50/≥20", spec.BS, spec.Vehicles)
	}
	app, err := RunFleetAppWorkload(5, forceApp(spec, workload.CBRKind), core.DefaultConfig(), 10*time.Second, 1)
	if err != nil {
		t.Fatal(err)
	}
	if app.BSCount != spec.BS || len(app.Link.Up) != spec.Vehicles {
		t.Errorf("run shape %d/%d, want %d/%d", app.BSCount, len(app.Link.Up), spec.BS, spec.Vehicles)
	}
	if app.Transmissions == 0 {
		t.Error("no channel activity")
	}
}

// TestFleetRunCache checks the engine memoizes fleet-app jobs per spec:
// equal (seed, spec, cfg, dur) share one run; a spec override — fleet
// size or application — misses.
func TestFleetRunCache(t *testing.T) {
	eng := NewEngine(2)
	spec, _ := scenario.Parse("grid-small")
	cfg := core.DefaultConfig()
	a := eng.FleetApp(3, spec, cfg, 8*time.Second, 1)
	b := eng.FleetApp(3, spec, cfg, 8*time.Second, 1)
	if a.Wait() != b.Wait() {
		t.Error("identical fleet jobs returned distinct results")
	}
	if hits := eng.CacheHits(); hits != 1 {
		t.Errorf("cache hits = %d, want 1", hits)
	}
	other := spec
	other.Vehicles++
	c := eng.FleetApp(3, other, cfg, 8*time.Second, 1)
	if c.Wait() == a.Wait() {
		t.Error("different specs shared a cached result")
	}
	// The application is part of the spec key: app=tcp must not share the
	// CBR run's cache line.
	tcp := spec
	tcp.App = workload.TCPKind
	d := eng.FleetApp(3, tcp, cfg, 8*time.Second, 1)
	if d.Wait() == a.Wait() {
		t.Error("different apps shared a cached result")
	}
}

// TestFleetWorkloadDeterminism pins the workload layer directly: two
// executions agree on every aggregate.
func TestFleetWorkloadDeterminism(t *testing.T) {
	spec, _ := scenario.Parse("grid-small,vehicles=4")
	spec = forceApp(spec, workload.CBRKind)
	appA, err := RunFleetAppWorkload(9, spec, core.DefaultConfig(), 20*time.Second, 1)
	if err != nil {
		t.Fatal(err)
	}
	appB, _ := RunFleetAppWorkload(9, spec, core.DefaultConfig(), 20*time.Second, 1)
	a, b := appA.Link, appB.Link
	if a.DeliveryRatio() != b.DeliveryRatio() || appA.Transmissions != appB.Transmissions ||
		appA.Collisions != appB.Collisions || a.DeliveredPerSec() != b.DeliveredPerSec() {
		t.Errorf("fleet runs diverged: %+v vs %+v", a, b)
	}
	slots := 0
	for _, row := range a.Up {
		slots += len(row)
	}
	if slots == 0 {
		t.Fatal("workload sent nothing")
	}
}

// TestTestbedRowsIgnoreOverrides: a sweep row on one of the paper's
// testbeds is a paper figure. Rendered again with a -scenario and a
// -shards override on the same engine, it must print the plain rendering's
// bytes from the plain rendering's jobs: no job runs, and every planned
// run is a run-cache hit.
func TestTestbedRowsIgnoreOverrides(t *testing.T) {
	rows := 0
	for _, s := range sweeps {
		if !s.testbed() {
			continue
		}
		rows++
		t.Run(s.id, func(t *testing.T) {
			eng := NewEngine(2)
			o := Options{Seed: 3, Scale: 0.005, Engine: eng}
			plain, err := Run(s.id, o)
			if err != nil {
				t.Fatal(err)
			}
			jobs, hits := eng.Jobs(), eng.CacheHits()
			o.Scenario, o.Shards = "grid-city", 4
			over, err := Run(s.id, o)
			if err != nil {
				t.Fatal(err)
			}
			if over.String() != plain.String() {
				t.Errorf("the overrides changed the report:\n--- plain\n%s\n--- overridden\n%s", plain, over)
			}
			plan, _, err := s.plan(o)
			if err != nil {
				t.Fatal(err)
			}
			if eng.Jobs() != jobs || eng.CacheHits() != hits+int64(len(plan)) {
				t.Errorf("overridden rendering moved jobs/hits %d/%d to %d/%d, want %d/%d",
					jobs, hits, eng.Jobs(), eng.CacheHits(), jobs, hits+int64(len(plan)))
			}
		})
	}
	if rows == 0 {
		t.Error("no sweep row runs a testbed")
	}
}
