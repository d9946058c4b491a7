package experiment

import (
	"slices"
	"testing"
	"time"

	"github.com/vanlan/vifi/internal/core"
	"github.com/vanlan/vifi/internal/radio"
	"github.com/vanlan/vifi/internal/scenario"
	"github.com/vanlan/vifi/internal/workload"
)

// scaleSample keeps these tests quick: grid-city durations at Scale 0.04
// are ~10 simulated seconds per arm, yet the big arm still runs the full
// 54-basestation deployment.
const scaleTestScale = 0.04

// scaleFleetSample is the grid-city scaling sweeps
// TestScaleFleetByteIdentical renders.
var scaleFleetSample = []string{"scale-fleet", "scale-density", "scale-app-tcp", "scale-app-voip"}

// TestScaleFleetByteIdentical is the acceptance contract for the scaling
// experiments: the registered scale-fleet experiment — whose top arm runs
// 54 basestations and 24 concurrent vehicles — renders byte-identically
// to its committed golden, across two runs of the same seed and between
// the serial inline path and a multi-worker engine.
func TestScaleFleetByteIdentical(t *testing.T) {
	for _, id := range scaleFleetSample {
		o := Options{Seed: 17, Scale: scaleTestScale}
		a, err := Run(id, o)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		checkGolden(t, id, a)
		b, err := Run(id, o)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if a.String() != b.String() {
			t.Errorf("%s: equal seeds diverged:\n--- first\n%s\n--- second\n%s", id, a, b)
		}
		par, err := Run(id, Options{Seed: 17, Scale: scaleTestScale, Engine: NewEngine(4)})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if a.String() != par.String() {
			t.Errorf("%s: parallel output differs from serial:\n--- serial\n%s\n--- parallel\n%s", id, a, par)
		}
	}
}

// scaleRadioTestScale keeps the radio-count sweep affordable in the test
// suite: the 10000-radio top arm still runs ~5 simulated seconds of full
// fleet traffic on the channel's spatially indexed path.
const scaleRadioTestScale = 0.02

// TestScaleRadioIndexedDeterminism is the large-N determinism gate for
// the spatially indexed channel: the scale-radio sweep — whose top arm
// runs 10000 radios, far past radio.DefaultIndexThreshold — must render
// byte-identically to the committed golden (cross-version contract,
// -update-golden to refresh deliberately) and between the serial inline
// path and a multi-worker engine. One serial rendering serves both
// checks to keep the suite affordable.
func TestScaleRadioIndexedDeterminism(t *testing.T) {
	serial, err := Run("scale-radio", Options{Seed: 17, Scale: scaleRadioTestScale})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "scale-radio", serial)
	par, err := Run("scale-radio", Options{Seed: 17, Scale: scaleRadioTestScale, Engine: NewEngine(4)})
	if err != nil {
		t.Fatal(err)
	}
	if serial.String() != par.String() {
		t.Errorf("scale-radio parallel output differs from serial:\n--- serial\n%s\n--- parallel\n%s", serial, par)
	}
}

// scaleProtocolTestScale keeps the occupancy sweep affordable: its arms
// overlap scale-radio's, but the two tests cannot share an engine, so
// this sweep runs a shorter (~2 simulated seconds) slice of the same
// deployments. Occupancy saturates within the first staleness window,
// so the shorter run still exercises the full index machinery.
const scaleProtocolTestScale = 0.01

// TestScaleProtocolDeterminism pins the protocol-occupancy sweep the
// same way the radio sweep is pinned: golden bytes across versions and
// serial-vs-parallel identity at 10000 radios. The occupancy columns
// come from the incremental prob-table index, so this golden is the
// end-to-end contract that lazy expiry, cached reports and the grid
// neighborhood agree between engines.
func TestScaleProtocolDeterminism(t *testing.T) {
	serial, err := Run("scale-protocol", Options{Seed: 17, Scale: scaleProtocolTestScale})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "scale-protocol", serial)
	par, err := Run("scale-protocol", Options{Seed: 17, Scale: scaleProtocolTestScale, Engine: NewEngine(4)})
	if err != nil {
		t.Fatal(err)
	}
	if serial.String() != par.String() {
		t.Errorf("scale-protocol parallel output differs from serial:\n--- serial\n%s\n--- parallel\n%s", serial, par)
	}
}

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
// arm's radio population is far past the index threshold, and the fixed
// probe fleet is the same in every arm.
func TestScaleRadioTopArmIndexed(t *testing.T) {
	top := scaleRadioArms[len(scaleRadioArms)-1]
	if top < 2000 {
		t.Fatalf("top arm is %d radios, acceptance needs ≥ 2000", top)
	}
	if scaleRadioArms[len(scaleRadioArms)-1] < 8*radio.DefaultIndexThreshold {
		t.Fatalf("top arm %d radios does not stress the indexed path (threshold %d)",
			top, radio.DefaultIndexThreshold)
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
	run := app.Link
	if run.BSCount != spec.BS || len(run.Up) != spec.Vehicles {
		t.Errorf("run shape %d/%d, want %d/%d", run.BSCount, len(run.Up), spec.BS, spec.Vehicles)
	}
	if run.Transmissions == 0 {
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
	if a.DeliveryRatio() != b.DeliveryRatio() || a.Transmissions != b.Transmissions ||
		a.Collisions != b.Collisions || a.DeliveredPerSec() != b.DeliveredPerSec() {
		t.Errorf("fleet runs diverged: %+v vs %+v", a, b)
	}
	if a.sent() == 0 {
		t.Fatal("workload sent nothing")
	}
}
