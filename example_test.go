package vifi_test

import (
	"fmt"
	"time"

	"github.com/vanlan/vifi"
)

// ExampleScenarioDeployment_RunFleet measures disruption-free VoIP call
// time for ViFi against the hard-handoff baseline on the VanLAN campus,
// a fleet of one vehicle.
func ExampleScenarioDeployment_RunFleet() {
	call := func(cfg vifi.Protocol) *vifi.FleetRun {
		dep, err := vifi.NewScenario(42, "vanlan,app=voip", cfg)
		if err != nil {
			panic(err)
		}
		run, err := dep.RunFleet(2 * time.Minute)
		if err != nil {
			panic(err)
		}
		return run
	}
	vf := call(vifi.DefaultProtocol()).PerVehicle[0].VoIP
	brr := call(vifi.HardHandoff()).PerVehicle[0].VoIP
	fmt.Printf("ViFi windows scored: %d (same for BRR: %v)\n",
		vf.Windows, vf.Windows == brr.Windows)
	// Output:
	// ViFi windows scored: 39 (same for BRR: true)
}

// ExampleExperiment regenerates a paper figure at reduced scale.
func ExampleExperiment() {
	out, err := vifi.Experiment("fig6", 42, 0.05)
	if err != nil {
		panic(err)
	}
	fmt.Println(out[:42])
	// Output:
	// == fig6: Burstiness and cross-BS independe
}

// ExampleNewCell builds a custom two-basestation deployment and checks
// the vehicle anchors to one of them.
func ExampleNewCell() {
	k := vifi.NewKernel(1)
	cell := vifi.NewCell(k, vifi.DefaultCellOptions(),
		[]vifi.Mover{vifi.Fixed{X: 0}, vifi.Fixed{X: 150}},
		&vifi.RouteMover{Route: vifi.NewRoute([]vifi.Point{{X: 0}, {X: 200}}, 10, true)})
	k.RunUntil(5 * time.Second)
	fmt.Println("anchored:", cell.Vehicle.Anchor() != 0xFFFE)
	// Output:
	// anchored: true
}
