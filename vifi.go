// Package vifi is a production-quality Go reproduction of "Interactive
// WiFi Connectivity For Moving Vehicles" (Balasubramanian, Mahajan,
// Venkataramani, Levine, Zahorjan — SIGCOMM 2008): the ViFi protocol, the
// paper's hard-handoff baselines, the vehicular channel and testbed
// substrates it was evaluated on, the application workloads (short TCP
// transfers and G.729 VoIP), and one harness per table and figure of the
// paper's evaluation.
//
// # Quick start
//
//	dep, err := vifi.NewScenario(42, "vanlan,app=voip", vifi.DefaultProtocol())
//	if err != nil {
//		log.Fatal(err)
//	}
//	run, err := dep.RunFleet(10 * time.Minute)
//	if err != nil {
//		log.Fatal(err)
//	}
//	call := run.PerVehicle[0].VoIP
//	fmt.Printf("median disruption-free call: %.0fs\n", call.MedianSessionSec)
//
// Swap vifi.DefaultProtocol() for vifi.HardHandoff() to measure the BRR
// baseline the paper compares against, or use Experiment to regenerate
// any of the paper's figures.
//
// One constructor serves every deployment: a spec string names a preset
// plus key=value overrides, app= among them (cbr, tcp, voip, web, mixed).
// The paper's testbeds are the vanlan, dieselnet1 and dieselnet6 presets,
// each a fleet of one vehicle whose metrics are run.PerVehicle[0]; a
// generated city (grid-city, strip-highway, ...) runs the same way with
// more vehicles. ScenarioPresets lists them all.
//
// Everything is deterministic: equal seeds give byte-identical results,
// even when experiments run on the parallel engine's worker pool
// (cmd/vifi-bench -parallel N). See DESIGN.md for the system inventory
// and EXPERIMENTS.md for paper-versus-measured numbers and how to
// regenerate them.
package vifi

import (
	"time"

	"github.com/vanlan/vifi/internal/core"
	"github.com/vanlan/vifi/internal/experiment"
	"github.com/vanlan/vifi/internal/mobility"
	"github.com/vanlan/vifi/internal/scenario"
	"github.com/vanlan/vifi/internal/sim"
	"github.com/vanlan/vifi/internal/workload"
)

// Protocol is a ViFi protocol configuration (see DefaultProtocol,
// HardHandoff and DiversityOnly for the paper's three arms).
type Protocol = core.Config

// DefaultProtocol returns full ViFi: opportunistic relaying with the
// Eq 1–3 coordinator, salvaging, adaptive retransmission.
func DefaultProtocol() Protocol { return core.DefaultConfig() }

// HardHandoff returns the BRR baseline: the same engine with auxiliary
// relaying and salvaging switched off (the paper's §5 comparison arm).
func HardHandoff() Protocol { return core.BRRConfig() }

// DiversityOnly returns ViFi without salvaging (Fig 9's middle bar).
func DiversityOnly() Protocol { return core.DiversityOnlyConfig() }

// Experiment regenerates one of the paper's tables or figures (ids:
// fig2…fig12, table1, table2, plus the ablations `vifi-bench -list`
// prints). Scale multiplies run durations and trial counts; 1.0 is
// paper-shaped, and one that is not a positive finite number is an error.
func Experiment(id string, seed int64, scale float64) (string, error) {
	if err := experiment.CheckScale(scale); err != nil {
		return "", err
	}
	rep, err := experiment.Run(id, experiment.Options{Seed: seed, Scale: scale})
	if err != nil {
		return "", err
	}
	return rep.String(), nil
}

// --- Deployments -----------------------------------------------------------

// FleetRun reports one fleet application-workload execution: per-vehicle
// application metrics, each naming the app its vehicle ran (Apps
// aggregates them per app kind), channel counters, and — for
// constant-rate (CBR) vehicles — the link-level accessors
// DeliveredPerSec, DeliveryRatio, MedianSession and Interruptions.
type FleetRun = experiment.FleetAppRun

// Application workload kinds, the keys of FleetRun.Apps.App.
const (
	CBRApp  = workload.CBRKind
	TCPApp  = workload.TCPKind
	VoIPApp = workload.VoIPKind
	WebApp  = workload.WebKind
)

// ScenarioPresets lists the presets accepted by NewScenario: the paper's
// testbeds and the generated cities (grid-city, strip-highway, ...).
func ScenarioPresets() []string { return scenario.Presets() }

// ScenarioDeployment is a basestation topology and a fleet of vehicles on
// their routes, all deterministic per (seed, spec): one of the paper's
// testbeds (VanLAN's live channel over the campus layout, or DieselNet's
// trace-driven Amherst buses on channel 1 or 6) or a generated city.
type ScenarioDeployment struct {
	seed int64
	spec scenario.Spec
	cfg  Protocol
}

// NewScenario returns a deployment from a preset name plus optional
// key=value overrides, e.g. "dieselnet6,app=tcp",
// "grid-city,vehicles=30,bs=72" or "grid-city,app=mixed,mix=1:2:1:1". See
// internal/scenario for the full key set; an unknown preset or key is an
// error, and so is a protocol the stack cannot run (core.Config.Validate).
func NewScenario(seed int64, spec string, cfg Protocol) (*ScenarioDeployment, error) {
	s, err := scenario.Parse(spec)
	if err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &ScenarioDeployment{seed: seed, spec: s, cfg: cfg}, nil
}

// RunFleet drives the deployment's fleet under the application workload
// its spec names (app=cbr by default: one 500-byte packet each way per
// vehicle per 200 ms slot) and returns per-vehicle and per-app
// application statistics. A duration ≤ 0 is an error; a DieselNet run
// lasts at most its one-hour trace.
func (d *ScenarioDeployment) RunFleet(duration time.Duration) (*FleetRun, error) {
	return experiment.RunFleetAppWorkload(d.seed, d.spec, d.cfg, duration, 1)
}

// --- Low-level access for advanced scenarios ------------------------------

// Kernel is the deterministic discrete-event kernel all simulations run
// on. Build custom cells against it with NewCell.
type Kernel = sim.Kernel

// NewKernel returns a kernel seeded for reproducibility.
func NewKernel(seed int64) *Kernel { return sim.NewKernel(seed) }

// Cell is a deployed protocol cell: channel, backplane, gateway,
// basestations and vehicle.
type Cell = core.Cell

// CellOptions configures a custom cell.
type CellOptions = core.CellOptions

// DefaultCellOptions returns the paper's channel, backplane and protocol
// settings.
func DefaultCellOptions() CellOptions { return core.DefaultCellOptions() }

// NewCell wires a custom deployment: arbitrary basestation positions and
// vehicle movement. See the examples directory for usage.
func NewCell(k *Kernel, opts CellOptions, bsMovers []Mover, veh Mover) *Cell {
	return core.NewCell(k, opts, bsMovers, veh)
}

// Mover supplies a node position over time.
type Mover = mobility.Mover

// Fixed is a stationary Mover (a basestation).
type Fixed = mobility.Fixed

// Point is a position in meters.
type Point = mobility.Point

// Route is a constant-speed waypoint path.
type Route = mobility.Route

// NewRoute builds a route; loop makes it circular.
func NewRoute(waypoints []Point, speedMPS float64, loop bool) *Route {
	return mobility.NewRoute(waypoints, speedMPS, loop)
}

// RouteMover drives a vehicle along a route.
type RouteMover = mobility.RouteMover
