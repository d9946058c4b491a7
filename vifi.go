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
//	dep := vifi.NewVanLAN(42, vifi.DefaultProtocol())
//	quality := dep.RunVoIP(10 * time.Minute)
//	fmt.Printf("median disruption-free call: %.0fs\n", quality.MedianSessionSec)
//
// Swap vifi.DefaultProtocol() for vifi.HardHandoff() to measure the BRR
// baseline the paper compares against, or use Experiment to regenerate
// any of the paper's figures.
//
// One run type serves every deployment: the paper's testbeds (NewVanLAN,
// NewDieselNet) are the vanlan, dieselnet1 and dieselnet6 scenario
// presets — a fleet of one vehicle — and run exactly as a generated city
// fleet does (NewScenario, RunFleet), so NewScenario("vanlan,app=voip")
// and NewVanLAN(...).RunVoIP drive the same simulation.
//
// Everything is deterministic: equal seeds give byte-identical results,
// even when experiments run on the parallel engine's worker pool
// (cmd/vifi-bench -parallel N). See DESIGN.md for the system inventory
// and EXPERIMENTS.md for paper-versus-measured numbers and how to
// regenerate them.
package vifi

import (
	"fmt"
	"time"

	"github.com/vanlan/vifi/internal/core"
	"github.com/vanlan/vifi/internal/experiment"
	"github.com/vanlan/vifi/internal/frame"
	"github.com/vanlan/vifi/internal/mobility"
	"github.com/vanlan/vifi/internal/scenario"
	"github.com/vanlan/vifi/internal/sim"
	"github.com/vanlan/vifi/internal/stats"
	"github.com/vanlan/vifi/internal/trace"
	"github.com/vanlan/vifi/internal/voip"
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

// VoIPQuality summarizes a VoIP run: the time-weighted median
// uninterrupted session length, mean MoS and interruption count.
type VoIPQuality = voip.Quality

// AppMetrics is one application session's report: for a TCP run the
// completed and aborted transfers and the transfer times, with
// TransferQuantile and TransfersPerSession over them.
type AppMetrics = workload.Metrics

// Deployment is one of the paper's testbeds with its one vehicle: VanLAN
// (live channel simulation over the campus layout) or DieselNet
// (trace-driven) — the vanlan, dieselnet1 and dieselnet6 scenario
// presets. Its Run methods take a positive duration and panic on any
// other.
type Deployment struct {
	seed int64
	spec scenario.Spec
	cfg  Protocol
}

// NewVanLAN returns the Redmond campus deployment: eleven basestations,
// the shuttle loop, and the calibrated vehicular channel.
func NewVanLAN(seed int64, cfg Protocol) *Deployment {
	return testbed(seed, "vanlan", cfg)
}

// NewDieselNet returns the trace-driven Amherst deployment for channel 1
// or 6 (panics on other channels, mirroring the profiled dataset). A run
// lasts at most its one-hour trace.
func NewDieselNet(seed int64, channel int, cfg Protocol) *Deployment {
	if channel != 1 && channel != 6 {
		panic("vifi: DieselNet was profiled on channels 1 and 6 only")
	}
	return testbed(seed, fmt.Sprintf("dieselnet%d", channel), cfg)
}

func testbed(seed int64, preset string, cfg Protocol) *Deployment {
	spec, err := scenario.Preset(preset)
	if err != nil {
		panic(err) // callers name presets
	}
	return &Deployment{seed: seed, spec: spec, cfg: cfg}
}

// run drives the testbed's vehicle under one application workload.
func (d *Deployment) run(kind workload.Kind, duration time.Duration) *FleetRun {
	spec := d.spec
	spec.App = kind
	run, err := experiment.RunFleetAppWorkload(d.seed, spec, d.cfg, duration, 1)
	if err != nil {
		panic(err) // a preset runs any concrete app: only a duration ≤ 0 fails
	}
	return run
}

// RunVoIP drives a bidirectional G.729 call for the duration and scores
// it with the paper's E-model and interruption rule (§5.3.2).
func (d *Deployment) RunVoIP(duration time.Duration) VoIPQuality {
	return d.run(workload.VoIPKind, duration).PerVehicle[0].VoIP
}

// RunTCP drives the paper's repeated 10 KB transfer workload with the
// 10-second stall abort (§5.3.1).
func (d *Deployment) RunTCP(duration time.Duration) AppMetrics {
	return d.run(workload.TCPKind, duration).PerVehicle[0]
}

// LinkSessionMedian runs the §5.2 link-layer probe workload (500-byte
// packets each way every 100 ms, no retransmissions) and returns the
// time-weighted median uninterrupted session length for the adequacy
// definition (interval, minimum combined reception ratio).
func (d *Deployment) LinkSessionMedian(duration, interval time.Duration, minRatio float64) float64 {
	return d.run(workload.CBRKind, duration).MedianSession(interval, minRatio)
}

// Experiment regenerates one of the paper's tables or figures (ids:
// fig2…fig12, table1, table2, plus the ablations listed by Experiments()).
// Scale multiplies run durations and trial counts; 1.0 is paper-shaped.
func Experiment(id string, seed int64, scale float64) (string, error) {
	rep, err := experiment.Run(id, experiment.Options{Seed: seed, Scale: scale})
	if err != nil {
		return "", err
	}
	return rep.String(), nil
}

// Experiments lists every available experiment id.
func Experiments() []string { return experiment.IDs() }

// --- Generated city-scale scenarios ---------------------------------------

// FleetRun reports one fleet application-workload execution over a
// generated scenario: per-vehicle application metrics, each naming the
// app its vehicle ran (Apps aggregates them per app kind), channel
// counters, and — for constant-rate (CBR)
// vehicles — the link-level accessors DeliveredPerSec, DeliveryRatio,
// MedianSession and Interruptions.
type FleetRun = experiment.FleetAppRun

// LinkRun is the slot-level delivery table behind a CBR fleet's link
// metrics (FleetRun.Link).
type LinkRun = stats.SlotTable

// AppKind selects a per-vehicle application workload in a scenario spec
// (app=cbr|tcp|voip|web|mixed).
type AppKind = workload.Kind

// Application workload kinds.
const (
	CBRApp   = workload.CBRKind
	TCPApp   = workload.TCPKind
	VoIPApp  = workload.VoIPKind
	WebApp   = workload.WebKind
	MixedApp = workload.MixedKind
)

// AppSummary aggregates one application's metrics across the fleet
// (FleetRun.Apps.App(kind)).
type AppSummary = workload.AppSummary

// ScenarioPresets lists the generated-deployment presets accepted by
// NewScenario (grid-city, strip-highway, cluster-town, ...).
func ScenarioPresets() []string { return scenario.Presets() }

// ScenarioDeployment is a generated city-scale environment: a
// parameterized basestation topology and a fleet of vehicles on generated
// routes, all deterministic per (seed, spec).
type ScenarioDeployment struct {
	seed int64
	spec scenario.Spec
	cfg  Protocol
}

// NewScenario returns a generated deployment from a preset name plus
// optional key=value overrides, e.g. "grid-city,vehicles=30,bs=72" or
// "grid-city,app=mixed,mix=1:2:1:1". See internal/scenario for the full
// key set.
func NewScenario(seed int64, spec string, cfg Protocol) (*ScenarioDeployment, error) {
	s, err := scenario.Parse(spec)
	if err != nil {
		return nil, err
	}
	return &ScenarioDeployment{seed: seed, spec: s, cfg: cfg}, nil
}

// RunFleet drives the deployment's fleet under the application workload
// its spec names (app=cbr by default: one 500-byte packet each way per
// vehicle per 200 ms slot) and returns per-vehicle and per-app
// application statistics.
func (d *ScenarioDeployment) RunFleet(duration time.Duration) (*FleetRun, error) {
	return experiment.RunFleetAppWorkload(d.seed, d.spec, d.cfg, duration, 1)
}

// GenerateDieselNetTrace synthesizes a DieselNet-style per-second beacon
// reception trace (see internal/trace for the CSV interchange format that
// also accepts the real traces from traces.cs.umass.edu).
func GenerateDieselNetTrace(seed int64, channel int, duration time.Duration) *Trace {
	return trace.GenerateDieselNet(seed, channel, duration)
}

// Trace is a per-second vehicle↔basestation reception-ratio trace.
type Trace = trace.Trace

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

// PacketID identifies a data packet end to end.
type PacketID = frame.PacketID
