package experiment

import (
	"fmt"
	"time"

	"github.com/vanlan/vifi/internal/core"
	"github.com/vanlan/vifi/internal/scenario"
	"github.com/vanlan/vifi/internal/voip"
	"github.com/vanlan/vifi/internal/workload"
)

// This file carries the fleet application workloads: every vehicle of a
// generated scenario runs the application session its spec names (CBR,
// TCP, VoIP, Web, or a mixed split), multiplexed over the shared channel
// and backplane through per-vehicle delivery hooks. The scale-app-tcp
// and scale-app-voip sweeps measure what the paper's §5.3 actually
// evaluates — application metrics under fleet contention — rather than
// link delivery.

// FleetAppRun is the outcome of one fleet application execution: the
// per-vehicle driver metrics, the fleet-wide per-app aggregation, and —
// when CBR vehicles ran — the slot-level FleetRun the link metrics come
// from. Results are shared through the run-cache; treat as read-only.
type FleetAppRun struct {
	SpecKey  string
	App      workload.Kind
	BSCount  int
	Vehicles int
	Duration time.Duration

	PerVehicle []workload.Metrics
	Apps       workload.Summary

	// Link carries the CBR vehicles' per-slot outcomes (one row per CBR
	// vehicle, in fleet order); nil when no vehicle ran CBR.
	Link *FleetRun

	// Channel counters over the whole run.
	Transmissions int
	Collisions    int

	// Faults summarizes the injected fault timeline and the fleet's
	// resilience against it; nil when the spec injects no faults, so
	// fault-free runs serialize exactly as before.
	Faults *FaultReport

	// Protocol-state occupancy, sampled once at run end: mean fresh
	// local peers, beacon report entries and radio-grid neighborhood
	// size per basestation, and mean designated auxiliaries per
	// vehicle. These are the scale-protocol sweep's evidence that
	// per-beacon protocol work tracks the neighborhood, not the radio
	// population.
	FreshPeersBS float64
	ReportBS     float64
	GridNbrsBS   float64
	AuxPerVeh    float64

	// ShardExec carries per-shard execution diagnostics when the run was
	// sharded (nil on the serial path). It is wall-clock bookkeeping, not
	// simulation outcome: every other field is byte-identical at any
	// shard count, which is what the scale-shard golden pins.
	ShardExec []ShardRunStats
}

// DeliveredPerSec, DeliveryRatio, MedianSession and Interruptions expose
// the CBR link metrics (zero when no CBR vehicle ran), so constant-rate
// fleets read exactly like the original fleet workload.

// DeliveredPerSec is the CBR vehicles' aggregate delivered packet rate.
func (r *FleetAppRun) DeliveredPerSec() float64 {
	if r.Link == nil {
		return 0
	}
	return r.Link.DeliveredPerSec()
}

// DeliveryRatio is the CBR vehicles' fleet-wide delivery ratio.
func (r *FleetAppRun) DeliveryRatio() float64 {
	if r.Link == nil {
		return 0
	}
	return r.Link.DeliveryRatio()
}

// MedianSession is the CBR vehicles' pooled session median (seconds).
func (r *FleetAppRun) MedianSession(interval time.Duration, minRatio float64) float64 {
	if r.Link == nil {
		return 0
	}
	return r.Link.MedianSession(interval, minRatio)
}

// Interruptions is the CBR vehicles' interruption rate per vehicle-hour.
func (r *FleetAppRun) Interruptions() float64 {
	if r.Link == nil {
		return 0
	}
	return r.Link.Interruptions()
}

// appStagger is the within-slot phase spread between consecutive
// vehicles' session starts, keeping the fleet from hitting the MAC in
// phase: CBR spreads over its slot, VoIP over the packetization
// interval, and the transfer workloads over one second.
func appStagger(kind workload.Kind, cfg workload.Config) time.Duration {
	switch kind {
	case workload.CBRKind:
		return cfg.CBRSlot
	case workload.VoIPKind:
		return voip.PacketInterval
	default:
		return time.Second
	}
}

// RunFleetAppWorkload drives a generated scenario with the application
// workload its spec names: each vehicle, once departed and warmed up,
// runs its own driver over the shared cell. Deterministic per
// (seed, spec, cfg, duration); all driver randomness flows through
// streams labeled with the spec's canonical key and the vehicle index.
//
// shards is the requested parallelism (≤ 1 = serial): coupled kernels for
// districted specs, halo stripe lanes for un-districted indexed ones (see
// shardPlan). Both preserve every RNG stream label, NodeID and draw order
// of the serial run; only event execution (coupled) or the delivery
// fan-out (halo) is partitioned. The result is byte-identical at any
// shard count — ShardExec aside, which is execution bookkeeping.
func RunFleetAppWorkload(seed int64, spec scenario.Spec, cfg core.Config, duration time.Duration, shards int) (*FleetAppRun, error) {
	return runFleetApp(seed, spec, cfg, duration, shards, 0)
}

// assembleLink rebuilds the slot-level FleetRun from the CBR vehicles so
// link metrics read exactly like the original constant-rate workload.
// Pure over the run's already-merged fields, so the serial and sharded
// paths assemble byte-identical links.
func assembleLink(run *FleetAppRun, slotDur time.Duration) {
	if run.Apps.App(workload.CBRKind).Vehicles == 0 {
		return
	}
	link := &FleetRun{
		SpecKey:       run.SpecKey,
		SlotDur:       slotDur,
		BSCount:       run.BSCount,
		Transmissions: run.Transmissions,
		Collisions:    run.Collisions,
	}
	for _, m := range run.PerVehicle {
		if m.App != workload.CBRKind {
			continue
		}
		link.Up = append(link.Up, m.Up)
		link.Down = append(link.Down, m.Down)
		if d := time.Duration(len(m.Up)) * slotDur; d > link.Duration {
			link.Duration = d
		}
	}
	run.Link = link
}

// FleetApp schedules a fleet application workload on the engine at the
// requested shard count, memoized per (seed, spec, config, duration,
// shards) — the spec's canonical key (which encodes the app and its
// knobs) is the cache discriminator. Shard counts above one get their own
// cache line (" shards=N" key fragment): the simulation outcome is
// byte-identical at any count — that is the whole contract — but the
// identity tests need both executions to actually run, and a shards≤1
// request keeps the exact historical key.
func (e *Engine) FleetApp(seed int64, spec scenario.Spec, cfg core.Config, dur time.Duration, shards int) Future[*FleetAppRun] {
	extra := spec.Key()
	if shards > 1 {
		extra += fmt.Sprintf(" shards=%d", shards)
	}
	key := JobKey{Kind: "fleetapp", Seed: seed, Cfg: cfg, Dur: dur, Extra: extra}
	return Future[*FleetAppRun]{f: e.memoize(key, func() any {
		run, err := runFleetApp(seed, spec, cfg, dur, shards, e.metricsInterval)
		if err != nil {
			// Spec validity is checked by the runners before scheduling;
			// reaching this is a programming error, not a data error.
			panic(fmt.Sprintf("experiment: fleet app job: %v", err))
		}
		return run
	})}
}

// --- Application scaling sweeps --------------------------------------------

// appFleets is the fleet-size axis of the application sweeps. Smaller
// than the CBR sweep's top arm: per-vehicle transport state makes these
// runs heavier, and the application knee appears well before 24 vehicles.
var appFleets = []int{1, 4, 8, 16}

// forceApp pins a sweep's measured application on its base spec and
// clears the knobs that app ignores, so meaningless -scenario overrides
// neither split the run-cache nor leak into the scenario-base note.
func forceApp(s scenario.Spec, app workload.Kind) scenario.Spec {
	s.App = app
	if app != workload.TCPKind {
		s.AppXferBytes = 0
	}
	if app != workload.WebKind {
		s.AppThink = 0
	}
	if app != workload.MixedKind {
		s.AppMix = [4]int{}
	}
	return s
}

// runFleetSweep is the shared scaffold of the scaling sweeps: resolve
// the base scenario, pin the measured app, schedule one memoized fleet
// job per axis value, and render rows in declaration order.
func runFleetSweep(r *Report, o Options, def string, app workload.Kind, values []int,
	set func(*scenario.Spec, int), row func(int, *FleetAppRun) []string) {
	base, err := o.baseScenario(def)
	if err != nil {
		r.AddNote("invalid -scenario: %v", err)
		return
	}
	base = forceApp(base, app)
	eng := o.engine()
	dur := time.Duration(o.scaled(240)) * time.Second
	futs := make([]Future[*FleetAppRun], len(values))
	for i, n := range values {
		spec := base
		set(&spec, n)
		futs[i] = eng.FleetApp(o.Seed, spec, core.DefaultConfig(), dur, o.shardCount())
	}
	for i, n := range values {
		r.AddRow(row(n, futs[i].Wait())...)
	}
	r.AddNote("scenario base: %s", base.Key())
}

// appTCPHeader labels the TCP application sweep columns.
var appTCPHeader = []string{"arm", "BSes", "vehicles", "completed", "aborted", "median xfer (s)", "p90 xfer (s)", "xfers/veh·min"}

// ScaleAppTCP sweeps fleet size under the §5.3.1 repeated-transfer
// workload on a generated city grid: every vehicle runs its own 10 KB
// transfer loop, so the report shows how per-application throughput
// degrades as the fleet contends for the shared channel. Options.Scenario
// overrides the base deployment; its app is forced to tcp.
func ScaleAppTCP(o Options) *Report {
	r := &Report{
		ID:     "scale-app-tcp",
		Title:  "TCP transfer scaling on a generated city grid",
		Header: appTCPHeader,
	}
	runFleetSweep(r, o, "grid-city", workload.TCPKind, appFleets,
		func(s *scenario.Spec, n int) { s.Vehicles = n },
		func(n int, run *FleetAppRun) []string {
			a := run.Apps.App(workload.TCPKind)
			// Rate over summed session time, not wall time: departure
			// stagger shortens late vehicles' sessions, and dividing by
			// the full run would add a spurious downward slope as the
			// fleet grows.
			perVehMin := 0.0
			if a.ActiveMinutes > 0 {
				perVehMin = float64(a.Completed) / a.ActiveMinutes
			}
			return []string{
				fmt.Sprintf("fleet=%d", n),
				fmt.Sprintf("%d", run.BSCount),
				fmt.Sprintf("%d", a.Vehicles),
				fmt.Sprintf("%d", a.Completed),
				fmt.Sprintf("%d", a.Aborted),
				f2(a.MedianTransferSec),
				f2(a.P90TransferSec),
				f1(perVehMin),
			}
		})
	r.AddNote("expected shape: median transfer time grows and per-vehicle completions fall as the fleet contends (§5.3.1 measured under contention)")
	return r
}

// appVoIPHeader labels the VoIP application sweep columns.
var appVoIPHeader = []string{"arm", "BSes", "vehicles", "mean MoS", "median session (s)", "disruptions", "disrupt/call·min"}

// ScaleAppVoIP sweeps fleet size under the §5.3.2 G.729 call workload:
// every vehicle holds a bidirectional call scored with the E-model and
// the MoS<2 disruption classifier, reporting disruptions per minute of
// call time as contention grows. Options.Scenario overrides the base
// deployment; its app is forced to voip.
func ScaleAppVoIP(o Options) *Report {
	r := &Report{
		ID:     "scale-app-voip",
		Title:  "VoIP call scaling on a generated city grid",
		Header: appVoIPHeader,
	}
	runFleetSweep(r, o, "grid-city", workload.VoIPKind, appFleets,
		func(s *scenario.Spec, n int) { s.Vehicles = n },
		func(n int, run *FleetAppRun) []string {
			a := run.Apps.App(workload.VoIPKind)
			return []string{
				fmt.Sprintf("fleet=%d", n),
				fmt.Sprintf("%d", run.BSCount),
				fmt.Sprintf("%d", a.Vehicles),
				f2(a.MeanMoS),
				fmt.Sprintf("%.0f", a.MedianSessionSec),
				fmt.Sprintf("%d", a.Disruptions),
				f2(a.DisruptionsPerMin),
			}
		})
	r.AddNote("expected shape: disruptions per call-minute climb with fleet size as windows blow the 52 ms wireless budget (§5.3.2 under contention)")
	return r
}
