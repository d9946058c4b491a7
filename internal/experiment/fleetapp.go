package experiment

import (
	"fmt"
	"time"

	"github.com/vanlan/vifi/internal/core"
	"github.com/vanlan/vifi/internal/scenario"
	"github.com/vanlan/vifi/internal/stats"
	"github.com/vanlan/vifi/internal/voip"
	"github.com/vanlan/vifi/internal/workload"
)

// This file carries the fleet application workloads: every vehicle of a
// generated scenario runs the application session its spec names (CBR,
// TCP, VoIP, Web, or a mixed split), multiplexed over the shared channel
// and backplane through per-vehicle delivery hooks. The sweeps table
// (sweeps.go) is made of these runs.

// FleetAppRun is the outcome of one fleet application execution: the
// per-vehicle driver metrics (each names the app its vehicle ran), the
// fleet-wide per-app aggregation, and — when CBR vehicles ran — the slot
// table the link metrics come from. Results are shared through the
// run-cache; treat as read-only.
type FleetAppRun struct {
	SpecKey  string
	BSCount  int
	Vehicles int
	Duration time.Duration

	PerVehicle []workload.Metrics
	Apps       workload.Summary

	// Link carries the CBR vehicles' per-slot outcomes (one row per CBR
	// vehicle, in fleet order); nil when no vehicle ran CBR.
	Link *stats.SlotTable

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

	// Collector holds a collecting run's protocol events (the testbed
	// rows that set collect read it: Fig 9, Fig 12, Tables 1 and 2 and
	// the salvage/retx ablations); nil for a plain run.
	Collector *Collector
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
// shards is the requested parallelism (≤ 1 = serial): independent
// district kernels for districted specs, halo stripe lanes for
// un-districted indexed ones (see shardPlan). Both preserve every RNG
// stream label, NodeID and draw order of the serial run; only event
// execution (districts) or the delivery fan-out (halo) is partitioned. The result is byte-identical at any
// shard count — ShardExec aside, which is execution bookkeeping.
func RunFleetAppWorkload(seed int64, spec scenario.Spec, cfg core.Config, duration time.Duration, shards int) (*FleetAppRun, error) {
	return runFleetApp(seed, spec, cfg, duration, shards, 0, runHooks{})
}

// assembleLink rebuilds the slot table from the CBR vehicles so
// link metrics read exactly like the original constant-rate workload.
// Pure over the run's already-merged fields, so the serial and sharded
// paths assemble byte-identical links.
func assembleLink(run *FleetAppRun, slotDur time.Duration) {
	if run.Apps.App(workload.CBRKind).Vehicles == 0 {
		return
	}
	link := &stats.SlotTable{SlotDur: slotDur}
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
// knobs) is the cache discriminator, and the config is the one the spec
// runs (Spec.Protocol), so probe configurations differing only in
// MaxRetx share a run. Shard counts above one get their own cache line
// (" shards=N" key fragment): the simulation outcome is byte-identical at
// any count — that is the whole contract — but the identity tests need
// both executions to actually run, and a shards≤1 request keeps the exact
// historical key. A trace-driven preset reads the engine's trace memo.
func (e *Engine) FleetApp(seed int64, spec scenario.Spec, cfg core.Config, dur time.Duration, shards int) Future[*FleetAppRun] {
	return e.fleetApp(seed, spec, cfg, dur, shards, false)
}

// fleetApp is FleetApp that may attach an event Collector to the run
// (FleetAppRun.Collector): a collecting and a plain run are two runs.
func (e *Engine) fleetApp(seed int64, spec scenario.Spec, cfg core.Config, dur time.Duration, shards int, collect bool) Future[*FleetAppRun] {
	cfg = spec.Protocol(cfg)
	extra := spec.Key()
	if shards > 1 {
		extra += fmt.Sprintf(" shards=%d", shards)
	}
	if collect {
		extra += " collect"
	}
	key := JobKey{Kind: "fleetapp", Seed: seed, Cfg: cfg, Dur: dur, Extra: extra}
	return Future[*FleetAppRun]{f: e.memoize(key, func() any {
		h := runHooks{traces: e.dieselNet}
		if collect {
			h.col = NewCollector()
		}
		run, err := runFleetApp(seed, spec, cfg, dur, shards, e.metricsInterval, h)
		if err != nil {
			// Callers validate the spec before scheduling ((sweep).plan
			// does so arm by arm, the CLIs through scenario.Parse);
			// reaching this is a programming error, not a data error.
			panic(fmt.Sprintf("experiment: fleet app job: %v", err))
		}
		return run
	})}
}
