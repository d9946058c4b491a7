package experiment

import (
	"fmt"
	"time"

	"github.com/vanlan/vifi/internal/core"
	"github.com/vanlan/vifi/internal/mobility"
	"github.com/vanlan/vifi/internal/obs"
	"github.com/vanlan/vifi/internal/radio"
	"github.com/vanlan/vifi/internal/sim"
	"github.com/vanlan/vifi/internal/stats"
	"github.com/vanlan/vifi/internal/workload"
)

// Env names a deployment environment for protocol experiments.
type Env int

// Environments of the paper's evaluation.
const (
	EnvVanLAN Env = iota
	EnvDieselNetCh1
	EnvDieselNetCh6
)

// String implements fmt.Stringer.
func (e Env) String() string {
	switch e {
	case EnvVanLAN:
		return "VanLAN"
	case EnvDieselNetCh1:
		return "DieselNet Ch.1"
	case EnvDieselNetCh6:
		return "DieselNet Ch.6"
	default:
		return "env(?)"
	}
}

// buildCell constructs a running cell for the environment: VanLAN runs
// "live" on the fading channel over the campus layout (the deployment of
// §5.1); DieselNet cells are trace-driven — vehicle↔BS links replay the
// per-second beacon ratios of one hour of the engine's synthetic
// profiling (dieselNet) and inter-BS links use the paper's
// never-co-visible rule (§5.1). It returns the run duration clamped to
// what the environment can supply (the trace's length; VanLAN is
// unbounded).
func (e *Engine) buildCell(k *sim.Kernel, env Env, cfg core.Config, events core.EventFunc, duration time.Duration) (*core.Cell, time.Duration) {
	opts := core.DefaultCellOptions()
	opts.Protocol = cfg
	opts.Events = events
	switch env {
	case EnvVanLAN:
		return core.NewVanLANCell(k, opts), duration
	case EnvDieselNetCh1, EnvDieselNetCh6:
		ch := 1
		if env == EnvDieselNetCh6 {
			ch = 6
		}
		tr := e.dieselNet(int64(k.RNG("traceseed").Uint64()%(1<<30)), ch, time.Hour)
		links := tr.ScheduleLinks()
		inter := tr.InterBSRatios(k.RNG("interbs", fmt.Sprint(ch)))
		nb := tr.NumBSes()
		veh := radio.NodeID(nb)
		opts.LinkFactory = func(from, to radio.NodeID) radio.LinkModel {
			switch {
			case from == veh:
				return links[int(to)]
			case to == veh:
				return links[int(from)]
			default:
				return radio.FixedLink(inter[int(from)][int(to)])
			}
		}
		movers := make([]mobility.Mover, nb)
		for i := range movers {
			movers[i] = mobility.Fixed{X: float64(i) * 50}
		}
		cell := core.NewCell(k, opts, movers, mobility.Fixed{X: float64(nb) * 50})
		if limit := time.Duration(tr.Seconds()) * time.Second; duration > limit {
			duration = limit
		}
		return cell, duration
	default:
		panic("experiment: unknown environment")
	}
}

// --- Single-vehicle runs ---------------------------------------------------
//
// The paper's own evaluation runs one vehicle per cell. Each such run is
// the one-vehicle case of the fleet machinery: a workload.Driver on fleet
// slot 0, advanced by runTestbed.

// fleetWarm is the settling time before a vehicle starts measuring (one
// probability window plus anchor selection slack, as in the §5 workloads).
const fleetWarm = 2 * time.Second

// probeSlot is the §5.2 probe's cadence: one 500-byte packet each way
// every 100 ms.
const probeSlot = 100 * time.Millisecond

// TestbedRun reports one single-vehicle run (Engine.Testbed): the
// driver's metrics and the event Collector when the run collected (nil
// otherwise). It holds no pointer into the simulation, so the run-cache
// pins nothing else; treat it as read-only.
type TestbedRun struct {
	workload.Metrics
	Collector *Collector
}

// Link returns a CBR run's one-row slot table: the §5.2 probe as a fleet
// of one, which Fig 7, Fig 8 and the session metrics read.
func (r *TestbedRun) Link() *stats.SlotTable {
	return &stats.SlotTable{SlotDur: r.Slot, Duration: r.Span,
		Up: [][]bool{r.Up}, Down: [][]bool{r.Down}}
}

// runTestbed drives one workload on fleet slot 0 of an already-built cell
// up to the kind's end: the CBR probe (link-layer retransmissions are the
// caller's to disable) two seconds past its last slot, the TCP loop (the
// §5.3.1 repeated 10 KB downloads with the 10 s stall abort) at dur, the
// G.729 call one drain second past it. A collecting TCP run also samples
// the vehicle's auxiliary-set size each second (Table 1 row A1). mi > 0
// samples metrics at that cadence under meta and publishes the recording
// to the package sink (TakeRecordings).
func runTestbed(k *sim.Kernel, cell *core.Cell, kind workload.Kind, dur time.Duration,
	col *Collector, mi time.Duration, meta map[string]string) *TestbedRun {
	if col != nil && kind == workload.TCPKind {
		var sample func()
		sample = func() {
			col.AuxCountSamples = append(col.AuxCountSamples, cell.Vehicle.AuxCount())
			if k.Now() < dur {
				k.After(time.Second, sample)
			}
		}
		k.After(fleetWarm, sample)
	}
	port := workload.CellPort(cell, 0)
	var d workload.Driver
	until := dur
	switch kind {
	case workload.CBRKind:
		cbr := workload.NewCBR(k, port, 0, fleetWarm, dur, probeSlot, 500)
		d, until = cbr, fleetWarm+time.Duration(cbr.Slots())*probeSlot+2*time.Second
	case workload.TCPKind:
		d = workload.NewTCP(k, workload.DefaultConfig().TransferBytes, port, 0, fleetWarm, dur)
	case workload.VoIPKind:
		d, until = workload.NewVoIP(k, port, 0, fleetWarm, dur), dur+time.Second
	default:
		panic(fmt.Sprintf("experiment: no testbed workload %v", kind))
	}
	workload.Bind(cell, 0, d)
	d.Start()
	publish := sampleRun(k, cell, []workload.Driver{d}, []workload.Kind{kind}, mi, until, meta)
	k.RunUntil(until)
	publish()
	return &TestbedRun{Metrics: d.Stop(), Collector: col}
}

// sampleRun attaches a metrics sampler to a cell run that will end at
// until when mi > 0, and returns what publishes its recording to the
// package sink (TakeRecordings) once the run has ended; with mi ≤ 0 it
// attaches nothing and publishes nothing.
func sampleRun(k *sim.Kernel, cell *core.Cell, drivers []workload.Driver, kinds []workload.Kind,
	mi, until time.Duration, meta map[string]string) (publish func()) {
	if mi <= 0 {
		return func() {}
	}
	sp := obs.Attach(k, buildRegistry(k, cell, drivers, kinds), mi, until, meta)
	return func() { logRecording(sp.Recording()) }
}
