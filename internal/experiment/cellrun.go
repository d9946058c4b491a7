package experiment

import (
	"fmt"
	"sync"
	"time"

	"github.com/vanlan/vifi/internal/core"
	"github.com/vanlan/vifi/internal/mobility"
	"github.com/vanlan/vifi/internal/obs"
	"github.com/vanlan/vifi/internal/radio"
	"github.com/vanlan/vifi/internal/sim"
	"github.com/vanlan/vifi/internal/trace"
	"github.com/vanlan/vifi/internal/voip"
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
// per-second beacon ratios and inter-BS links use the paper's
// never-co-visible rule (§5.1). It returns the run duration clamped to
// what the environment can supply (the trace's length; VanLAN is
// unbounded).
func buildCell(k *sim.Kernel, env Env, cfg core.Config, events core.EventFunc, duration time.Duration) (*core.Cell, time.Duration) {
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
		// One hour of synthetic DieselNet profiling per seed.
		tr := traceFor(k, ch)
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

// traceCache memoizes synthetic DieselNet traces per (seed, channel): the
// generation sweep dominates short benchmarks otherwise. Cells built by
// concurrent engine jobs share it; the per-key once lets distinct traces
// generate in parallel while same-key callers block only on their own
// generation. The cached Trace is read-only after generation.
type traceSlot struct {
	once sync.Once
	tr   *trace.Trace
}

var (
	traceMu    sync.Mutex
	traceCache = map[[2]int64]*traceSlot{}
)

func traceFor(k *sim.Kernel, ch int) *trace.Trace {
	seed := int64(k.RNG("traceseed").Uint64() % (1 << 30))
	key := [2]int64{seed, int64(ch)}
	traceMu.Lock()
	slot, ok := traceCache[key]
	if !ok {
		slot = &traceSlot{}
		traceCache[key] = slot
	}
	traceMu.Unlock()
	slot.once.Do(func() {
		slot.tr = trace.GenerateDieselNet(seed, ch, time.Hour)
	})
	return slot.tr
}

// --- Single-vehicle runs ---------------------------------------------------
//
// The paper's own evaluation runs one vehicle per cell. Each such run is
// the one-vehicle case of the fleet machinery: a workload.Driver on fleet
// slot 0, advanced by driveCell.

// driveCell runs one driver on fleet slot 0 of an already-built cell:
// bind, start, attach a sampler when mi > 0, run the clock to until, and
// publish the recording to the package sink (TakeRecordings). The caller
// stops the driver and reads what it needs from it.
func driveCell(k *sim.Kernel, cell *core.Cell, d workload.Driver, kind workload.Kind,
	until, mi time.Duration, meta map[string]string) {
	workload.Bind(cell, 0, d)
	d.Start()
	var sp *obs.Sampler
	if mi > 0 {
		reg := buildRegistry(k, cell, []workload.Driver{d}, []workload.Kind{kind})
		sp = obs.Attach(k, reg, mi, until, meta)
	}
	k.RunUntil(until)
	if sp != nil {
		logRecording(sp.Recording())
	}
}

// RunProbeWorkload drives the §5.2 link-layer experiment for one protocol
// config: the CBR driver at a 500-byte packet each way every 100 ms with
// link-layer retransmissions off, reported as a one-row slot table. mi > 0
// samples metrics at that cadence (engine jobs pass the engine's).
func RunProbeWorkload(seed int64, env Env, cfg core.Config, duration time.Duration, events core.EventFunc, mi time.Duration) *FleetRun {
	cfg.MaxRetx = 0 // link-layer experiments disable retransmissions
	const slot = 100 * time.Millisecond
	k := sim.NewKernel(seed)
	cell, duration := buildCell(k, env, cfg, events, duration)
	d := workload.NewCBR(k, workload.CellPort(cell, 0), 0, fleetWarm, duration, slot, 500)
	until := fleetWarm + time.Duration(d.Slots())*slot + 2*time.Second
	driveCell(k, cell, d, workload.CBRKind, until, mi,
		runMeta("probe", env.String(), seed, 1, duration, cfg))
	m := d.Stop()
	st := cell.Channel.Stats()
	return &FleetRun{
		SpecKey: env.String(), SlotDur: m.Slot, Duration: m.Span,
		Up: [][]bool{m.Up}, Down: [][]bool{m.Down},
		Transmissions: st.Transmissions, Collisions: st.Collisions, BSCount: len(cell.BSes),
	}
}

// TCPRun reports one TCP workload execution (Fig 9/10, Table 1, Fig 12).
type TCPRun struct {
	Stats     *workload.TCPStats
	Collector *Collector
	Duration  time.Duration
	Salvaged  int
}

// RunTCPWorkload drives the §5.3.1 workload: repeated 10 KB downloads
// through the cell with the 10 s stall abort. mi > 0 samples metrics.
func RunTCPWorkload(seed int64, env Env, cfg core.Config, duration time.Duration, mi time.Duration) *TCPRun {
	k := sim.NewKernel(seed)
	col := NewCollector()
	cell, duration := buildCell(k, env, cfg, col.Handle, duration)
	// Sample the auxiliary-set size each second (Table 1 row A1).
	var sample func()
	sample = func() {
		col.AuxCountSamples = append(col.AuxCountSamples, cell.Vehicle.AuxCount())
		if k.Now() < duration {
			k.After(time.Second, sample)
		}
	}
	k.After(fleetWarm, sample)
	d := workload.NewTCP(k, workload.DefaultTCPConfig(), workload.CellPort(cell, 0), 0, fleetWarm, duration)
	driveCell(k, cell, d, workload.TCPKind, duration, mi,
		runMeta("tcp", env.String(), seed, 1, duration, cfg))
	d.Stop()
	return &TCPRun{Stats: d.Stats(), Collector: col, Duration: duration - fleetWarm, Salvaged: col.Salvaged}
}

// VoIPRun reports one VoIP workload execution (Fig 11).
type VoIPRun struct {
	Quality voip.Quality
}

// RunVoIPWorkload drives the §5.3.2 workload: a bidirectional G.729
// stream, scored with the E-model and the 3-second MoS<2 interruption
// rule. Link-layer retransmissions stay enabled (≤3) as in the paper's
// application experiments. mi > 0 samples metrics.
func RunVoIPWorkload(seed int64, env Env, cfg core.Config, duration time.Duration, mi time.Duration) *VoIPRun {
	k := sim.NewKernel(seed)
	cell, duration := buildCell(k, env, cfg, nil, duration)
	d := workload.NewVoIP(k, workload.CellPort(cell, 0), 0, fleetWarm, duration)
	// One drain second past the last packet pair.
	driveCell(k, cell, d, workload.VoIPKind, duration+time.Second, mi,
		runMeta("voip", env.String(), seed, 1, duration, cfg))
	return &VoIPRun{Quality: d.Stop().VoIP}
}
