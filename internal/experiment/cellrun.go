package experiment

import (
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"github.com/vanlan/vifi/internal/core"
	"github.com/vanlan/vifi/internal/frame"
	"github.com/vanlan/vifi/internal/mobility"
	"github.com/vanlan/vifi/internal/radio"
	"github.com/vanlan/vifi/internal/sim"
	"github.com/vanlan/vifi/internal/stats"
	"github.com/vanlan/vifi/internal/trace"
	"github.com/vanlan/vifi/internal/transport"
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
// never-co-visible rule (§5.1).
func buildCell(k *sim.Kernel, env Env, cfg core.Config, events core.EventFunc) (*core.Cell, time.Duration) {
	opts := core.DefaultCellOptions()
	opts.Protocol = cfg
	opts.Events = events
	switch env {
	case EnvVanLAN:
		return core.NewVanLANCell(k, opts), 0 // unbounded
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
		return cell, time.Duration(tr.Seconds()) * time.Second
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

// --- Probe workload (link-layer experiments, Fig 7/8) ---------------------

// ProbeRun is the outcome of the §5.2 link-layer workload: a 500-byte
// packet each way every 100 ms, no link-layer retransmissions, with
// per-slot delivery outcomes recorded.
type ProbeRun struct {
	SlotDur time.Duration
	Up      []bool
	Down    []bool
	// Pos is the vehicle position per slot (VanLAN only; nil otherwise).
	Pos []mobility.Point
}

// CombinedIntervalRatios reduces per-slot outcomes to per-interval
// combined reception ratios.
func (p *ProbeRun) CombinedIntervalRatios(interval time.Duration) []float64 {
	spi := int(interval / p.SlotDur)
	if spi < 1 {
		spi = 1
	}
	n := len(p.Up) / spi
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		hit := 0
		for j := i * spi; j < (i+1)*spi; j++ {
			if p.Up[j] {
				hit++
			}
			if p.Down[j] {
				hit++
			}
		}
		out[i] = float64(hit) / float64(2*spi)
	}
	return out
}

// MedianSession extracts the time-weighted median uninterrupted session
// length for the given adequacy definition (interval, minimum ratio).
func (p *ProbeRun) MedianSession(interval time.Duration, minRatio float64) float64 {
	ratios := p.CombinedIntervalRatios(interval)
	var lens []float64
	run := 0
	flush := func() {
		if run > 0 {
			lens = append(lens, float64(run)*interval.Seconds())
			run = 0
		}
	}
	for _, r := range ratios {
		if r >= minRatio {
			run++
		} else {
			flush()
		}
	}
	flush()
	return medianTimeWeighted(lens)
}

func medianTimeWeighted(lens []float64) float64 {
	return stats.TimeWeightedMedian(lens)
}

// RunProbeWorkload drives the §5.2 experiment for one protocol config.
func RunProbeWorkload(seed int64, env Env, cfg core.Config, duration time.Duration, events core.EventFunc) *ProbeRun {
	return runProbeWorkload(seed, env, cfg, duration, events, 0)
}

// runProbeWorkload is RunProbeWorkload with an optional metrics-sampling
// cadence (engine jobs thread the engine's interval through here).
func runProbeWorkload(seed int64, env Env, cfg core.Config, duration time.Duration, events core.EventFunc, mi time.Duration) *ProbeRun {
	cfg.MaxRetx = 0 // link-layer experiments disable retransmissions
	k := sim.NewKernel(seed)
	cell, limit := buildCell(k, env, cfg, events)
	if limit > 0 && duration > limit {
		duration = limit
	}
	const slot = 100 * time.Millisecond
	warm := 2 * time.Second
	slots := int((duration - warm) / slot)
	run := &ProbeRun{
		SlotDur: slot,
		Up:      make([]bool, slots),
		Down:    make([]bool, slots),
	}
	if env == EnvVanLAN {
		run.Pos = make([]mobility.Point, slots)
	}

	payload := func(i int) []byte {
		b := make([]byte, 500)
		binary.BigEndian.PutUint32(b, uint32(i))
		return b
	}
	slotOf := func(p []byte) int {
		if len(p) < 4 {
			return -1
		}
		return int(binary.BigEndian.Uint32(p))
	}
	cell.Gateway.SetDeliver(func(id frame.PacketID, p []byte, from uint16) {
		if i := slotOf(p); i >= 0 && i < slots {
			run.Up[i] = true
		}
	})
	cell.Vehicle.SetDeliver(func(id frame.PacketID, p []byte, from uint16) {
		if i := slotOf(p); i >= 0 && i < slots {
			run.Down[i] = true
		}
	})
	for i := 0; i < slots; i++ {
		i := i
		k.At(warm+time.Duration(i)*slot, func() {
			cell.Vehicle.SendData(payload(i))
			cell.Gateway.Send(cell.Vehicle.Addr(), payload(i))
			if run.Pos != nil {
				run.Pos[i] = cell.Channel.Position(cell.Vehicle.MAC().ID())
			}
		})
	}
	until := warm + time.Duration(slots)*slot + 2*time.Second
	publish := attachCellMetrics(k, cell, nil, nil, mi, until,
		runMeta("probe", env.String(), seed, 1, duration, cfg))
	k.RunUntil(until)
	publish()
	return run
}

// --- TCP workload (Fig 9/10, Table 1, Fig 12) -----------------------------

// TCPRun reports one TCP workload execution.
type TCPRun struct {
	Stats     *transport.WorkloadStats
	Collector *Collector
	Duration  time.Duration
	Salvaged  int
}

// RunTCPWorkload drives the §5.3.1 workload: repeated 10 KB downloads
// through the cell with the 10 s stall abort.
func RunTCPWorkload(seed int64, env Env, cfg core.Config, duration time.Duration) *TCPRun {
	return runTCPWorkload(seed, env, cfg, duration, 0)
}

// runTCPWorkload is RunTCPWorkload with an optional metrics-sampling
// cadence.
func runTCPWorkload(seed int64, env Env, cfg core.Config, duration time.Duration, mi time.Duration) *TCPRun {
	k := sim.NewKernel(seed)
	col := NewCollector()
	cell, limit := buildCell(k, env, cfg, col.Handle)
	if limit > 0 && duration > limit {
		duration = limit
	}
	// Sample the auxiliary-set size each second (Table 1 row A1).
	var sample func()
	sample = func() {
		col.AuxCountSamples = append(col.AuxCountSamples, cell.Vehicle.AuxCount())
		if k.Now() < duration {
			k.After(time.Second, sample)
		}
	}
	k.After(2*time.Second, sample)
	st := tcpOnCell(k, cell, duration, mi,
		runMeta("tcp", env.String(), seed, 1, duration, cfg))
	return &TCPRun{Stats: st, Collector: col, Duration: duration - 2*time.Second, Salvaged: col.Salvaged}
}

// tcpOnCell runs the repeated-transfer workload over an already-built
// cell until the deadline and returns its statistics. The session itself
// is the workload.TCP driver; this wrapper only binds it to the cell's
// single vehicle, attaches a sampler when mi > 0, and runs the clock.
func tcpOnCell(k *sim.Kernel, cell *core.Cell, duration time.Duration, mi time.Duration, meta map[string]string) *transport.WorkloadStats {
	d := workload.NewTCP(k, transport.DefaultWorkloadConfig(), workload.CellPort(cell, 0),
		0, 2*time.Second, duration)
	workload.Bind(cell, 0, d)
	d.Start()
	publish := attachCellMetrics(k, cell, []workload.Driver{d}, []workload.Kind{workload.TCPKind}, mi, duration, meta)
	k.RunUntil(duration)
	publish()
	return d.Workload().Stop()
}

// tcpOnEnv builds a cell for the environment with the given collector and
// runs the TCP workload.
func tcpOnEnv(seed int64, env Env, cfg core.Config, duration time.Duration, col *Collector) *transport.WorkloadStats {
	k := sim.NewKernel(seed)
	var events core.EventFunc
	if col != nil {
		events = col.Handle
	}
	cell, limit := buildCell(k, env, cfg, events)
	if limit > 0 && duration > limit {
		duration = limit
	}
	return tcpOnCell(k, cell, duration, 0, nil)
}

// --- VoIP workload (Fig 11) ------------------------------------------------

// VoIPRun reports one VoIP workload execution.
type VoIPRun struct {
	Quality voip.Quality
}

// RunVoIPWorkload drives the §5.3.2 workload: a bidirectional G.729
// stream, scored with the E-model and the 3-second MoS<2 interruption
// rule. Link-layer retransmissions stay enabled (≤3) as in the paper's
// application experiments.
func RunVoIPWorkload(seed int64, env Env, cfg core.Config, duration time.Duration) *VoIPRun {
	return runVoIPWorkload(seed, env, cfg, duration, 0)
}

// runVoIPWorkload is RunVoIPWorkload with an optional metrics-sampling
// cadence.
func runVoIPWorkload(seed int64, env Env, cfg core.Config, duration time.Duration, mi time.Duration) *VoIPRun {
	k := sim.NewKernel(seed)
	cell, limit := buildCell(k, env, cfg, nil)
	if limit > 0 && duration > limit {
		duration = limit
	}
	return &VoIPRun{Quality: voipOnCell(k, cell, duration, mi,
		runMeta("voip", env.String(), seed, 1, duration, cfg))}
}

// voipOnCell runs the bidirectional G.729 stream over an already-built
// cell and scores the call, with a sampler attached when mi > 0. The
// stream, loss accounting and §5.3.2 disruption classifier live in the
// workload.VoIP driver.
func voipOnCell(k *sim.Kernel, cell *core.Cell, duration time.Duration, mi time.Duration, meta map[string]string) voip.Quality {
	d := workload.NewVoIP(k, workload.CellPort(cell, 0), 0, 2*time.Second, duration)
	workload.Bind(cell, 0, d)
	d.Start()
	publish := attachCellMetrics(k, cell, []workload.Driver{d}, []workload.Kind{workload.VoIPKind}, mi, duration+time.Second, meta)
	k.RunUntil(duration + time.Second)
	publish()
	return d.Stop().VoIP
}
