package experiment

import (
	"fmt"
	"strconv"
	"sync"
	"time"

	"github.com/vanlan/vifi/internal/core"
	"github.com/vanlan/vifi/internal/fault"
	"github.com/vanlan/vifi/internal/obs"
	"github.com/vanlan/vifi/internal/radio"
	"github.com/vanlan/vifi/internal/scenario"
	"github.com/vanlan/vifi/internal/sim"
	"github.com/vanlan/vifi/internal/workload"
)

// This file carries the fleet execution: the build / advance / finish
// phases of a fleet application run. A serving frontend holds a LiveRun
// open, advances it in barrier-aligned steps and reads metrics between
// steps; the batch runner (runFleetApp) is the same LiveRun stepped
// through one whole-run quantum. Both finish into the byte-identical
// FleetAppRun.

// LiveRun is one fleet application execution between build and finish.
// eff==1 runs a single kernel — serially, or with the channel's delivery
// fan-out halo-sharded across stripe lanes (haloLanes>1) when the planner
// chose shardModeHalo; eff>1 runs one independent kernel per district
// group (districted specs). Every kernel runs the one setup sequence — the
// serial run is the one-shard case, with an all-local placement — which is
// what the sampling-identity and shard-identity goldens pin. Not safe for
// concurrent use; the serve layer serializes access per session.
type LiveRun struct {
	seed     int64
	cfg      core.Config
	duration time.Duration
	until    time.Duration
	key      string
	appcfg   workload.Config

	eff           int   // kernel count: >1 only for district kernels
	haloLanes     int   // delivery lanes on the halo path (0/1 otherwise)
	districtShard []int // nil unless eff > 1
	kernels       []*sim.Kernel
	cells         []*core.Cell
	recs          []*faultRecorder
	drivers       [][]workload.Driver
	kinds         []workload.Kind
	lay           *scenario.Layout
	tl            fault.Timeline

	// Sampling: one sampler per kernel. merged is the run-wide recording —
	// the lone sampler's own with one kernel, else the row sums of every
	// kernel's rows up to the last barrier (see barrier).
	samplers []*obs.Sampler
	merged   *obs.Recording
	onSample func(at time.Duration, row []int64)

	quantum time.Duration
	cursor  time.Duration // the last barrier every kernel reached
	run     *FleetAppRun
}

// fleetWarm is the settling time before a vehicle starts measuring (one
// probability window plus anchor selection slack, as in the §5 workloads).
const fleetWarm = 2 * time.Second

// StartLiveRun builds the full simulation state for one fleet run —
// kernels, cells, fault plan, workload drivers, samplers — everything up
// to (but not including) the first executed event. interval is the
// metrics sampling cadence and the stepping quantum; non-positive
// disables sampling and steps in one-second quanta. onSample, when
// non-nil, is handed each run-wide sample row once, in time order, on the
// goroutine that calls Step (see barrier); the row is a view into the
// run's recording, so it must not be written. A trace-driven preset
// generates its trace and runs at most the trace's length. A duration that
// is not positive is an error.
func StartLiveRun(seed int64, spec scenario.Spec, cfg core.Config, duration time.Duration, shards int,
	interval time.Duration, onSample func(at time.Duration, row []int64)) (*LiveRun, error) {
	return startLiveRun(seed, spec, cfg, duration, shards, interval, onSample, runHooks{})
}

// runHooks is what a run scheduled on an engine adds to a plain LiveRun:
// the engine's trace memo as the trace-driven presets' link source (nil
// generates the trace), and a Collector that receives every protocol
// event and, on a TCP run, the vehicle's auxiliary-set size each second
// (Table 1 row A1).
type runHooks struct {
	traces scenario.Traces
	col    *Collector
}

func startLiveRun(seed int64, spec scenario.Spec, cfg core.Config, duration time.Duration, shards int,
	interval time.Duration, onSample func(at time.Duration, row []int64), h runHooks) (*LiveRun, error) {
	if duration <= 0 {
		return nil, fmt.Errorf("experiment: run duration %v is not positive", duration)
	}
	cfg = spec.Protocol(cfg)
	opts := core.DefaultCellOptions()
	opts.Protocol = cfg
	if h.col != nil {
		opts.Events = h.col.Handle
	}
	plan := shardPlan(spec, shards)
	eff := 1 // kernel count; the halo mode parallelizes inside one kernel
	if plan.mode == shardModeDistricts {
		eff = plan.eff
	}

	fs, err := spec.FaultSpec()
	if err != nil {
		return nil, err
	}
	l := &LiveRun{
		seed: seed, cfg: cfg,
		key: spec.Key(), appcfg: spec.AppConfig(),
		eff: eff, districtShard: plan.districtShard,
		kernels:  make([]*sim.Kernel, eff),
		cells:    make([]*core.Cell, eff),
		recs:     make([]*faultRecorder, eff),
		drivers:  make([][]workload.Driver, eff),
		quantum:  time.Second,
		onSample: onSample,
	}

	for sh := 0; sh < eff; sh++ {
		k := sim.NewKernel(seed)
		cell, lay, err := scenario.BuildCell(k, spec, opts, plan.districtShard, sh, h.traces)
		if err != nil {
			return nil, err
		}
		l.kernels[sh], l.cells[sh], l.lay = k, cell, lay
		if lay.Span > 0 && duration > lay.Span {
			duration = lay.Span // a trace-driven run ends with its trace
		}
		if h.col != nil && spec.App == workload.TCPKind {
			h.col.sampleAux(k, cell.Vehicle, duration)
		}

		// Faults first, then the workload mix, then the drivers — only
		// the driver set is filtered to locally owned fleet slots.
		nv := len(cell.Vehicles)
		if !fs.Empty() {
			l.tl = fault.Plan(k, l.key, fs, duration, len(cell.BSes), nv)
			l.recs[sh] = newFaultRecorder(k, duration)
			scenario.InstallFaults(k, cell, &l.tl, l.recs[sh].restored)
		}
		kinds := make([]workload.Kind, nv)
		if spec.App == workload.MixedKind {
			kinds = workload.SplitKinds(k.RNG("workload", l.key, "mix"), l.appcfg.Mix, nv)
		} else {
			for i := range kinds {
				kinds[i] = spec.App
			}
		}
		if sh == 0 {
			l.kinds = kinds
		}
		l.drivers[sh] = make([]workload.Driver, nv)
		for i := 0; i < nv; i++ {
			if !cell.LocalVehicle(i) {
				continue
			}
			start := lay.Departs[i] + fleetWarm +
				appStagger(kinds[i], l.appcfg)*time.Duration(i)/time.Duration(nv)
			end := duration
			if start > end {
				start = end // departed too late: zero-length session
			}
			rng := k.RNG("workload", l.key, "veh", strconv.Itoa(i))
			d := workload.New(k, l.appcfg, kinds[i], workload.CellPort(cell, i), i, start, end, rng)
			if l.recs[sh] != nil {
				l.recs[sh].bind(cell, i, d)
			} else {
				workload.Bind(cell, i, d)
			}
			d.Start()
			l.drivers[sh][i] = d
		}
	}

	l.duration, l.until = duration, duration+time.Second

	if plan.mode == shardModeHalo {
		// Halo-band sharding: one kernel, serial event order, with the
		// channel's per-broadcast delivery fan-out partitioned across
		// stripe-owned lanes. Engaged only after the whole cell is built
		// so every radio is attached first. Only a reach-less channel
		// declines, and a validated spec never builds one.
		if got := l.cells[0].StartRadioShards(plan.eff); got != plan.eff {
			panic(fmt.Sprintf("experiment: channel started %d of %d planned halo lanes", got, plan.eff))
		}
		l.haloLanes = plan.eff
	}
	if interval > 0 {
		l.quantum = interval
		l.attachMetrics(interval)
	}
	return l, nil
}

// attachMetrics installs one obs sampler per kernel at the given cadence.
// The samplers are pure observers (no RNG, no state mutation), so the
// run's outcome is byte-identical with or without them.
func (l *LiveRun) attachMetrics(interval time.Duration) {
	meta := runMeta("fleetapp", l.key, l.seed, l.width(), l.duration, l.cfg)
	l.samplers = make([]*obs.Sampler, l.eff)
	for sh := 0; sh < l.eff; sh++ {
		reg := buildRegistry(l.kernels[sh], l.cells[sh], l.drivers[sh], l.kinds)
		l.addShardSeries(reg, sh)
		l.samplers[sh] = obs.Attach(l.kernels[sh], reg, interval, l.until, meta)
	}
	l.merged = l.samplers[0].Recording()
	if l.eff > 1 {
		l.merged = obs.NewRecording(meta, interval, interval, l.merged.Series)
	}
}

// width is the run's effective parallelism: district kernels or halo
// lanes, 1 when serial.
func (l *LiveRun) width() int {
	if l.haloLanes > 1 {
		return l.haloLanes
	}
	return l.eff
}

// shardStat reads district kernel or halo lane i's live execution
// counters — the one accessor behind FleetAppRun.ShardExec and the
// shard.<i>.* series; finish adds the owned-node counts. A district
// kernel reports the events it executed and nothing else: where the
// caller put its barriers must not show in anything reported or recorded.
// For a halo lane Events counts in-cutoff delivery decisions, Rounds the
// broadcast dispatches, Stalled the dispatches the lane sat idle. All of
// it is a pure function of the simulation (stripe ownership and the
// candidate sets are deterministic), so it is reproducible across hosts
// despite measuring parallel execution. While a step is running, kernel
// i's counter may be read only from its own goroutine (a sampler tick).
func (l *LiveRun) shardStat(i int) ShardRunStats {
	if l.eff > 1 {
		return ShardRunStats{Shard: i, Events: l.kernels[i].EventsRun()}
	}
	ls := l.cells[0].Channel.LaneStat(i)
	return ShardRunStats{Shard: i, Events: ls.Computed, Rounds: int(ls.Rounds),
		Stalled: int(ls.Idle), HaloSent: int(ls.HaloSent), HaloRecv: int(ls.HaloRecv)}
}

// Step advances every kernel to the next barrier — one quantum of sim
// time past the last, clamped to the end of the run — publishes the
// sample rows completed by then (barrier), and reports the barrier's sim
// time plus completion; after completion it is a no-op returning (end,
// true). Successive RunUntil calls compose exactly, and district kernels
// share nothing (DESIGN §10), so where the barriers fall changes no
// result: a lone kernel runs on the caller's goroutine, several run on one
// goroutine each and are joined here. Nothing outlives the call. A
// kernel's panic is re-raised on the caller once every other kernel has
// reached the barrier, so it surfaces as a panic out of Step rather than a
// process crash.
func (l *LiveRun) Step() (time.Duration, bool) {
	prev := l.cursor
	if prev >= l.until {
		return l.until, true
	}
	next := min(prev+l.quantum, l.until)
	if len(l.kernels) == 1 {
		l.kernels[0].RunUntil(next)
	} else {
		panics := make([]any, len(l.kernels))
		var wg sync.WaitGroup
		for i, k := range l.kernels {
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { panics[i] = recover() }()
				k.RunUntil(next)
			}()
		}
		wg.Wait()
		for _, p := range panics {
			if p != nil {
				panic(p)
			}
		}
	}
	l.cursor = next
	l.barrier(prev)
	return next, next >= l.until
}

// barrier publishes the sample rows that fell in (prev, cursor]. Every
// kernel is quiescent here, so this is the one place rows are read. With
// several kernels each row is first summed into the run-wide recording:
// every standard series is a sum-merge (counters count disjoint local
// work; occupancy gauges partition over owned nodes), so the merged
// series of shard-local subsystems equals the serial run's. Then onSample
// sees the row, in time order, on the goroutine that called Step. A kernel
// missing a row here has diverged from the run's cadence: the run panics
// naming the row.
func (l *LiveRun) barrier(prev time.Duration) {
	if l.samplers == nil {
		return
	}
	iv := l.merged.Interval
	want := int(l.cursor / iv)
	for sh, sp := range l.samplers {
		if r := sp.Recording(); r.Rows() < want {
			panic(fmt.Sprintf("experiment: kernel %d has no sample row %d (at %v) at the %v barrier",
				sh, r.Rows(), r.At(r.Rows()), l.cursor))
		}
	}
	for i := int(prev / iv); i < want; i++ {
		if l.eff > 1 {
			l.merged.Append(l.samplers[0].Recording().Row(i)...)
			row := l.merged.Row(i)
			for _, sp := range l.samplers[1:] {
				for j, v := range sp.Recording().Row(i) {
					row[j] += v
				}
			}
		}
		if l.onSample != nil {
			l.onSample(l.merged.At(i), l.merged.Row(i))
		}
	}
}

// Finish assembles the FleetAppRun (idempotent), merging per-shard state
// in global node order so every float accumulation and slice append
// happens in exactly the serial iteration order. It panics if the run has
// not completed.
func (l *LiveRun) Finish() *FleetAppRun {
	if l.run != nil {
		return l.run
	}
	if l.cursor < l.until {
		panic("experiment: fleet run finish before completion")
	}
	nv := len(l.cells[0].Vehicles)
	run := &FleetAppRun{
		SpecKey:  l.key,
		BSCount:  len(l.cells[0].BSes),
		Vehicles: nv,
		Duration: l.duration,
	}
	vehOwner := func(i int) int {
		if l.districtShard == nil {
			return 0
		}
		return l.districtShard[l.lay.VehDistrict[i]]
	}
	bsOwner := func(i int) int {
		if l.districtShard == nil {
			return 0
		}
		return l.districtShard[l.lay.BSDistrict[i]]
	}
	run.PerVehicle = make([]workload.Metrics, nv)
	for i := 0; i < nv; i++ {
		run.PerVehicle[i] = l.drivers[vehOwner(i)][i].Stop()
	}
	run.Apps = workload.Aggregate(run.PerVehicle)
	for sh := 0; sh < l.eff; sh++ {
		st := l.cells[sh].Channel.Stats()
		run.Transmissions += st.Transmissions
		run.Collisions += st.Collisions
	}
	if l.recs[0] != nil {
		rec := l.recs[0]
		if l.eff > 1 {
			rec = mergeFaultRecorders(l.recs)
		}
		run.Faults = rec.report(l.tl)
	}

	// Occupancy sample: read-only with respect to the metrics above (the
	// drivers have already stopped), so it cannot perturb any report.
	var nbr []radio.NodeID
	for i := range l.cells[0].BSes {
		c := l.cells[bsOwner(i)]
		bs := c.BSes[i]
		now := c.K.Now()
		run.FreshPeersBS += float64(len(bs.Probs().FreshLocalPeers(bs.Addr(), now)))
		run.ReportBS += float64(len(bs.Probs().Report(bs.Addr(), now)))
		nbr = c.Channel.NeighborIDs(c.BSRadioIDs[i], nbr[:0])
		run.GridNbrsBS += float64(len(nbr))
	}
	if n := float64(run.BSCount); n > 0 {
		run.FreshPeersBS /= n
		run.ReportBS /= n
		run.GridNbrsBS /= n
	}
	for i := 0; i < nv; i++ {
		run.AuxPerVeh += float64(l.cells[vehOwner(i)].Vehicles[i].AuxCount())
	}
	if nv > 0 {
		run.AuxPerVeh /= float64(nv)
	}
	assembleLink(run, l.appcfg.CBRSlot)

	if n := l.width(); n > 1 {
		bsN, vehN := make([]int, n), make([]int, n)
		if l.haloLanes > 1 {
			bsN, vehN = l.cells[0].RadioLaneCounts() // live stripe ownership
		} else {
			for i := range l.lay.BSes {
				bsN[bsOwner(i)]++
			}
			for i := 0; i < nv; i++ {
				vehN[vehOwner(i)]++
			}
		}
		run.ShardExec = make([]ShardRunStats, n)
		for i := range run.ShardExec {
			run.ShardExec[i] = l.shardStat(i)
			run.ShardExec[i].BSes, run.ShardExec[i].Vehicles = bsN[i], vehN[i]
		}
		l.cells[0].StopRadioShards()
	}
	l.run = run
	return run
}

// runFleetApp is the one-shot driver behind the batch entry points: a
// LiveRun stepped to completion in one whole-run quantum (one RunUntil
// per kernel), then assembled. Only this batch path writes the package
// sinks — the shard log (TakeShardLog) and, for a positive interval, the
// run's recording (TakeRecordings); a stepped LiveRun carries both on
// itself (FleetAppRun.ShardExec, LiveRun.Recording).
func runFleetApp(seed int64, spec scenario.Spec, cfg core.Config, duration time.Duration, shards int, interval time.Duration, h runHooks) (*FleetAppRun, error) {
	l, err := startLiveRun(seed, spec, cfg, duration, shards, interval, nil, h)
	if err != nil {
		return nil, err
	}
	l.quantum = l.until
	l.Step()
	run := l.Finish()
	run.Collector = h.col
	if run.ShardExec != nil {
		logShards(ShardLogEntry{SpecKey: l.key, Shards: len(run.ShardExec), Halo: l.haloLanes > 1, Stats: run.ShardExec})
	}
	logRecording(l.Recording())
	return run, nil
}

// End returns the run's final sim time (duration plus the drain second).
func (l *LiveRun) End() time.Duration { return l.until }

// Shards returns the kernel/sampler count (1 = serial or halo-sharded).
func (l *LiveRun) Shards() int { return l.eff }

// Lanes returns the halo delivery-lane count (0 when the run is not
// halo-sharded). Lane balance is visible live through the shard.* series.
func (l *LiveRun) Lanes() int { return l.haloLanes }

// Recording returns the run-wide recording up to the last barrier, nil
// when sampling is disabled: with one kernel the sampler's own recording,
// else the rows barrier has summed. It grows with every Step, so read it
// between steps only; but a step only adds rows past the last barrier's
// and never writes one below it, so a Snapshot taken between steps may be
// read from any goroutine while later steps run.
func (l *LiveRun) Recording() *obs.Recording { return l.merged }

// Abandon releases what a run that will not be finished still holds — the
// worker goroutines of its halo lanes. It must not be stepped afterwards.
func (l *LiveRun) Abandon() { l.cells[0].StopRadioShards() }
