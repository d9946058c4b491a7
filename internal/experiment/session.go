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

// This file carries the fleet execution session: the build / advance /
// finish phases of a fleet application run, factored out of the one-shot
// runners so a serving frontend can hold a run open, advance it in
// barrier-aligned steps, sample metrics between steps, and still produce
// the byte-identical FleetAppRun the batch path computes. The batch
// runner (RunFleetAppWorkload) builds a session and drives the same step
// loop to completion in one call.

// fleetSession is one fleet application execution between build and
// finish. eff==1 runs a single kernel — serially, or with the channel's
// delivery fan-out halo-sharded across stripe lanes (haloLanes>1) when
// the planner chose shardModeHalo; eff>1 runs one independent kernel per
// district group (districted specs). Every kernel runs the one setup
// sequence — the serial run is the one-shard case, with an all-local
// placement — which is what the sampling-identity and shard-identity
// goldens pin.
type fleetSession struct {
	seed     int64
	spec     scenario.Spec
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

	samplers []*obs.Sampler

	cursor time.Duration // the last barrier every kernel reached
	ran    bool
}

// newFleetSession builds the full simulation state for one fleet run:
// kernels, cells, fault plan, workload drivers — everything up to (but
// not including) the first executed event.
func newFleetSession(seed int64, spec scenario.Spec, cfg core.Config, duration time.Duration, shards int) (*fleetSession, error) {
	opts := core.DefaultCellOptions()
	opts.Protocol = cfg
	plan := shardPlan(spec, shards)
	eff := 1 // kernel count; the halo mode parallelizes inside one kernel
	if plan.mode == shardModeDistricts {
		eff = plan.eff
	}

	fs, err := spec.FaultSpec()
	if err != nil {
		return nil, err
	}
	s := &fleetSession{
		seed: seed, spec: spec, cfg: cfg,
		duration: duration, until: duration + time.Second,
		key: spec.Key(), appcfg: spec.AppConfig(),
		eff: eff, districtShard: plan.districtShard,
		kernels: make([]*sim.Kernel, eff),
		cells:   make([]*core.Cell, eff),
		recs:    make([]*faultRecorder, eff),
		drivers: make([][]workload.Driver, eff),
	}

	for sh := 0; sh < eff; sh++ {
		k := sim.NewKernel(seed)
		cell, lay, err := scenario.BuildCell(k, spec, opts, plan.districtShard, sh)
		if err != nil {
			return nil, err
		}
		s.kernels[sh], s.cells[sh], s.lay = k, cell, lay

		// Faults first, then the workload mix, then the drivers — only
		// the driver set is filtered to locally owned fleet slots.
		nv := len(cell.Vehicles)
		if !fs.Empty() {
			s.tl = fault.Plan(k, s.key, fs, duration, len(cell.BSes), nv)
			s.recs[sh] = newFaultRecorder(k, duration)
			scenario.InstallFaults(k, cell, &s.tl, s.recs[sh].restored)
		}
		kinds := make([]workload.Kind, nv)
		if spec.App == workload.MixedKind {
			kinds = workload.SplitKinds(k.RNG("workload", s.key, "mix"), s.appcfg.Mix, nv)
		} else {
			for i := range kinds {
				kinds[i] = spec.App
			}
		}
		if sh == 0 {
			s.kinds = kinds
		}
		s.drivers[sh] = make([]workload.Driver, nv)
		for i := 0; i < nv; i++ {
			if !cell.LocalVehicle(i) {
				continue
			}
			start := lay.Departs[i] + fleetWarm +
				appStagger(kinds[i], s.appcfg)*time.Duration(i)/time.Duration(nv)
			end := duration
			if start > end {
				start = end // departed too late: zero-length session
			}
			rng := k.RNG("workload", s.key, "veh", strconv.Itoa(i))
			d := workload.New(k, s.appcfg, kinds[i], workload.CellPort(cell, i), i, start, end, rng)
			if s.recs[sh] != nil {
				s.recs[sh].bind(cell, i, d)
			} else {
				workload.Bind(cell, i, d)
			}
			d.Start()
			s.drivers[sh][i] = d
		}
	}

	if plan.mode == shardModeHalo {
		// Halo-band sharding: one kernel, serial event order, with the
		// channel's per-broadcast delivery fan-out partitioned across
		// stripe-owned lanes. Engaged only after the whole cell is built
		// so every radio is attached first. Only a reach-less channel
		// declines, and a validated spec never builds one.
		if got := s.cells[0].StartRadioShards(plan.eff); got != plan.eff {
			panic(fmt.Sprintf("experiment: channel started %d of %d planned halo lanes", got, plan.eff))
		}
		s.haloLanes = plan.eff
	}
	return s, nil
}

// attachMetrics installs one obs sampler per shard at the given cadence.
// Must be called after newFleetSession and before the first step — the
// samplers are pure observers (no RNG, no state mutation), so the run's
// outcome is byte-identical with or without them. onSample, when
// non-nil, fires synchronously on each shard's tick with a transient
// view of the sampled row.
func (s *fleetSession) attachMetrics(interval time.Duration, onSample func(shard int, at time.Duration, row []int64)) {
	meta := runMeta("fleetapp", s.key, s.seed, s.width(), s.duration, s.cfg)
	s.samplers = make([]*obs.Sampler, s.eff)
	for sh := 0; sh < s.eff; sh++ {
		reg := buildRegistry(s.kernels[sh], s.cells[sh], s.drivers[sh], s.kinds)
		s.addShardSeries(reg, sh)
		s.samplers[sh] = obs.Attach(s.kernels[sh], reg, interval, s.until, meta)
		if onSample != nil {
			sh := sh
			s.samplers[sh].SetOnSample(func(at time.Duration, row []int64) { onSample(sh, at, row) })
		}
	}
}

// width is the run's effective parallelism: district kernels or halo
// lanes, 1 when serial.
func (s *fleetSession) width() int {
	if s.haloLanes > 1 {
		return s.haloLanes
	}
	return s.eff
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
func (s *fleetSession) shardStat(i int) ShardRunStats {
	if s.eff > 1 {
		return ShardRunStats{Shard: i, Events: s.kernels[i].EventsRun()}
	}
	ls := s.cells[0].Channel.LaneStat(i)
	return ShardRunStats{Shard: i, Events: ls.Computed, Rounds: int(ls.Rounds),
		Stalled: int(ls.Idle), HaloSent: int(ls.HaloSent), HaloRecv: int(ls.HaloRecv)}
}

// step advances every kernel to the next barrier — one quantum of sim
// time past the last, clamped to the end of the run — and reports the
// barrier's sim time plus completion. Successive RunUntil calls compose
// exactly, and district kernels share nothing (DESIGN §10), so where the
// barriers fall changes no result: a lone kernel runs on the caller's
// goroutine, several run on one goroutine each and are joined here.
// Nothing outlives the call. A kernel's panic is re-raised on the caller
// once every other kernel has reached the barrier, so it surfaces as a
// panic out of step rather than a process crash.
func (s *fleetSession) step(quantum time.Duration) (time.Duration, bool) {
	next := min(s.cursor+quantum, s.until)
	if len(s.kernels) == 1 {
		s.kernels[0].RunUntil(next)
	} else {
		panics := make([]any, len(s.kernels))
		var wg sync.WaitGroup
		for i, k := range s.kernels {
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
	s.cursor = next
	s.ran = next >= s.until
	return next, s.ran
}

// recording merges the per-shard sampler recordings into the run-wide
// view (elementwise sums over an identical schema). Nil when metrics
// were never attached.
func (s *fleetSession) recording() *obs.Recording {
	if s.samplers == nil {
		return nil
	}
	recs := make([]*obs.Recording, len(s.samplers))
	for i, sp := range s.samplers {
		recs[i] = sp.Recording()
	}
	merged, err := obs.Merge(recs)
	if err != nil {
		panic("experiment: shard recordings diverged: " + err.Error())
	}
	return merged
}

// finish assembles the FleetAppRun, merging per-shard state in global
// node order so every float accumulation and slice append happens in
// exactly the serial iteration order.
func (s *fleetSession) finish() *FleetAppRun {
	if !s.ran {
		panic("experiment: fleet session finish before completion")
	}
	nv := len(s.cells[0].Vehicles)
	run := &FleetAppRun{
		SpecKey:  s.key,
		App:      s.spec.App,
		BSCount:  len(s.cells[0].BSes),
		Vehicles: nv,
		Duration: s.duration,
	}
	vehOwner := func(i int) int {
		if s.districtShard == nil {
			return 0
		}
		return s.districtShard[s.lay.VehDistrict[i]]
	}
	bsOwner := func(i int) int {
		if s.districtShard == nil {
			return 0
		}
		return s.districtShard[s.lay.BSDistrict[i]]
	}
	run.PerVehicle = make([]workload.Metrics, nv)
	for i := 0; i < nv; i++ {
		run.PerVehicle[i] = s.drivers[vehOwner(i)][i].Stop()
	}
	run.Apps = workload.Aggregate(run.PerVehicle)
	for sh := 0; sh < s.eff; sh++ {
		st := s.cells[sh].Channel.Stats()
		run.Transmissions += st.Transmissions
		run.Collisions += st.Collisions
	}
	if s.recs[0] != nil {
		rec := s.recs[0]
		if s.eff > 1 {
			rec = mergeFaultRecorders(s.recs)
		}
		run.Faults = rec.report(s.tl)
	}

	// Occupancy sample: read-only with respect to the metrics above (the
	// drivers have already stopped), so it cannot perturb any report.
	var nbr []radio.NodeID
	for i := range s.cells[0].BSes {
		c := s.cells[bsOwner(i)]
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
		run.AuxPerVeh += float64(s.cells[vehOwner(i)].Vehicles[i].AuxCount())
	}
	if nv > 0 {
		run.AuxPerVeh /= float64(nv)
	}
	assembleLink(run, s.appcfg.CBRSlot)

	if n := s.width(); n > 1 {
		bsN, vehN := make([]int, n), make([]int, n)
		if s.haloLanes > 1 {
			bsN, vehN = s.cells[0].RadioLaneCounts() // live stripe ownership
		} else {
			for i := range s.lay.BSes {
				bsN[bsOwner(i)]++
			}
			for i := 0; i < nv; i++ {
				vehN[vehOwner(i)]++
			}
		}
		run.ShardExec = make([]ShardRunStats, n)
		for i := range run.ShardExec {
			run.ShardExec[i] = s.shardStat(i)
			run.ShardExec[i].BSes, run.ShardExec[i].Vehicles = bsN[i], vehN[i]
		}
		s.cells[0].StopRadioShards()
	}
	return run
}

// runFleetApp is the one-shot driver behind the batch entry points:
// build, optionally attach metrics, step to completion in one whole-run
// quantum (one RunUntil per kernel), assemble. Only this batch path
// writes the package sinks — the shard log (TakeShardLog) and, for a
// positive interval, the run's recording (TakeRecordings); a LiveRun
// carries both on itself (FleetAppRun.ShardExec, LiveRun.Recording).
func runFleetApp(seed int64, spec scenario.Spec, cfg core.Config, duration time.Duration, shards int, interval time.Duration) (*FleetAppRun, error) {
	s, err := newFleetSession(seed, spec, cfg, duration, shards)
	if err != nil {
		return nil, err
	}
	if interval > 0 {
		s.attachMetrics(interval, nil)
	}
	s.step(s.until)
	run := s.finish()
	if run.ShardExec != nil {
		logShards(ShardLogEntry{SpecKey: s.key, Shards: len(run.ShardExec), Halo: s.haloLanes > 1, Stats: run.ShardExec})
	}
	logRecording(s.recording())
	return run, nil
}

// --- Live (stepped) execution ---------------------------------------------

// LiveRun is an interactively stepped fleet execution for the serving
// frontend: build once, advance in barrier-aligned steps, observe live
// metrics between steps, and finish into the identical FleetAppRun the
// batch runners produce for the same (seed, spec, cfg, duration,
// shards). Not safe for concurrent use; the serve layer serializes
// access per session.
type LiveRun struct {
	s       *fleetSession
	quantum time.Duration
	now     time.Duration
	done    bool
	run     *FleetAppRun
}

// StartLiveRun builds a fleet session for stepped execution. interval
// is the metrics sampling cadence (and the serial stepping quantum);
// non-positive disables sampling and steps in one-second quanta.
// onSample, when non-nil, fires on each shard's sampling tick.
func StartLiveRun(seed int64, spec scenario.Spec, cfg core.Config, duration time.Duration, shards int,
	interval time.Duration, onSample func(shard int, at time.Duration, row []int64)) (*LiveRun, error) {
	s, err := newFleetSession(seed, spec, cfg, duration, shards)
	if err != nil {
		return nil, err
	}
	quantum := interval
	if quantum <= 0 {
		quantum = time.Second
	}
	if interval > 0 {
		s.attachMetrics(interval, onSample)
	}
	return &LiveRun{s: s, quantum: quantum}, nil
}

// Step advances through one barrier; it returns the reached sim time
// and whether the run is complete. Calling Step after completion is a
// no-op returning (end, true).
func (l *LiveRun) Step() (time.Duration, bool) {
	if l.done {
		return l.now, true
	}
	t, done := l.s.step(l.quantum)
	l.now, l.done = t, done
	return t, done
}

// Now returns the last barrier's sim time.
func (l *LiveRun) Now() time.Duration { return l.now }

// Done reports whether the run has completed.
func (l *LiveRun) Done() bool { return l.done }

// End returns the session's final sim time (duration plus the drain
// second, matching the batch runners).
func (l *LiveRun) End() time.Duration { return l.s.until }

// Shards returns the kernel/sampler count (1 = serial or halo-sharded):
// the number of independent metric-sample contributors per tick, which
// is what the serve layer's merge threshold counts.
func (l *LiveRun) Shards() int { return l.s.eff }

// Lanes returns the halo delivery-lane count (0 when the run is not
// halo-sharded). Lane balance is visible live through the shard.* series.
func (l *LiveRun) Lanes() int { return l.s.haloLanes }

// SpecKey returns the scenario's canonical key.
func (l *LiveRun) SpecKey() string { return l.s.key }

// Series returns the registry schema (nil when sampling is disabled).
func (l *LiveRun) Series() []obs.SeriesDef {
	if l.s.samplers == nil {
		return nil
	}
	return l.s.samplers[0].Recording().Series
}

// Recording returns the merged run-wide recording so far. The merge is
// only coherent between steps (samplers are quiescent then); the serve
// layer calls it with the session lock held.
func (l *LiveRun) Recording() *obs.Recording { return l.s.recording() }

// Abandon releases what a run that will not be finished still holds — the
// worker goroutines of its halo lanes. It must not be stepped afterwards.
func (l *LiveRun) Abandon() { l.s.cells[0].StopRadioShards() }

// Finish assembles the final FleetAppRun (idempotent). It panics if the
// run has not completed.
func (l *LiveRun) Finish() *FleetAppRun {
	if l.run == nil {
		l.run = l.s.finish()
	}
	return l.run
}
