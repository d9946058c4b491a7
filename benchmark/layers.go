package main

import (
	"math"

	"github.com/vanlan/vifi/internal/mobility"
	"github.com/vanlan/vifi/internal/scenario"
)

// This file turns a workload's ops, traced op and probes into the
// per-layer metrics, and multiplies counts by unit costs for the cost
// model. README.md maps each metric to the end-to-end metric it should
// move.

// fleetSize returns the basestation and vehicle counts behind w: the
// city's, or VanLAN's for the paper figures.
func fleetSize(w workloadDef) (bs, vehicles int) {
	if w.spec == "" {
		return len(mobility.NewVanLAN().BSes), 1
	}
	spec, err := scenario.Parse(w.spec)
	if err != nil {
		return 1, 1 // the op itself reports a spec that does not parse
	}
	return spec.BS, spec.Vehicles
}

// operatingPoint reads the probes' operating point off a traced op. The
// occupancy gauges are cell-wide sums, so they are divided by the node
// count to get what one node's table holds.
func operatingPoint(w workloadDef, traced *opResult) probePoint {
	bs, veh := fleetSize(w)
	c := traced.Counts
	atLeast1 := func(v float64) int { return max(1, int(math.Round(v))) }
	return probePoint{
		w:      w,
		seed:   traced.Seed,
		heap:   atLeast1(c["sim.heap_mean"]),
		peers:  atLeast1(c["core.index_local_mean"] / float64(bs)),
		aux:    atLeast1(c["core.aux_mean"] / float64(veh)),
		series: max(1, traced.ObsSeries),
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics computes every per-layer metric of wr. A metric that does
// not apply to the workload (shard.* on a serial run, workload.web.* on
// a CBR fleet) reads 0.
func layerMetrics(wr *wlResult, e2e map[string]stat, host *fingerprint) map[string]float64 {
	out := map[string]float64{}
	for _, m := range perLayer {
		out[m.Name] = 0
	}
	tr := wr.traced
	if tr == nil {
		return out
	}
	c := tr.Counts
	wall, setup := e2e["wall_s"].Value, e2e["setup_s"].Value
	active := wall - setup

	// Counts, straight from the recording.
	for _, name := range []string{
		"sim.events", "radio.tx", "radio.deliveries", "radio.collisions", "radio.halfduplex", "radio.losses",
		"core.src_tx", "core.delivered", "core.src_drop", "core.salvage_req", "core.salvaged", "core.anchor_changes",
		"core.index_local_mean", "core.index_gossip_mean", "core.aux_mean",
		"bp.sent", "bp.delivered", "bp.dropped", "bp.bytes",
	} {
		out[name] = c[name]
	}
	out["sim.heap_mean"], out["sim.heap_max"] = c["sim.heap_mean"], c["sim.heap_max"]
	for _, app := range appKinds {
		for _, f := range []string{"delivered", "completed", "aborted"} {
			out["workload."+app+"."+f] = c["wl."+app+"."+f]
		}
	}
	out["sim.ns_per_event"] = ratio(active*1e9, c["sim.events"])
	out["sim.events_per_s"] = ratio(c["sim.events"], active)
	out["radio.deliveries_per_tx"] = ratio(c["radio.deliveries"], c["radio.tx"])
	out["core.delivery_ratio"] = deliveryRatio(c)

	// Unit costs, from the probes.
	for name, v := range wr.probes {
		out[name] = v
	}

	// obs: the traced op against untraced ops on the same seed.
	out["obs.rows"], out["obs.series"] = float64(tr.ObsRows), float64(tr.ObsSeries)
	out["obs.encode_ms"] = tr.ObsEncMs
	out["obs.bytes_per_row"] = ratio(float64(tr.ObsBytes), float64(tr.ObsRows))
	var same []float64
	for _, op := range wr.ops {
		if op.Seed == tr.Seed {
			same = append(same, op.WallS)
		}
	}
	if len(same) > 0 {
		out["obs.overhead_frac"] = tr.WallS/median(same) - 1
	}
	out["host.factor"] = hostFactor(wr.calib)

	// experiment: phase spans and step times over the untraced ops.
	var setupMs, runMs, finishMs, reportMs, steps, gcCycles, gcPause, gcFrac []float64
	for _, op := range wr.ops {
		setupMs = append(setupMs, op.SetupMs)
		runMs = append(runMs, op.RunMs)
		finishMs = append(finishMs, op.FinishMs)
		reportMs = append(reportMs, op.ReportMs)
		steps = append(steps, op.StepMs...)
		gcCycles = append(gcCycles, op.GCCycles)
		gcPause = append(gcPause, op.GCPauseMs)
		gcFrac = append(gcFrac, ratio(op.GCCPUS, op.CPUS))
	}
	out["experiment.setup_ms"], out["experiment.run_ms"] = median(setupMs), median(runMs)
	out["experiment.finish_ms"], out["experiment.report_ms"] = median(finishMs), median(reportMs)
	out["experiment.step_ms_p50"], out["experiment.step_ms_p95"] = quantile(steps, 0.5), quantile(steps, 0.95)
	simS := tr.SimS
	if simS == 0 {
		// The figures run many cells; their recordings hold one row per
		// simulated second.
		simS = float64(tr.ObsRows)
	}
	out["experiment.sim_s_per_wall_s"] = ratio(simS, active)
	out["experiment.jobs"], out["experiment.cache_hits"] = float64(tr.Jobs), float64(tr.CacheHits)

	// shard: lane balance and ratios of the sharded twin's ops against the
	// serial ops on the same seed, host times as measured: both sides ran
	// within the same minute.
	if k2 := wr.sharded; len(k2) > 0 {
		lanes := k2[0].ShardExec
		var sum, most float64
		for _, l := range lanes {
			sum += float64(l.Computed)
			most = math.Max(most, float64(l.Computed))
			out["shard.rounds"] = math.Max(out["shard.rounds"], float64(l.Rounds))
			out["shard.stalled"] += float64(l.Stalled)
		}
		out["shard.lanes"], out["shard.computed"] = float64(len(lanes)), sum
		out["shard.imbalance"] = ratio(most, sum/float64(len(lanes)))
		med := func(ops []*opResult, f func(*opResult) float64) float64 {
			var v []float64
			for _, op := range ops {
				if op.Seed == tr.Seed {
					v = append(v, f(op))
				}
			}
			return median(v)
		}
		wallOf := func(o *opResult) float64 { return o.WallS }
		cpuOf := func(o *opResult) float64 { return o.CPUS }
		out["shard.speedup"] = ratio(med(wr.ops, wallOf), med(k2, wallOf))
		out["shard.efficiency"] = ratio(out["shard.speedup"], float64(len(lanes)))
		out["shard.cpu_ratio"] = ratio(med(k2, cpuOf), med(wr.ops, cpuOf))
		out["shard.coupled_speedup"] = ratio(wr.coupled[0], wr.coupled[1])
	}

	out["host.nproc"], out["host.gomaxprocs"] = float64(host.NProc), float64(host.GOMAXPROCS)
	out["host.calib_ms"] = median(host.CalibMs)
	out["host.gc_cycles"], out["host.gc_pause_ms"] = median(gcCycles), median(gcPause)
	out["host.gc_cpu_frac"] = median(gcFrac)

	// The probes' unit costs are as the clock showed them, so the wall they
	// are held against is too.
	out["model.explained_frac"] = ratio(modelledNs(wr.w, out), active*out["host.factor"]*1e9)
	return out
}

// modelledNs is the cost model: Σ layer count × probe unit cost, in
// nanoseconds. Terms are chosen not to overlap: radio.broadcast_ns
// already holds the kernel events a broadcast causes, so the kernel term
// charges only the events the other terms do not explain.
func modelledNs(w workloadDef, m map[string]float64) float64 {
	tx, rx := m["radio.tx"], m["radio.deliveries"]
	// Every data transmission draws about one acknowledgment; the rest
	// of what is on the air is beacons.
	beacons := math.Max(0, tx-2*m["core.src_tx"])
	beaconRx := rx * ratio(beacons, tx)
	var appDelivered float64
	for _, app := range appKinds {
		appDelivered += m["workload."+app+".delivered"]
	}
	ns := tx * m["radio.broadcast_ns"]
	ns += tx*m["frame.marshal_ns"] + beaconRx*m["frame.beacon_unmarshal_ns"] + (rx-beaconRx)*m["frame.unmarshal_ns"]
	ns += beacons * m["core.prob_beacon_ns"]
	ns += m["bp.sent"] * m["bp.send_ns"]
	ns += appDelivered * m["workload.tick_ns"]
	if w.sample > 0 {
		ns += m["obs.rows"] * m["obs.sample_ns"]
	}
	ns += math.Max(0, m["sim.events"]-tx-rx-2*m["bp.sent"]) * m["sim.dispatch_ns"]
	return ns
}
