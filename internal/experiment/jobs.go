package experiment

import (
	"strconv"
	"time"

	"github.com/vanlan/vifi/internal/core"
	"github.com/vanlan/vifi/internal/trace"
)

// This file defines the engine's job vocabulary: one constructor per
// independently runnable simulation workload. Each returns a Future whose
// result is memoized in the engine's run-cache (except where noted), so
// figures that need the same run share one execution.

// Probe schedules the §5.2 link-layer probe workload. The workload forces
// MaxRetx to zero, so the key is normalized the same way: configurations
// differing only in MaxRetx share one run.
func (e *Engine) Probe(seed int64, env Env, cfg core.Config, dur time.Duration) Future[*FleetRun] {
	cfg.MaxRetx = 0
	key := JobKey{Kind: "probe", Seed: seed, Env: env, Cfg: cfg, Dur: dur}
	return Future[*FleetRun]{f: e.memoize(key, func() any {
		return RunProbeWorkload(seed, env, cfg, dur, nil, e.metricsInterval)
	})}
}

// ProbeCollect schedules a probe workload with an event collector
// attached. The collector is a side channel the run-cache cannot share,
// so these jobs are never memoized; the job owns the collector and
// returns it alongside the run.
func (e *Engine) ProbeCollect(seed int64, env Env, cfg core.Config, dur time.Duration) Future[*Collector] {
	return goJob(e, func() *Collector {
		col := NewCollector()
		RunProbeWorkload(seed, env, cfg, dur, col.Handle, 0)
		return col
	})
}

// TCP schedules the §5.3.1 repeated-transfer TCP workload. The returned
// TCPRun (stats and collector) is shared across figures; treat it as
// read-only.
func (e *Engine) TCP(seed int64, env Env, cfg core.Config, dur time.Duration) Future[*TCPRun] {
	key := JobKey{Kind: "tcp", Seed: seed, Env: env, Cfg: cfg, Dur: dur}
	return Future[*TCPRun]{f: e.memoize(key, func() any {
		run := RunTCPWorkload(seed, env, cfg, dur, e.metricsInterval)
		// Freeze lazily-sorting state before publication: Sample.Quantile
		// sorts in place, and two figures quantiling one cached run
		// concurrently would race on it.
		run.Stats.TransferTimes.Sort()
		return run
	})}
}

// VoIP schedules the §5.3.2 G.729 call workload.
func (e *Engine) VoIP(seed int64, env Env, cfg core.Config, dur time.Duration) Future[*VoIPRun] {
	key := JobKey{Kind: "voip", Seed: seed, Env: env, Cfg: cfg, Dur: dur}
	return Future[*VoIPRun]{f: e.memoize(key, func() any {
		return RunVoIPWorkload(seed, env, cfg, dur, e.metricsInterval)
	})}
}

// VanLANProbes schedules generation of the §3 VanLAN measurement trace
// used by Figs 2–5 and 7 (Fig 2 subsets it with ProbeTrace.Subset). Equal
// (seed, trips) share one trace.
func (e *Engine) VanLANProbes(seed int64, trips int) Future[*trace.ProbeTrace] {
	key := JobKey{Kind: "vanlan-probes", Seed: seed, Extra: "trips=" + strconv.Itoa(trips)}
	return Future[*trace.ProbeTrace]{f: e.memoize(key, func() any {
		cfg := trace.DefaultVanLANConfig(seed)
		cfg.Trips = trips
		return trace.GenerateVanLANProbes(cfg)
	})}
}

// DieselNetTrace schedules synthesis of a DieselNet beacon trace.
func (e *Engine) DieselNetTrace(seed int64, channel int, dur time.Duration) Future[*trace.Trace] {
	key := JobKey{Kind: "dntrace", Seed: seed, Dur: dur, Extra: strconv.Itoa(channel)}
	return Future[*trace.Trace]{f: e.memoize(key, func() any {
		return trace.GenerateDieselNet(seed, channel, dur)
	})}
}
