package experiment

import (
	"fmt"
	"strconv"
	"sync"
	"time"

	"github.com/vanlan/vifi/internal/core"
	"github.com/vanlan/vifi/internal/sim"
	"github.com/vanlan/vifi/internal/trace"
	"github.com/vanlan/vifi/internal/workload"
)

// This file defines the engine's job vocabulary for the paper's testbeds
// (the fleet runs' FleetApp is in fleetapp.go) and the DieselNet trace
// memo the testbed cells read. Runs are memoized in the engine's
// run-cache, so figures that need the same run share one execution.

// Testbed schedules one run of the paper's own evaluation: one vehicle on
// the environment's testbed under a workload kind — CBR is the §5.2
// link-layer probe, TCP the §5.3.1 transfer loop, VoIP the §5.3.2 G.729
// call. The probe disables link-layer retransmissions (the application
// runs keep cfg's ≤3), so its key is normalized the same way: probe
// configurations differing only in MaxRetx share one run.
// collect attaches an event Collector (Fig 9, Fig 12, Table 1 and Table 2
// read it); a collecting and a plain run are two runs.
func (e *Engine) Testbed(seed int64, env Env, kind workload.Kind, cfg core.Config, dur time.Duration, collect bool) Future[*TestbedRun] {
	name := kind.String()
	if kind == workload.CBRKind {
		cfg.MaxRetx = 0
		name = "probe"
	}
	key := JobKey{Kind: "testbed", Seed: seed, Env: env, Cfg: cfg, Dur: dur, Extra: fmt.Sprintf("%s collect=%t", name, collect)}
	return Future[*TestbedRun]{f: e.memoize(key, func() any {
		k := sim.NewKernel(seed)
		var col *Collector
		var events core.EventFunc
		if collect {
			col = NewCollector()
			events = col.Handle
		}
		cell, dur := e.buildCell(k, env, cfg, events, dur)
		return runTestbed(k, cell, kind, dur, col, e.metricsInterval,
			runMeta(name, env.String(), seed, 1, dur, cfg))
	})}
}

// VanLANProbes schedules generation of the §3 VanLAN measurement trace
// used by Figs 2–5 and 7 (Fig 2 subsets it with ProbeTrace.Subset). Equal
// (seed, trips) share one trace.
func (e *Engine) VanLANProbes(seed int64, trips int) Future[*trace.ProbeTrace] {
	key := JobKey{Kind: "vanlan-probes", Seed: seed, Extra: "trips=" + strconv.Itoa(trips)}
	return Future[*trace.ProbeTrace]{f: e.memoize(key, func() any {
		return trace.GenerateVanLANProbes(seed, trips)
	})}
}

// DieselNetTrace schedules synthesis of a DieselNet beacon trace (Fig 5)
// through the engine's trace memo.
func (e *Engine) DieselNetTrace(seed int64, channel int, dur time.Duration) Future[*trace.Trace] {
	return goJob(e, func() *trace.Trace { return e.dieselNet(seed, channel, dur) })
}

// traceKey names one synthetic DieselNet trace.
type traceKey struct {
	seed    int64
	channel int
	dur     time.Duration
}

// dieselNet returns the engine's DieselNet trace for (seed, channel, dur),
// generating it on first use: the generation sweep dominates short
// DieselNet runs, so every job of one engine shares each trace. It runs
// inline in the calling job, never as a pool job (jobs are leaves):
// distinct traces generate in parallel, and a same-key caller blocks only
// on that one generation. The trace is read-only once generated.
func (e *Engine) dieselNet(seed int64, channel int, dur time.Duration) *trace.Trace {
	key := traceKey{seed, channel, dur}
	e.mu.Lock()
	gen, ok := e.traces[key]
	if !ok {
		gen = sync.OnceValue(func() *trace.Trace { return trace.GenerateDieselNet(seed, channel, dur) })
		e.traces[key] = gen
	}
	e.mu.Unlock()
	return gen()
}
