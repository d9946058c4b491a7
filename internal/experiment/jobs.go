package experiment

import (
	"strconv"
	"sync"
	"time"

	"github.com/vanlan/vifi/internal/scenario"
	"github.com/vanlan/vifi/internal/trace"
	"github.com/vanlan/vifi/internal/workload"
)

// This file defines the engine's job vocabulary for the paper's testbeds
// (every run is a FleetApp, fleetapp.go) and the DieselNet trace memo the
// trace-driven presets read. Runs are memoized in the engine's run-cache,
// so figures that need the same run share one execution.

// testbeds names the paper's environments (§5.1) by preset, in report
// order.
var testbeds = []struct{ preset, name string }{
	{"vanlan", "VanLAN"}, {"dieselnet1", "DieselNet Ch.1"}, {"dieselnet6", "DieselNet Ch.6"},
}

// testbedSpec returns a testbed preset running app: CBR is the §5.2
// link-layer probe, TCP the §5.3.1 transfer loop, VoIP the §5.3.2 G.729
// call.
func testbedSpec(preset string, app workload.Kind) scenario.Spec {
	spec, err := scenario.Preset(preset)
	if err != nil {
		panic(err) // callers name presets
	}
	spec.App = app
	return spec
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
