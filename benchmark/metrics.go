package main

import (
	"encoding/json"
	"sort"

	"github.com/vanlan/vifi/internal/stats"
)

// metricDecl declares one metric of the benchmark. The tables below are
// the single source of the names: BENCHMARK.json is printed from them
// (-print-benchmark-json) and the smoke test checks the two agree.
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	// SameSeed is the bound -compare applies where it can pair the two
	// runs' ops by seed; it is not part of BENCHMARK.json.
	SameSeed float64 `json:"-"`
}

// runSeconds is how long one driver run measures: with ops of 1–2 s,
// three or more of every sub-seed. Three workloads leave the PR driver
// time for runs this long.
const runSeconds = 40

// End-to-end metrics: what someone regenerating the paper's evaluation or
// hosting a session pays. Each is the mean over a run's sub-seeds of the
// median over the sub-seed's ops, the times divided by the host factor
// (runner.go: endToEndStats). A metric has two bounds, each the share of
// the parent's value by which it may worsen (README.md has the
// measurements behind both):
//
//   - Bound, declared in BENCHMARK.json, is for runs made on different
//     seeds, which is how the PR driver compares. It has to cover how far a
//     run's value moves between seeds.
//   - SameSeed is for two runs on the same seeds, which is how -compare
//     judges two full runs: sub-seed against sub-seed, so the seeds' own
//     spread drops out. Allocation repeats to 0.1 % for a seed and gets
//     ISSUE 11's 2 %; the times keep 25 %, because the sizing host's speed
//     moves them by more than the host factor takes out (README.md).
//     setup_s has no seed.
var endToEnd = []metricDecl{
	{"wall_s", "s", "lower", 0.25, 0.25},
	{"cpu_s", "s", "lower", 0.25, 0.25},
	{"peak_rss_mb", "MB", "lower", 0.15, 0.10},
	{"alloc_mb", "MB", "lower", 0.20, 0.02},
	{"mallocs_k", "k", "lower", 0.20, 0.02},
	{"setup_s", "s", "lower", 0.25, 0},
}

// setupFloorS is the absolute slack on setup_s: a 2 ms build may move by
// a millisecond without that meaning anything.
const setupFloorS = 0.005

func lower(unit string, names ...string) []metricDecl {
	return decls(unit, "lower", names)
}

func higher(unit string, names ...string) []metricDecl {
	return decls(unit, "higher", names)
}

func decls(unit, better string, names []string) []metricDecl {
	out := make([]metricDecl, len(names))
	for i, n := range names {
		out[i] = metricDecl{Name: n, Unit: unit, Better: better}
	}
	return out
}

// Per-layer metrics, grouped by the layer (internal/ package) they
// describe. Counts come from the traced op's obs recording and repeat
// exactly for a seed; *_ns/_us/_ms come from probes.go.
var perLayer = concat(
	// sim
	lower("count", "sim.events", "sim.heap_mean", "sim.heap_max"),
	lower("ns", "sim.ns_per_event", "sim.dispatch_ns", "sim.cancel_ns"),
	higher("1/s", "sim.events_per_s"),
	// radio
	lower("count", "radio.tx", "radio.deliveries", "radio.collisions", "radio.halfduplex", "radio.losses"),
	lower("ratio", "radio.deliveries_per_tx"),
	lower("ns", "radio.broadcast_ns", "radio.busy_ns"),
	higher("bool", "radio.indexed"),
	// mac, frame
	lower("ns", "mac.send_ns", "mac.beacon_ns", "frame.marshal_ns", "frame.unmarshal_ns", "frame.beacon_unmarshal_ns"),
	// core
	lower("count", "core.src_tx", "core.src_drop", "core.salvage_req", "core.anchor_changes"),
	higher("count", "core.delivered", "core.salvaged"),
	higher("ratio", "core.delivery_ratio"),
	lower("count", "core.index_local_mean", "core.index_gossip_mean", "core.aux_mean"),
	lower("ns", "core.prob_beacon_ns", "core.relay_prob_ns"),
	// backplane
	lower("count", "bp.sent", "bp.dropped"),
	higher("count", "bp.delivered"),
	lower("B", "bp.bytes"),
	lower("ns", "bp.send_ns"),
	// transport, workload
	lower("us", "transport.transfer_us"),
	workloadCounts(),
	lower("ns", "workload.tick_ns"),
	// scenario, trace
	lower("ms", "scenario.generate_ms", "trace.generate_ms"),
	// obs
	lower("count", "obs.rows", "obs.series"),
	lower("ns", "obs.sample_ns"),
	lower("ms", "obs.encode_ms"),
	lower("B", "obs.bytes_per_row"),
	lower("ratio", "obs.overhead_frac"),
	// experiment
	lower("ms", "experiment.setup_ms", "experiment.run_ms", "experiment.finish_ms", "experiment.report_ms",
		"experiment.step_ms_p50", "experiment.step_ms_p95"),
	higher("ratio", "experiment.sim_s_per_wall_s"),
	lower("count", "experiment.jobs"),
	higher("count", "experiment.cache_hits"),
	// shard
	higher("count", "shard.lanes"),
	lower("count", "shard.rounds", "shard.stalled", "shard.computed"),
	lower("ratio", "shard.imbalance", "shard.cpu_ratio"),
	higher("ratio", "shard.speedup", "shard.efficiency", "shard.coupled_speedup"),
	// host
	higher("count", "host.nproc", "host.gomaxprocs"),
	lower("ms", "host.calib_ms", "host.gc_pause_ms"),
	lower("ratio", "host.factor"),
	lower("count", "host.gc_cycles"),
	lower("ratio", "host.gc_cpu_frac"),
	// model
	higher("ratio", "model.explained_frac"),
)

var appKinds = []string{"cbr", "tcp", "voip", "web"}

func workloadCounts() []metricDecl {
	var out []metricDecl
	for _, k := range appKinds {
		out = append(out, higher("count", "workload."+k+".delivered", "workload."+k+".completed")...)
		out = append(out, lower("count", "workload."+k+".aborted")...)
	}
	return out
}

func concat(groups ...[]metricDecl) []metricDecl {
	var out []metricDecl
	for _, g := range groups {
		out = append(out, g...)
	}
	return out
}

// benchmarkJSON renders BENCHMARK.json.
func benchmarkJSON() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	doc := struct {
		Command    []string     `json:"command"`
		Paths      []string     `json:"paths"`
		RunSeconds int          `json:"run_seconds"`
		Workloads  []wl         `json:"workloads"`
		EndToEnd   []e2e        `json:"end_to_end"`
		PerLayer   []metricDecl `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.name, w.why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// stat summarises one metric over a run. Values[i] is the lowest reading
// among the ops that simulated Seeds[i] and Value, the metric, their mean;
// set-up timings have no seeds, Values holds them all and Value is Q1
// (endToEndStats says why).
type stat struct {
	Value  float64   `json:"value"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	N      int       `json:"n"`
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Seeds  []int64   `json:"seeds,omitempty"`
}

func summarize(values []float64, seeds []int64, unit string) stat {
	q1, _, q3 := quartiles(values)
	var sum float64
	for _, v := range values {
		sum += v
	}
	return stat{Value: ratio(sum, float64(len(values))), Q1: q1, Q3: q3, N: len(values), Unit: unit, Values: values, Seeds: seeds}
}

// quartiles returns the cut points Python's statistics.quantiles(xs, n=4)
// gives (the exclusive method), so spreads computed here and by the
// driver agree. Fewer than two values have no spread.
func quartiles(xs []float64) (q1, med, q3 float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// trimmedMean is the mean of xs without the lowest and the highest tenth.
func trimmedMean(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	s = s[len(s)/10 : len(s)-len(s)/10]
	var sum float64
	for _, x := range s {
		sum += x
	}
	return ratio(sum, float64(len(s)))
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// quantile is the repository's own quantile rule, for the percentiles
// that are not compared with the driver's.
func quantile(xs []float64, q float64) float64 {
	var s stats.Sample
	s.AddAll(xs...)
	return s.Quantile(q)
}
