package experiment

import (
	"fmt"
	"time"

	"github.com/vanlan/vifi/internal/core"
	"github.com/vanlan/vifi/internal/workload"
)

// This file carries the two sharded-execution identity sweeps: one
// deployment executed serially and sharded, with and without a
// multi-layer chaos fault mix. scale-shard runs the districted metro as
// 2 and 4 coupled shard kernels; scale-shard-halo runs the un-districted
// metro grid — stripes sharing radio edges, the case the district
// partition has to refuse — with the delivery fan-out halo-sharded across
// 2, 4 and 8 stripe lanes. Unlike every other sweep, the interesting
// result is that the metric columns do NOT change down the rows —
// byte-identical cells across shard counts are the report-level proof
// that sharding is an execution strategy, not a model change. Wall-clock
// gains are measured by the benchmark/ module's traced pass: shard.speedup
// (grid-metro on two halo lanes) and shard.coupled_speedup
// (metro-districts on two coupled kernels).

// chaosFaults is the multi-layer fault mix of the sharded identity
// contract: basestation crash/restart, backplane brownouts with loss
// (exercising the per-port coin streams), and vehicle blackouts.
const chaosFaults = "bs:mtbf=2m0s:mttr=10s;bp:mtbf=2m0s:mttr=15s:rate=0.25:delay=20ms:loss=0.05;blackout:mtbf=1m30s:mttr=8s"

// shardArm pairs a shard (or halo lane) count with a fault variant. The
// chaos arms pin that fault injection — depth counters, cold restarts,
// radio mutes voiding in-flight frames, brownout coins — stays
// deterministic across the partition too.
type shardArm struct {
	label  string
	faults string
	shards int
}

var scaleShardArms = []shardArm{
	{"shards=1", "", 1},
	{"shards=2", "", 2},
	{"shards=4", "", 4},
	{"chaos shards=1", chaosFaults, 1},
	{"chaos shards=4", chaosFaults, 4},
}

var scaleShardHaloArms = []shardArm{
	{"lanes=1", "", 1},
	{"lanes=2", "", 2},
	{"lanes=4", "", 4},
	{"lanes=8", "", 8},
	{"chaos lanes=1", chaosFaults, 1},
	{"chaos lanes=4", chaosFaults, 4},
}

// shardSweep is one identity sweep: a preset deployment, the arms it
// is executed under, and the contract its report states.
type shardSweep struct {
	id, title string
	preset    string
	arms      []shardArm
	contract  string
}

// ScaleShard runs the metro-districts deployment at shard counts 1, 2
// and 4 — plain and under the chaos fault mix — and reports the same
// metric cells for each: equal rows across shard counts are the golden
// contract that sharded execution reproduces the serial run exactly.
func ScaleShard(o Options) *Report {
	return shardSweep{
		id:       "scale-shard",
		title:    "Sharded vs serial execution identity on a districted metro grid",
		preset:   "metro-districts",
		arms:     scaleShardArms,
		contract: "identity contract: every metric cell must be byte-identical across shard counts within a fault variant — the partition changes wall-clock execution, never the simulation",
	}.run(o)
}

// ScaleShardHalo runs the un-districted grid-metro deployment at halo
// lane counts 1, 2, 4 and 8 — plain and under the chaos fault mix: equal
// rows across lane counts are the golden contract that halo-band sharded
// execution reproduces the serial run exactly even when every stripe
// shares radio edges with its neighbors.
func ScaleShardHalo(o Options) *Report {
	return shardSweep{
		id:       "scale-shard-halo",
		title:    "Halo-band sharded vs serial execution identity on an un-districted metro grid",
		preset:   "grid-metro",
		arms:     scaleShardHaloArms,
		contract: "identity contract: every metric cell must be byte-identical across lane counts within a fault variant — the stripe partition moves delivery computations across worker lanes, never a coin flip or an event",
	}.run(o)
}

// run executes every arm of the sweep under its own shard count and fault
// variant, one report row each. Options.Scenario overrides the base
// deployment (its app is forced to cbr); Options.Shards is ignored — each
// arm pins its own count.
func (s shardSweep) run(o Options) *Report {
	r := &Report{
		ID:    s.id,
		Title: s.title,
		Header: []string{"arm", "BSes", "vehicles", "delivered/s", "delivery",
			"median session (s)", "avail", "recovery (s)"},
	}
	base, err := o.baseScenario(s.preset)
	if err != nil {
		r.AddNote("invalid -scenario: %v", err)
		return r
	}
	base = forceApp(base, workload.CBRKind)
	eng := o.engine()
	dur := time.Duration(o.scaled(240)) * time.Second
	futs := make([]Future[*FleetAppRun], len(s.arms))
	for i, arm := range s.arms {
		spec := base
		spec.Faults = arm.faults
		futs[i] = eng.FleetApp(o.Seed, spec, core.DefaultConfig(), dur, arm.shards)
	}
	for i, arm := range s.arms {
		run := futs[i].Wait()
		avail, rec := "-", "-"
		if f := run.Faults; f != nil {
			avail = pct1(f.Availability)
			rec = f2(f.RecoveryMeanSec)
		}
		r.AddRow(
			arm.label,
			fmt.Sprintf("%d", run.BSCount),
			fmt.Sprintf("%d", run.Vehicles),
			f1(run.DeliveredPerSec()),
			pct(run.DeliveryRatio()),
			f1(run.MedianSession(time.Second, 0.5)),
			avail, rec,
		)
	}
	r.AddNote("scenario base: %s", base.Key())
	r.AddNote("%s", s.contract)
	return r
}
