package experiment

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"github.com/vanlan/vifi/internal/radio"
	"github.com/vanlan/vifi/internal/scenario"
)

// This file carries sharded single-scenario execution in its two exact
// forms:
//
//   - Districts (districted cities): K groups of districts, each group a
//     full sim.Kernel that runs to the caller's next barrier on its own
//     and exchanges nothing with the others. Exact because districts
//     share nothing: moats wider than the radio conflict reach, a gateway
//     each, routes that stay inside (DESIGN §10); a backplane send that
//     would cross the boundary panics.
//
//   - Halo (un-districted cities): one kernel whose radio channel fans
//     each broadcast's delivery computations out across K stripe-owned
//     worker lanes (radio.StartShards), replaying halo-band transmissions
//     — deliveries whose transmitter is homed in another stripe — on the
//     receiver-owning lane with the same per-link label-derived RNG
//     streams as serial. Exact because the kernel's event order is
//     untouched; only the draw-site moves.
//
// Either way the sharded run is byte-identical to the serial run at any
// K. Both rely on a finite radio cutoff: every spec but a trace-driven
// testbed has one, so every other request for K ≥ 2 gets one of the two.
// A trace-driven testbed runs serially at any K.

// ShardRunStats is one shard's execution diagnostics after a sharded run.
// A district kernel fills Events (the events it executed) and the owned
// counts; the remaining fields are halo-lane vocabulary.
type ShardRunStats struct {
	Shard    int
	BSes     int    // basestations owned (full protocol stacks)
	Vehicles int    // fleet slots owned
	Events   uint64 // kernel events run, or a lane's delivery decisions
	Rounds   int    // broadcast dispatches the lane took part in
	Stalled  int    // dispatches in which the lane had nothing to compute
	HaloSent int    // deliveries other lanes computed for this lane's transmitters
	HaloRecv int    // deliveries this lane computed for another lane's transmitters
}

// ShardLogEntry records one sharded execution for command-line
// diagnostics (vifi-sim/vifi-bench print these on stderr). Halo marks
// single-kernel stripe-lane execution.
type ShardLogEntry struct {
	SpecKey string
	Shards  int
	Halo    bool
	Stats   []ShardRunStats
}

var (
	shardLogMu sync.Mutex
	shardLog   []ShardLogEntry
)

// TakeShardLog drains the recorded sharded executions, sorted by spec
// key for stable output under a parallel engine.
func TakeShardLog() []ShardLogEntry {
	shardLogMu.Lock()
	defer shardLogMu.Unlock()
	out := shardLog
	shardLog = nil
	sort.Slice(out, func(i, j int) bool { return out[i].SpecKey < out[j].SpecKey })
	return out
}

func logShards(e ShardLogEntry) {
	shardLogMu.Lock()
	shardLog = append(shardLog, e)
	shardLogMu.Unlock()
}

// FprintShardLog renders drained shard-log entries for the commands'
// stderr diagnostics: per district kernel the owned node counts and
// events executed; per halo lane also the dispatch rounds (and how many
// it sat idle) and the halo traffic.
func FprintShardLog(w io.Writer, entries []ShardLogEntry) {
	for _, e := range entries {
		if e.Halo {
			fmt.Fprintf(w, "halo-sharded run (%d lanes): %s\n", e.Shards, e.SpecKey)
			for _, s := range e.Stats {
				fmt.Fprintf(w, "  lane %d: %d BS / %d veh · %d deliveries computed · %d rounds (%d idle) · halo %d sent / %d recv\n",
					s.Shard, s.BSes, s.Vehicles, s.Events, s.Rounds, s.Stalled, s.HaloSent, s.HaloRecv)
			}
			continue
		}
		fmt.Fprintf(w, "sharded run (%d shards): %s\n", e.Shards, e.SpecKey)
		for _, s := range e.Stats {
			fmt.Fprintf(w, "  shard %d: %d BS / %d veh · %d events\n", s.Shard, s.BSes, s.Vehicles, s.Events)
		}
	}
}

// shardMode selects the execution strategy the planner proved exact.
type shardMode int

const (
	shardModeSerial    shardMode = iota
	shardModeDistricts           // districted: K independent kernels
	shardModeHalo                // un-districted: stripe lanes in one kernel
)

// shardPlanResult is the planner's decision: the mode, the effective
// parallelism (district kernels or halo lanes; 1 for serial) and the
// district→shard map (districts mode only).
type shardPlanResult struct {
	mode          shardMode
	eff           int
	districtShard []int
}

// shardPlan decides how a spec runs at the requested shard count. Both
// sharded modes rely on the finite cutoff of a generated cell's default
// links, which makes reception state a pure function of in-range peers.
// Districted specs get one kernel per district group (districts are
// separated by more than the radio conflict reach; balanced contiguous
// district groups, clamped to the district count). Un-districted specs get
// halo lanes at any population: the stripes share radio edges, so the
// partition moves inside the kernel (see radio.StartShards; clamped to
// radio.MaxShardLanes — the request is outside input, and every lane is a
// worker goroutine). Below two shards the run is serial, and so is a
// trace-driven testbed: its links replay a trace at any distance, so no
// cutoff bounds a stripe's reach.
func shardPlan(spec scenario.Spec, shards int) shardPlanResult {
	if shards < 2 || spec.Topology.TraceChannel() != 0 {
		return shardPlanResult{mode: shardModeSerial, eff: 1}
	}
	if d := spec.Districts; d >= 2 {
		if shards > d {
			shards = d
		}
		m := make([]int, d)
		for i := range m {
			m[i] = i * shards / d
		}
		return shardPlanResult{mode: shardModeDistricts, eff: shards, districtShard: m}
	}
	return shardPlanResult{mode: shardModeHalo, eff: min(shards, radio.MaxShardLanes)}
}
