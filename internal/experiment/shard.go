package experiment

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"github.com/vanlan/vifi/internal/core"
	"github.com/vanlan/vifi/internal/radio"
	"github.com/vanlan/vifi/internal/scenario"
)

// This file carries sharded single-scenario execution in its two exact
// forms:
//
//   - Coupled (districted cities): K spatially partitioned shards, each
//     a full sim.Kernel advancing in bounded rounds under the
//     conservative coupler (internal/sim), with cross-shard backplane
//     messages exchanged at window barriers. Exact because districts are
//     separated by more than the radio conflict reach.
//
//   - Halo (un-districted indexed cities, PR 10): one kernel whose
//     indexed radio channel fans each broadcast's delivery computations
//     out across K stripe-owned worker lanes (radio.StartShards),
//     replaying halo-band transmissions — deliveries whose transmitter
//     is homed in another stripe — on the receiver-owning lane with the
//     same per-link label-derived RNG streams as serial. Exact because
//     the kernel's event order is untouched; only the draw-site moves.
//
// Either way the sharded run is byte-identical to the serial run at any
// K; anything the planner cannot prove exact falls back to serial, with
// the reason surfaced on the shard log instead of silently degrading.

// ShardRunStats is one shard's execution diagnostics after a sharded run.
type ShardRunStats struct {
	Shard    int
	BSes     int // basestations owned (full protocol stacks)
	Vehicles int // fleet slots owned
	Events   uint64
	Rounds   int
	Stalled  int // barrier rounds in which this shard ran no event
	HaloSent int // cross-shard events posted by this shard
	HaloRecv int // cross-shard events injected into this shard
}

// ShardLogEntry records one sharded execution — or one refused request —
// for command-line diagnostics (vifi-sim/vifi-bench print these on
// stderr). Halo marks single-kernel stripe-lane execution; a non-empty
// Reason marks a requested shard count that degraded to serial, with
// Stats nil.
type ShardLogEntry struct {
	SpecKey string
	Shards  int
	Halo    bool
	Reason  string
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
// stderr diagnostics: per shard, the owned node counts, events executed,
// barrier rounds (and how many stalled with no work), and halo traffic.
func FprintShardLog(w io.Writer, entries []ShardLogEntry) {
	for _, e := range entries {
		if e.Reason != "" {
			fmt.Fprintf(w, "sharded run requested (-shards %d) fell back to serial: %s: %s\n",
				e.Shards, e.SpecKey, e.Reason)
			continue
		}
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
			fmt.Fprintf(w, "  shard %d: %d BS / %d veh · %d events · %d rounds (%d stalled) · halo %d sent / %d recv\n",
				s.Shard, s.BSes, s.Vehicles, s.Events, s.Rounds, s.Stalled, s.HaloSent, s.HaloRecv)
		}
	}
}

// shardMode selects the execution strategy the planner proved exact.
type shardMode int

const (
	shardModeSerial  shardMode = iota
	shardModeCoupled           // districted: K coupled kernels
	shardModeHalo              // un-districted indexed: stripe lanes in one kernel
)

// shardPlanResult is the planner's decision: the mode, the effective
// parallelism (coupled kernels or halo lanes; 1 for serial), the
// district→shard map (coupled only), and — when a request for shards>1
// degraded to serial — the reason, so the CLIs can say so on stderr
// instead of silently running serial.
type shardPlanResult struct {
	mode          shardMode
	eff           int
	districtShard []int
	reason        string
}

// shardPlan decides how a spec runs at the requested shard count. Both
// sharded modes require the spatially indexed channel path, whose
// reception state is a pure function of in-range peers; the legacy full
// sweep folds every attached radio into per-receiver state, which
// neither ghost attachment nor stripe ownership can partition. Districted
// specs get coupled kernels (districts are separated by more than the
// radio conflict reach; balanced contiguous district groups, clamped to
// the district count). Un-districted indexed specs get halo lanes: the
// stripes share radio edges, so the partition moves inside the kernel
// (see radio.StartShards; clamped to radio.MaxShardLanes — the request is
// outside input, and every lane is a worker goroutine). Anything else
// falls back to serial with the reason recorded, keeping results
// byte-identical by construction.
func shardPlan(spec scenario.Spec, opts core.CellOptions, shards int) shardPlanResult {
	if shards < 2 {
		return shardPlanResult{mode: shardModeSerial, eff: 1}
	}
	if opts.LinkFactory != nil {
		return shardPlanResult{mode: shardModeSerial, eff: 1,
			reason: "custom LinkFactory keeps the full-sweep channel path (no derivable cutoff, no stripe plan)"}
	}
	threshold := opts.Radio.IndexThreshold()
	if n := spec.BS + spec.Vehicles; n < threshold {
		return shardPlanResult{mode: shardModeSerial, eff: 1,
			reason: fmt.Sprintf("population %d below the index threshold %d: full-sweep channel path has no stripe plan", n, threshold)}
	}
	if d := spec.Districts; d >= 2 {
		if shards > d {
			shards = d
		}
		m := make([]int, d)
		for i := range m {
			m[i] = i * shards / d
		}
		return shardPlanResult{mode: shardModeCoupled, eff: shards, districtShard: m}
	}
	return shardPlanResult{mode: shardModeHalo, eff: min(shards, radio.MaxShardLanes)}
}
