package experiment

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/vanlan/vifi/internal/core"
	"github.com/vanlan/vifi/internal/obs"
	"github.com/vanlan/vifi/internal/sim"
	"github.com/vanlan/vifi/internal/workload"
)

// This file wires the internal/obs metrics layer into the experiment
// runners: a registry builder exposing the simulation's counters and
// gauges as named series, a recording sink the batch CLIs drain (the
// same pattern as the shard log), and the engine/Options switches that
// turn periodic sampling on. Sampling is pure observation — the pulls
// below touch no RNG and mutate no simulation state — so every report
// and golden is byte-identical with it enabled.

// EnableMetrics turns on periodic metrics sampling for every run the
// engine executes, at the given sim-time cadence. Call it before
// scheduling any job: the interval is engine-constant, so memoization
// keys need no extra discriminator — a memoized job records exactly
// once, on the execution that computes it. Non-positive intervals
// disable sampling.
func (e *Engine) EnableMetrics(interval time.Duration) { e.metricsInterval = interval }

// --- Recording sink --------------------------------------------------------

var (
	recLogMu sync.Mutex
	recLog   []*obs.Recording
)

// TakeRecordings drains the recordings accumulated by metrics-enabled
// runs, sorted by their canonical meta string for stable output under a
// parallel engine.
func TakeRecordings() []*obs.Recording {
	recLogMu.Lock()
	defer recLogMu.Unlock()
	out := recLog
	recLog = nil
	sort.Slice(out, func(i, j int) bool { return metaKey(out[i]) < metaKey(out[j]) })
	return out
}

func logRecording(r *obs.Recording) {
	if r == nil {
		return
	}
	recLogMu.Lock()
	recLog = append(recLog, r)
	recLogMu.Unlock()
}

// metaKey renders a recording's meta map as a canonical sorted string.
func metaKey(r *obs.Recording) string {
	keys := make([]string, 0, len(r.Meta))
	for k := range r.Meta {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	s := ""
	for _, k := range keys {
		s += k + "=" + r.Meta[k] + " "
	}
	return s
}

// --- Registry construction -------------------------------------------------

// protoKinds lists the per-node protocol event counters exported as
// core.* series, in registration order.
var protoKinds = []struct {
	name string
	kind core.EventKind
}{
	{"core.src_tx", core.EvSrcTx},
	{"core.delivered", core.EvDeliver},
	{"core.src_drop", core.EvSrcDrop},
	{"core.salvage_req", core.EvSalvageReq},
	{"core.salvaged", core.EvSalvaged},
	{"core.anchor_changes", core.EvAnchorChange},
}

// wlKinds fixes the registration order of per-application series.
var wlKinds = []workload.Kind{workload.CBRKind, workload.TCPKind, workload.VoIPKind, workload.WebKind}

// buildRegistry registers the standard series schema over one kernel's
// cell: kernel progress, radio and backplane counters, protocol-state
// counters and occupancy summed over locally owned nodes, and live
// per-application workload counters. drivers/kinds may be nil (no
// workload drivers, e.g. the probe runs); sharded cells contribute only
// their non-nil (locally owned) nodes, so a merge across shards counts
// every node exactly once. Every pull is a pure, allocation-free read.
func buildRegistry(k *sim.Kernel, cell *core.Cell, drivers []workload.Driver, kinds []workload.Kind) *obs.Registry {
	reg := obs.NewRegistry()
	reg.Counter("sim.events", func() int64 { return int64(k.EventsRun()) })
	reg.Gauge("sim.heap", func() int64 { return int64(k.Pending()) })

	ch := cell.Channel
	reg.Counter("radio.tx", func() int64 { return int64(ch.Stats().Transmissions) })
	reg.Counter("radio.deliveries", func() int64 { return int64(ch.Stats().Deliveries) })
	reg.Counter("radio.collisions", func() int64 { return int64(ch.Stats().Collisions) })
	reg.Counter("radio.halfduplex", func() int64 { return int64(ch.Stats().HalfDuplex) })
	reg.Counter("radio.losses", func() int64 { return int64(ch.Stats().ChannelLosses) })

	bp := cell.Backplane
	reg.Counter("bp.sent", func() int64 { return int64(bp.Stats().Sent) })
	reg.Counter("bp.delivered", func() int64 { return int64(bp.Stats().Delivered) })
	reg.Counter("bp.dropped", func() int64 {
		st := bp.Stats()
		return int64(st.DroppedQueue + st.DroppedLoss + st.DroppedDown)
	})
	reg.Counter("bp.bytes", func() int64 { return int64(bp.Stats().BytesSent) })

	for _, pk := range protoKinds {
		kind := pk.kind
		reg.Counter(pk.name, func() int64 {
			var n uint64
			for _, bs := range cell.BSes {
				if bs != nil {
					n += bs.EventCount(kind)
				}
			}
			for _, v := range cell.Vehicles {
				if v != nil {
					n += v.EventCount(kind)
				}
			}
			return int64(n)
		})
	}
	reg.Gauge("core.index_local", func() int64 {
		n := 0
		for _, bs := range cell.BSes {
			if bs != nil {
				local, _ := bs.Probs().IndexOccupancy(bs.Addr())
				n += local
			}
		}
		return int64(n)
	})
	reg.Gauge("core.index_gossip", func() int64 {
		n := 0
		for _, bs := range cell.BSes {
			if bs != nil {
				_, gossip := bs.Probs().IndexOccupancy(bs.Addr())
				n += gossip
			}
		}
		return int64(n)
	})
	reg.Gauge("core.aux", func() int64 {
		n := 0
		for _, v := range cell.Vehicles {
			if v != nil {
				n += v.AuxCount()
			}
		}
		return int64(n)
	})

	// Per-application live counters, one series set per kind actually
	// present — schema is a pure function of the kinds slice, so every
	// shard of one run registers the identical layout.
	for _, wk := range wlKinds {
		present := false
		for _, kd := range kinds {
			if kd == wk {
				present = true
				break
			}
		}
		if !present {
			continue
		}
		wk := wk
		pull := func(f func(workload.LiveStats) int) func() int64 {
			return func() int64 {
				n := 0
				for i, d := range drivers {
					if d != nil && kinds[i] == wk {
						n += f(d.Live())
					}
				}
				return int64(n)
			}
		}
		prefix := "wl." + wk.String()
		reg.Counter(prefix+".delivered", pull(func(s workload.LiveStats) int { return s.Delivered }))
		reg.Counter(prefix+".completed", pull(func(s workload.LiveStats) int { return s.Completed }))
		reg.Counter(prefix+".aborted", pull(func(s workload.LiveStats) int { return s.Aborted }))
	}
	return reg
}

// addShardSeries registers per-shard execution-balance series (pulled
// through shardStat) on one shard's registry, so vifi-metrics and
// vifi-serve can show shard balance live. Serial runs register nothing —
// their schema is unchanged.
//
// Every registry carries the full layout (LiveRun.barrier sums the
// kernels' rows column by column). A district kernel has one series,
// shard.<i>.events, and a registry pulls a real value only for its own
// index — a sampler tick runs on its kernel's goroutine, which may read
// only its own counter mid-step — so the row sum at the barrier
// reconstructs every kernel's true series. The single halo kernel's
// sampler reads every lane's five counters directly: they are quiescent
// between dispatches, and sampling runs in the kernel phase.
func (l *LiveRun) addShardSeries(reg *obs.Registry, sh int) {
	n := l.width()
	if n < 2 {
		return
	}
	for i := 0; i < n; i++ {
		prefix := fmt.Sprintf("shard.%d.", i)
		if l.eff > 1 {
			pull := func() int64 { return 0 }
			if i == sh {
				pull = func() int64 { return int64(l.shardStat(i).Events) }
			}
			reg.Counter(prefix+"events", pull)
			continue
		}
		pull := func(f func(ShardRunStats) int64) func() int64 {
			return func() int64 { return f(l.shardStat(i)) }
		}
		reg.Counter(prefix+"events", pull(func(st ShardRunStats) int64 { return int64(st.Events) }))
		reg.Counter(prefix+"rounds", pull(func(st ShardRunStats) int64 { return int64(st.Rounds) }))
		reg.Counter(prefix+"stalled", pull(func(st ShardRunStats) int64 { return int64(st.Stalled) }))
		reg.Counter(prefix+"halo_sent", pull(func(st ShardRunStats) int64 { return int64(st.HaloSent) }))
		reg.Counter(prefix+"halo_recv", pull(func(st ShardRunStats) int64 { return int64(st.HaloRecv) }))
	}
}

// runMeta builds the recording meta for one run. It carries every job
// input that can distinguish two sampled runs — the metaKey sort in
// TakeRecordings relies on distinct runs having distinct meta.
func runMeta(kind, key string, seed int64, shards int, dur time.Duration, cfg core.Config) map[string]string {
	m := map[string]string{
		"kind":     kind,
		"spec":     key,
		"seed":     fmt.Sprint(seed),
		"duration": dur.String(),
		"cfg":      fmt.Sprintf("%+v", cfg),
	}
	if shards > 1 {
		m["shards"] = fmt.Sprint(shards)
	}
	return m
}
