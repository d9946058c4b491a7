package experiment

import (
	"reflect"
	"testing"
	"time"

	"github.com/vanlan/vifi/internal/core"
	"github.com/vanlan/vifi/internal/scenario"
)

// TestSamplingPreservesGoldenReports is the observability layer's purity
// contract: attaching the metrics sampler must not shift a single byte
// of any report, because sampling is pull-only — it draws no random
// numbers and never reorders protocol events. The sweep covers the
// trace-driven path (fig2), a live-channel workload figure (fig8), and
// the faulted fleet scenario (scale-faults), each checked against the
// same committed goldens the unsampled runs are pinned to.
func TestSamplingPreservesGoldenReports(t *testing.T) {
	TakeRecordings() // start from a clean sink
	for _, id := range []string{"fig2", "fig8", "scale-faults"} {
		eng := NewEngine(1)
		eng.EnableMetrics(time.Second)
		rep, err := Run(id, Options{Seed: 17, Scale: 0.04, Engine: eng}) // reportTable's options
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		goldenBytes(t, id, rep.String())
	}
	// The guard is only meaningful if sampling actually ran.
	if recs := TakeRecordings(); len(recs) == 0 {
		t.Fatal("no recordings captured — sampling never attached")
	}
}

// TestShardedMetricsMergeDeterminism pins the multi-kernel sampling
// path: each shard samples its own registry at the same sim times, the
// per-shard recordings merge into one, and two identical sharded runs
// must produce byte-equal merged recordings.
func TestShardedMetricsMergeDeterminism(t *testing.T) {
	spec, err := scenario.Parse("metro-districts")
	if err != nil {
		t.Fatal(err)
	}
	run := func() *FleetAppRun {
		eng := NewEngine(2)
		eng.EnableMetrics(time.Second)
		return eng.FleetApp(17, spec, core.DefaultConfig(), 20*time.Second, 4).Wait()
	}
	TakeRecordings()
	ra := run()
	recsA := TakeRecordings()
	rb := run()
	recsB := TakeRecordings()
	TakeShardLog()

	if len(recsA) != 1 || len(recsB) != 1 {
		t.Fatalf("recordings per run = %d, %d; want 1 merged recording each", len(recsA), len(recsB))
	}
	a, b := recsA[0], recsB[0]
	if a.Meta["shards"] != "4" {
		t.Errorf("merged recording meta shards = %q, want 4", a.Meta["shards"])
	}
	if a.Rows() == 0 {
		t.Fatal("merged recording has no rows")
	}
	if !a.Equal(b) {
		t.Error("identical sharded runs produced different merged recordings")
	}
	if ra.Transmissions != rb.Transmissions || ra.Collisions != rb.Collisions {
		t.Errorf("runs diverged: tx %d/%d collisions %d/%d",
			ra.Transmissions, rb.Transmissions, ra.Collisions, rb.Collisions)
	}

	// The final sampled channel counters must agree with the run's own
	// totals — the registry reads the same stats the report does, and the
	// merge sums exactly one contribution per shard.
	lastRow := a.Row(a.Rows() - 1)
	for _, c := range []struct {
		series string
		want   int
	}{{"radio.tx", ra.Transmissions}, {"radio.collisions", ra.Collisions}} {
		idx := a.SeriesIndex(c.series)
		if idx < 0 {
			t.Fatalf("no %s series", c.series)
		}
		if lastRow[idx] != int64(c.want) {
			t.Errorf("final %s sample = %d, run reports %d", c.series, lastRow[idx], c.want)
		}
	}
}

// TestLiveRunMatchesBatch pins the serve-mode execution path at the
// library level: stepping a LiveRun to completion must yield the same
// outcome counts as the one-shot batch helper, serial and sharded.
func TestLiveRunMatchesBatch(t *testing.T) {
	spec, err := scenario.Parse("metro-districts")
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 4} {
		l, err := StartLiveRun(17, spec, core.DefaultConfig(), 20*time.Second, shards, time.Second, nil)
		if err != nil {
			t.Fatal(err)
		}
		steps := 0
		for {
			if _, done := l.Step(); done {
				break
			}
			steps++
		}
		if steps == 0 {
			t.Fatalf("shards=%d: run completed in a single step — not actually incremental", shards)
		}
		live := l.Finish()

		batch, err := RunFleetAppWorkload(17, spec, core.DefaultConfig(), 20*time.Second, shards)
		if err != nil {
			t.Fatal(err)
		}
		if live.Transmissions != batch.Transmissions || live.Collisions != batch.Collisions {
			t.Errorf("shards=%d: live run diverged from batch: tx %d/%d collisions %d/%d",
				shards, live.Transmissions, batch.Transmissions, live.Collisions, batch.Collisions)
		}
		if !reflect.DeepEqual(live.Apps, batch.Apps) {
			t.Errorf("shards=%d: live run app summary diverged from batch:\n%+v\nvs\n%+v",
				shards, live.Apps, batch.Apps)
		}
		if rec := l.Recording(); rec == nil || rec.Rows() == 0 {
			t.Errorf("shards=%d: live run produced no recording", shards)
		}
	}
	TakeShardLog()
	TakeRecordings()
}

// TestLiveRunLeavesSinksEmpty pins the sink ownership rule: only the
// batch path writes the process-global shard log and recording sink. A
// stepped run hands both back on the run itself, so concurrent serve
// sessions have nothing of each other's to drain.
func TestLiveRunLeavesSinksEmpty(t *testing.T) {
	spec, err := scenario.Parse("grid-metro")
	if err != nil {
		t.Fatal(err)
	}
	TakeShardLog() // start from clean sinks
	TakeRecordings()
	l, err := StartLiveRun(3, spec, core.DefaultConfig(), 3*time.Second, 2, time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	if l.Lanes() != 2 {
		t.Fatalf("lanes = %d, want 2", l.Lanes())
	}
	for {
		if _, done := l.Step(); done {
			break
		}
	}
	run := l.Finish()
	if len(run.ShardExec) != 2 {
		t.Errorf("ShardExec has %d entries, want 2", len(run.ShardExec))
	}
	if rec := l.Recording(); rec == nil || rec.Rows() == 0 {
		t.Error("live run produced no recording")
	}
	if got := TakeShardLog(); len(got) != 0 {
		t.Errorf("live run appended %d shard-log entries", len(got))
	}
	if got := TakeRecordings(); len(got) != 0 {
		t.Errorf("live run published %d recordings to the sink", len(got))
	}
}
