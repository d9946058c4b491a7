package experiment

import (
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/vanlan/vifi/internal/core"
	"github.com/vanlan/vifi/internal/obs"
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

// TestAblationsSampleEveryArm holds the ablations to EnableMetrics'
// promise: every arm a metrics-enabled engine executes publishes one
// recording under a meta of its own — the hand-built ablate-aux cells
// under the ablation's id, the testbed arms as the fleet runs they are —
// and the reports keep their committed goldens.
func TestAblationsSampleEveryArm(t *testing.T) {
	TakeRecordings()
	for _, tc := range []struct {
		id, kind string
		arms     int
	}{{"ablate-aux", "ablate-aux", 6}, {"ablate-diversity", "fleetapp", 6}, {"ablate-backplane", "fleetapp", 4}} {
		eng := NewEngine(2)
		eng.EnableMetrics(time.Second)
		rep, err := Run(tc.id, Options{Seed: 17, Scale: 0.04, Engine: eng}) // reportTable's options
		if err != nil {
			t.Fatalf("%s: %v", tc.id, err)
		}
		goldenBytes(t, tc.id, rep.String())
		recs := TakeRecordings()
		seen := map[string]bool{}
		for _, r := range recs {
			if r.Meta["kind"] != tc.kind || r.Rows() == 0 {
				t.Errorf("%s: recording %v with %d rows", tc.id, r.Meta, r.Rows())
			}
			seen[metaKey(r)] = true
		}
		if len(recs) != tc.arms || len(seen) != tc.arms {
			t.Errorf("%s: %d recordings, %d distinct metas; want one per arm (%d)", tc.id, len(recs), len(seen), tc.arms)
		}
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
// outcome counts as the one-shot batch helper, serial and sharded — and
// barriers are invisible: the run stepped at 1 s, the same run stepped at
// 250 ms and paused in the middle, and the batch run (one barrier) agree
// on the merged recording and on the whole FleetAppRun, ShardExec
// included. onSample sees exactly the recording's rows, each once and in
// time order, on the stepping goroutine (the unlocked appends below are
// what -race checks).
func TestLiveRunMatchesBatch(t *testing.T) {
	spec, err := scenario.Parse("metro-districts")
	if err != nil {
		t.Fatal(err)
	}
	const dur = 20 * time.Second
	for _, shards := range []int{1, 4} {
		var ats []time.Duration
		var rows [][]int64
		onSample := func(at time.Duration, row []int64) {
			ats = append(ats, at)
			rows = append(rows, append([]int64(nil), row...))
		}
		l, err := StartLiveRun(17, spec, core.DefaultConfig(), dur, shards, time.Second, onSample)
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

		batch, err := RunFleetAppWorkload(17, spec, core.DefaultConfig(), dur, shards)
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
		rec := l.Recording()
		if rec == nil || rec.Rows() == 0 {
			t.Fatalf("shards=%d: live run produced no recording", shards)
		}
		if len(rows) != rec.Rows() {
			t.Fatalf("shards=%d: onSample saw %d rows, the recording has %d", shards, len(rows), rec.Rows())
		}
		for i, row := range rows {
			if ats[i] != time.Duration(i+1)*time.Second || !reflect.DeepEqual(row, rec.Row(i)) {
				t.Errorf("shards=%d: published row %d at %v = %v, recorded %v", shards, i, ats[i], row, rec.Row(i))
			}
		}

		// The same sampled run behind four times as many barriers, with a
		// pause (the recording read while nothing advances) halfway.
		fine, err := StartLiveRun(17, spec, core.DefaultConfig(), dur, shards, time.Second, nil)
		if err != nil {
			t.Fatal(err)
		}
		fine.quantum = 250 * time.Millisecond
		for n := 0; ; n++ {
			if n == 40 {
				if mid := fine.Recording(); mid.Rows() != 10 {
					t.Errorf("shards=%d: paused at %v with %d rows, want 10", shards, fine.cursor, mid.Rows())
				}
			}
			if _, done := fine.Step(); done {
				break
			}
		}
		// ... and behind one: the batch run, sampled like the other two.
		TakeRecordings()
		sampled, err := runFleetApp(17, spec, core.DefaultConfig(), dur, shards, time.Second, runHooks{})
		if err != nil {
			t.Fatal(err)
		}
		batchRecs := TakeRecordings()
		if len(batchRecs) != 1 {
			t.Fatalf("shards=%d: batch run published %d recordings", shards, len(batchRecs))
		}
		if !rec.Equal(fine.Recording()) || !rec.Equal(batchRecs[0]) {
			t.Errorf("shards=%d: the recording depends on where the barriers fell", shards)
		}
		if fineRun := fine.Finish(); !reflect.DeepEqual(live, fineRun) || !reflect.DeepEqual(live, sampled) {
			t.Errorf("shards=%d: the run depends on where the barriers fell:\n1s    %+v\n250ms %+v\nbatch %+v",
				shards, live.ShardExec, fineRun.ShardExec, sampled.ShardExec)
		}
		if shards > 1 {
			if len(live.ShardExec) != shards || live.ShardExec[0].Events == 0 {
				t.Errorf("shards=%d: ShardExec %+v", shards, live.ShardExec)
			}
			if rec.SeriesIndex("shard.3.events") < 0 || rec.SeriesIndex("shard.0.rounds") >= 0 {
				t.Errorf("shards=%d: a district kernel registers shard.<i>.events and nothing else", shards)
			}
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

// TestLiveRunAbandonedLeavesNoGoroutine pins the goroutine lifetime of a
// multi-kernel run: a step's goroutines are joined before it returns, so
// a run dropped half way (a failed or abandoned serve session) strands
// nothing.
func TestLiveRunAbandonedLeavesNoGoroutine(t *testing.T) {
	spec, err := scenario.Parse("metro-districts")
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	l, err := StartLiveRun(3, spec, core.DefaultConfig(), 10*time.Second, 4, time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	if l.Shards() != 4 {
		t.Fatalf("ran %d kernels, want 4", l.Shards())
	}
	for i := 0; i < 3; i++ {
		l.Step()
	}
	// A joined goroutine has called Done but may not have left the
	// scheduler's count yet: yield until it has.
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.Gosched()
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines after three steps of an abandoned run, %d before it", n, before)
	}
}

// TestLiveRunKernelPanicSurfacesOnCaller pins what a panic inside one of
// several kernels does: the other kernel still reaches the barrier, and
// the panic comes out of Step on the calling goroutine — where a serve
// session recovers it — instead of ending the process.
func TestLiveRunKernelPanicSurfacesOnCaller(t *testing.T) {
	spec, err := scenario.Parse(shardTestSpec)
	if err != nil {
		t.Fatal(err)
	}
	l, err := StartLiveRun(3, spec, core.DefaultConfig(), 5*time.Second, 2, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if l.Shards() != 2 {
		t.Fatalf("ran %d kernels, want 2", l.Shards())
	}
	l.kernels[1].At(500*time.Millisecond, func() { panic("boom in kernel 1") })
	lastRan := false
	l.kernels[0].At(time.Second, func() { lastRan = true })

	var got any
	func() {
		defer func() { got = recover() }()
		l.Step()
	}()
	if got != "boom in kernel 1" {
		t.Fatalf("Step recovered %v, want the kernel's panic", got)
	}
	if !lastRan || l.kernels[0].Now() != time.Second {
		t.Errorf("kernel 0 stopped at %v (barrier event ran: %v); it must finish its barrier first",
			l.kernels[0].Now(), lastRan)
	}
}

// TestLiveRunDivergentKernelPanics pins the merge's guard: a kernel whose
// recording lacks a row the barrier has passed (here a sampler whose
// horizon ends at 2 s) stops the run with a panic naming that row, out of
// Step on the calling goroutine, instead of a silently short sum.
func TestLiveRunDivergentKernelPanics(t *testing.T) {
	spec, err := scenario.Parse(shardTestSpec)
	if err != nil {
		t.Fatal(err)
	}
	l, err := StartLiveRun(3, spec, core.DefaultConfig(), 5*time.Second, 2, time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	if l.Shards() != 2 {
		t.Fatalf("ran %d kernels, want 2", l.Shards())
	}
	reg := buildRegistry(l.kernels[1], l.cells[1], l.drivers[1], l.kinds)
	l.addShardSeries(reg, 1)
	l.samplers[1] = obs.Attach(l.kernels[1], reg, time.Second, 2*time.Second, nil)

	var got any
	func() {
		defer func() { got = recover() }()
		for i := 0; i < 3; i++ {
			l.Step()
		}
	}()
	msg, _ := got.(string)
	if !strings.Contains(msg, "kernel 1 has no sample row 2 (at 3s)") {
		t.Fatalf("Step recovered %v, want the missing row named", got)
	}
	if rows := l.Recording().Rows(); rows != 2 {
		t.Errorf("merged %d rows before the guard tripped, want 2", rows)
	}
}

// TestLiveRunRecordingSumsKernelRows pins what Recording returns: with one
// kernel the sampler's own recording, no copy; with several a separate
// recording on the same series and cadence whose every row is the sum of
// the kernels' rows at that time, each kernel's own rows left as sampled.
func TestLiveRunRecordingSumsKernelRows(t *testing.T) {
	spec, err := scenario.Parse(shardTestSpec)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 2} {
		l, err := StartLiveRun(5, spec, core.DefaultConfig(), 4*time.Second, shards, time.Second, nil)
		if err != nil {
			t.Fatal(err)
		}
		if l.Shards() != shards {
			t.Fatalf("ran %d kernels, want %d", l.Shards(), shards)
		}
		for _, done := l.Step(); !done; _, done = l.Step() {
		}
		l.Finish()
		rec := l.Recording()
		if shards == 1 {
			if rec != l.samplers[0].Recording() {
				t.Error("shards=1: Recording is not the lone sampler's own recording")
			}
			continue
		}
		first := l.samplers[0].Recording()
		if rec == first {
			t.Fatal("shards=2: Recording is kernel 0's own recording, not the merge")
		}
		if !reflect.DeepEqual(rec.Series, first.Series) || rec.Interval != first.Interval {
			t.Errorf("shards=2: merged series/interval %v/%v, kernel 0 has %v/%v",
				rec.Series, rec.Interval, first.Series, first.Interval)
		}
		ev := rec.SeriesIndex("sim.events")
		for _, sp := range l.samplers {
			if r := sp.Recording(); r.Rows() != rec.Rows() || r.Row(r.Rows() - 1)[ev] == 0 {
				t.Fatalf("shards=2: a kernel has %d of %d rows or ran no events", r.Rows(), rec.Rows())
			}
		}
		for i := 0; i < rec.Rows(); i++ {
			want := make([]int64, len(rec.Series))
			for _, sp := range l.samplers {
				if at := sp.Recording().At(i); at != rec.At(i) {
					t.Fatalf("shards=2: row %d is at %v in a kernel, %v merged", i, at, rec.At(i))
				}
				for j, v := range sp.Recording().Row(i) {
					want[j] += v
				}
			}
			if got := rec.Row(i); !reflect.DeepEqual(got, want) {
				t.Errorf("shards=2: merged row %d = %v, kernel sum %v", i, got, want)
			}
		}
	}
}

// TestLiveRunSetupIsIndependentOfDuration pins that setup schedules no
// packet ahead: every CBR and VoIP driver is one pending train (Kernel.Every),
// so a 6 h session starts with exactly the events a 1 min one does.
func TestLiveRunSetupIsIndependentOfDuration(t *testing.T) {
	spec, err := scenario.Parse("grid-city,app=mixed")
	if err != nil {
		t.Fatal(err)
	}
	pending := func(dur time.Duration) int {
		l, err := StartLiveRun(3, spec, core.DefaultConfig(), dur, 1, time.Second, nil)
		if err != nil {
			t.Fatal(err)
		}
		return l.kernels[0].Pending()
	}
	if short, long := pending(time.Minute), pending(6*time.Hour); short != long {
		t.Errorf("setup leaves %d events pending for 1 min, %d for 6 h", short, long)
	}
}
