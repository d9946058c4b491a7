package experiment

import (
	"flag"
	"math"
	"os"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/vanlan/vifi/internal/core"
	"github.com/vanlan/vifi/internal/scenario"
	"github.com/vanlan/vifi/internal/sim"
	"github.com/vanlan/vifi/internal/trace"
	"github.com/vanlan/vifi/internal/workload"
)

// reportTable is the package's byte-identity contract: one row per
// registered id, rendered at seed 17 and the scale its committed golden
// was taken at. TestReports ends by asserting the id column equals IDs(),
// so an experiment registered without a row — and a golden — here fails.
// A golden is regenerated (-update-golden) on the parent tree first; the
// change is then shown to reproduce it (EXPERIMENTS.md).
var reportTable = []struct {
	id    string
	scale float64
	// arms > 0 cuts a sweep's second rendering to its first arms: 10000
	// radios are simulated once per run of the suite. CI's -parallel 1 vs 4
	// cmp has the rest.
	arms int
}{
	{id: "fig1", scale: 0.04},
	{id: "fig2", scale: 0.04},
	{id: "fig3", scale: 0.04},
	{id: "fig4", scale: 0.04},
	{id: "fig5", scale: 0.04},
	{id: "fig6", scale: 0.04},
	{id: "fig7", scale: 0.04},
	{id: "fig8", scale: 0.04},
	{id: "fig9", scale: 0.04},
	{id: "fig10", scale: 0.04},
	{id: "fig11", scale: 0.04},
	{id: "fig12", scale: 0.04},
	{id: "table1", scale: 0.04},
	{id: "table2", scale: 0.04},
	{id: "ablate-aux", scale: 0.04},
	{id: "ablate-diversity", scale: 0.04},
	{id: "ablate-backplane", scale: 0.04},
	{id: "ablate-salvage", scale: 0.04},
	{id: "ablate-retx", scale: 0.04},
	// ~10 simulated seconds per arm on the full 54-basestation grid-city:
	// enough for even the longest-MTBF scale-faults arm to see outages.
	{id: "scale-fleet", scale: 0.04},
	{id: "scale-density", scale: 0.04},
	{id: "scale-app-tcp", scale: 0.04},
	{id: "scale-app-voip", scale: 0.04},
	{id: "scale-faults", scale: 0.04},
	// ~5 simulated seconds per arm. scale-protocol shares scale-radio's
	// scale so its arms are run-cache hits of scale-radio's.
	{id: "scale-radio", scale: 0.02, arms: 3},
	{id: "scale-protocol", scale: 0.02, arms: 1},
	{id: "scale-shard", scale: 0.02},
	{id: "scale-shard-halo", scale: 0.02},
}

// TestReports pins every registered experiment. Each id renders on a
// shared 4-worker engine and must be well-formed and byte-identical to
// its committed golden — the cross-version contract: reproducibility only
// shows a binary agrees with itself, the goldens catch behaviour changes
// that stay self-consistent. A sweep rendered per arm must render one row
// per arm, equal where arms differ only in shard count. Then the id
// renders again with equal options on a one-worker engine: that one byte
// comparison is both "equal seeds reproduce" and "pool width never shows".
func TestReports(t *testing.T) {
	pool, serial := NewEngine(4), NewEngine(1)
	var ids []string
	for _, tc := range reportTable {
		ids = append(ids, tc.id)
		t.Run(tc.id, func(t *testing.T) {
			o := Options{Seed: 17, Scale: tc.scale, Engine: pool}
			rep, err := Run(tc.id, o)
			if err != nil {
				t.Fatal(err)
			}
			checkWellFormed(t, tc.id, rep)
			goldenBytes(t, tc.id, rep.String())
			s, isSweep := sweepByID(tc.id)
			if isSweep {
				checkSweepRows(t, s, rep)
			}
			if check := rowPredicates[tc.id]; check != nil {
				check(t, rep)
			}

			o.Engine = serial
			want := *rep
			var again *Report
			if tc.arms > 0 {
				s.arms = s.arms[:tc.arms]
				want.Rows = want.Rows[:tc.arms]
				again, err = s.run(o)
			} else {
				again, err = Run(tc.id, o)
			}
			if err != nil {
				t.Fatal(err)
			}
			if want.String() != again.String() {
				t.Errorf("one-worker rendering differs:\n--- 4 workers\n%s\n--- 1 worker\n%s", &want, again)
			}
		})
	}
	sort.Strings(ids)
	if !slices.Equal(ids, IDs()) {
		t.Errorf("reportTable pins %v\nbut IDs() registers %v", ids, IDs())
	}
}

// rowPredicates are shape claims a report's rows must satisfy, checked on
// the rows TestReports rendered beside their golden bytes.
var rowPredicates = map[string]func(*testing.T, *Report){
	"scale-radio": collisionsTrackNeighbors,
}

// collisionsTrackNeighbors: with the traffic fixed and the basestation
// density constant, a receiver has as many neighbours to collide with in
// every arm, so rx collisions/1k tx must not depend on the radio count —
// every arm within ±15 % of the arms' median. A channel that decided
// receivers beyond reach in some arms — they latch on frames they can
// never receive, and book collisions — would fail it there.
func collisionsTrackNeighbors(t *testing.T, rep *Report) {
	t.Helper()
	col := slices.Index(rep.Header, "rx collisions/1k tx")
	if col < 0 {
		t.Fatalf("%s: no rx collisions column in %v", rep.ID, rep.Header)
	}
	vals := make([]float64, len(rep.Rows))
	for i, row := range rep.Rows {
		v, err := strconv.ParseFloat(row[col], 64)
		if err != nil {
			t.Fatalf("%s: row %v: %v", rep.ID, row, err)
		}
		vals[i] = v
	}
	sorted := slices.Sorted(slices.Values(vals))
	median := (sorted[(len(sorted)-1)/2] + sorted[len(sorted)/2]) / 2
	for i, v := range vals {
		if math.Abs(v-median) > 0.15*median {
			t.Errorf("%s: arm %s books %.0f rx collisions/1k tx, more than 15%% off the arms' median %.0f",
				rep.ID, rep.Rows[i][0], v, median)
		}
	}
}

// checkSweepRows asserts a sweep rendered per arm (perArm) rendered one
// row per arm, and that arms running one spec under one protocol config —
// differing only in their pinned shard count, the identity sweeps' whole
// point — rendered equal cells after the label. An arm that pins a count
// but has no sibling to be identical to is a stale table. A reducer over
// several runs (Fig 8, 10–12, Table 1) has its golden alone.
func checkSweepRows(t *testing.T, s sweep, rep *Report) {
	t.Helper()
	if _, ok := s.reduce.(perArm); !ok {
		return
	}
	if len(rep.Rows) != len(s.arms) {
		t.Fatalf("%s: %d rows for %d arms", s.id, len(rep.Rows), len(s.arms))
	}
	type run struct {
		spec string
		cfg  core.Config
	}
	byRun := map[run][]int{}
	for i, arm := range s.arms {
		var spec scenario.Spec
		cfg := core.DefaultConfig()
		if arm.set != nil {
			arm.set(&spec)
		}
		if arm.cfg != nil {
			cfg = arm.cfg()
		}
		k := run{spec.Key(), cfg}
		byRun[k] = append(byRun[k], i)
	}
	for _, g := range byRun {
		for _, i := range g {
			if arm := s.arms[i]; arm.shards != 0 && len(g) < 2 {
				t.Errorf("%s: arm %q pins %d shards but no other arm runs its spec and config", s.id, arm.label, arm.shards)
			}
			if !slices.Equal(rep.Rows[i][1:], rep.Rows[g[0]][1:]) {
				t.Errorf("%s: arms running one spec and config diverged:\n%v\n%v", s.id, rep.Rows[g[0]], rep.Rows[i])
			}
		}
	}
}

// updateGolden regenerates the golden reports instead of checking them:
//
//	go test ./internal/experiment -update-golden
//
// Only use it for deliberate, reviewed output changes — the goldens are
// the cross-version determinism contract: performance work must leave
// reports byte-identical, and these files (captured before the pooled
// kernel and dense tables existed) prove it.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden reports")

// goldenBytes compares got with testdata/golden_<name>.txt, or rewrites
// the file under -update-golden.
func goldenBytes(t *testing.T, name, got string) {
	t.Helper()
	path := "testdata/golden_" + name + ".txt"
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%s: %v (run with -update-golden to create)", name, err)
	}
	if got != string(want) {
		t.Errorf("%s: diverged from committed golden %s:\n%s", name, path, got)
	}
}

// checkWellFormed asserts what every registered runner owes its caller:
// a report that carries its id, a title, a header and at least one row,
// and a value in every cell of a row whose label is not blank.
func checkWellFormed(t *testing.T, id string, rep *Report) {
	t.Helper()
	if rep.ID != id {
		t.Errorf("%s: report carries id %q", id, rep.ID)
	}
	if rep.Title == "" || len(rep.Header) == 0 {
		t.Errorf("%s: missing title or header", id)
	}
	if len(rep.Rows) == 0 {
		t.Errorf("%s: empty report", id)
	}
	for _, row := range rep.Rows {
		if len(row) == 0 || row[0] == "" {
			continue // a blank-labelled row separates sections
		}
		for i := 1; i < len(rep.Header); i++ {
			if i >= len(row) || row[i] == "" {
				t.Errorf("%s: row %q renders nothing under %q", id, row[0], rep.Header[i])
			}
		}
	}
	if s := rep.String(); !strings.Contains(s, id) {
		t.Errorf("%s: rendering lacks the id:\n%s", id, s)
	}
}

// TestPresetJobSharing checks the memoization contract of the paper's
// runs, one-vehicle FleetApp runs over the testbed presets: equal inputs
// run one job and hand every requester the same result, a differing
// duration misses; the probe normalizes MaxRetx away, so configurations
// differing only there share a run; a collecting and a plain run are two
// runs. DieselNet runs read the engine's trace memo: one engine makes one
// trace per seed for every run on it, two engines make their own.
func TestPresetJobSharing(t *testing.T) {
	eng := NewEngine(2)
	cfg := core.DefaultConfig()
	tcp := testbedSpec("vanlan", workload.TCPKind)
	a := eng.fleetApp(5, tcp, cfg, 30*time.Second, 1, true)
	b := eng.fleetApp(5, tcp, cfg, 30*time.Second, 1, true)
	if a.Wait() != b.Wait() {
		t.Error("identical TCP jobs returned distinct results")
	}
	if jobs, hits := eng.Jobs(), eng.CacheHits(); jobs != 1 || hits != 1 {
		t.Errorf("jobs/hits = %d/%d, want 1/1", jobs, hits)
	}
	// A differing duration must miss.
	c := eng.fleetApp(5, tcp, cfg, 31*time.Second, 1, true)
	if c.Wait() == a.Wait() {
		t.Error("different durations shared a result")
	}
	if jobs, hits := eng.Jobs(), eng.CacheHits(); jobs != 2 || hits != 1 {
		t.Errorf("jobs/hits = %d/%d, want 2/1", jobs, hits)
	}
	probe := testbedSpec("vanlan", workload.CBRKind)
	retx := cfg
	retx.MaxRetx = 0
	p1 := eng.FleetApp(5, probe, cfg, 20*time.Second, 1)
	p2 := eng.FleetApp(5, probe, retx, 20*time.Second, 1)
	if p1.Wait() != p2.Wait() {
		t.Error("probe jobs differing only in MaxRetx did not share")
	}
	p3 := eng.fleetApp(5, probe, cfg, 20*time.Second, 1, true)
	if p3.Wait() == p1.Wait() || p3.Wait().Collector == nil || p1.Wait().Collector != nil {
		t.Error("collecting and plain probe runs shared a result")
	}
	if jobs, hits := eng.Jobs(), eng.CacheHits(); jobs != 4 || hits != 2 {
		t.Errorf("jobs/hits = %d/%d, want 4/2", jobs, hits)
	}

	// Two protocols on one seed and the seed's key read one memo entry.
	for _, c := range []core.Config{cfg, core.BRRConfig()} {
		eng.FleetApp(7, testbedSpec("dieselnet1", workload.CBRKind), c, 10*time.Second, 1).Wait()
	}
	seed := int64(sim.NewKernel(7).RNG("traceseed").Uint64() % (1 << 30))
	tr := eng.dieselNet(seed, 1, time.Hour)
	if len(eng.traces) != 1 {
		t.Errorf("two runs at one seed and their key made %d traces, want 1", len(eng.traces))
	}
	if other := NewEngine(1).dieselNet(seed, 1, time.Hour); other == tr {
		t.Error("two engines share a trace")
	}
}

// TestDieselNetTraceConcurrent: goroutines asking Engine.DieselNetTrace for
// one key wait for its one generation and share it, goroutines on other keys
// get their own traces, and every trace is the one a direct synthesis makes.
// Run under -race: the memo and the generator's workers are what it checks.
func TestDieselNetTraceConcurrent(t *testing.T) {
	eng := NewEngine(4)
	keys := []struct {
		seed    int64
		channel int
	}{{11, 1}, {11, 6}, {12, 6}}
	const perKey = 4
	got := make([]*trace.Trace, len(keys)*perKey)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			k := keys[i%len(keys)]
			got[i] = eng.DieselNetTrace(k.seed, k.channel, time.Minute).Wait()
		}()
	}
	wg.Wait()
	for i, tr := range got {
		if first := got[i%len(keys)]; tr != first {
			t.Errorf("reader %d of key %v got its own trace", i, keys[i%len(keys)])
		}
	}
	for i, k := range keys {
		for j := range keys[:i] {
			if got[i] == got[j] {
				t.Errorf("keys %v and %v share a trace", k, keys[j])
			}
		}
		if want := trace.GenerateDieselNet(k.seed, k.channel, time.Minute); !reflect.DeepEqual(got[i].Ratio, want.Ratio) {
			t.Errorf("key %v: the memo's trace differs from a direct synthesis", k)
		}
	}
}

// TestSharedTCPRunConcurrentQuantiles guards the cache's immutability
// contract: two figures quantiling the same shared run concurrently must
// be race-free (run with -race) and agree.
func TestSharedTCPRunConcurrentQuantiles(t *testing.T) {
	eng := NewEngine(4)
	tcp := testbedSpec("vanlan", workload.TCPKind)
	futs := []Future[*FleetAppRun]{
		eng.fleetApp(3, tcp, core.DefaultConfig(), 40*time.Second, 1, true),
		eng.fleetApp(3, tcp, core.DefaultConfig(), 40*time.Second, 1, true),
	}
	medians := make([]float64, len(futs))
	var wg sync.WaitGroup
	for i, f := range futs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := f.Wait().PerVehicle[0]
			medians[i] = m.TransferQuantile(0.5)
			m.TransferQuantile(0.9)
		}()
	}
	wg.Wait()
	if medians[0] != medians[1] {
		t.Errorf("shared run gave different medians: %v vs %v", medians[0], medians[1])
	}
}

// TestWorkloadLevelDeterminism pins the lower layer directly: two
// executions of one workload with one seed, on two engines, agree on
// outcome counts.
func TestWorkloadLevelDeterminism(t *testing.T) {
	run := func(seed int64, preset string, kind workload.Kind, collect bool) *FleetAppRun {
		return paperRun(seed, preset, kind, 45*time.Second, collect)
	}
	a := run(31, "dieselnet1", workload.TCPKind, true)
	b := run(31, "dieselnet1", workload.TCPKind, true)
	if ma, mb := a.PerVehicle[0], b.PerVehicle[0]; ma.Completed != mb.Completed || ma.Aborted != mb.Aborted ||
		a.Collector.Salvaged != b.Collector.Salvaged {
		t.Errorf("TCP diverged: %d/%d/%d vs %d/%d/%d",
			ma.Completed, ma.Aborted, a.Collector.Salvaged,
			mb.Completed, mb.Aborted, b.Collector.Salvaged)
	}
	qa := run(37, "vanlan", workload.VoIPKind, false).PerVehicle[0].VoIP
	qb := run(37, "vanlan", workload.VoIPKind, false).PerVehicle[0].VoIP
	if qa.MeanMoS != qb.MeanMoS || qa.Interruptions != qb.Interruptions {
		t.Errorf("VoIP diverged: %v/%d vs %v/%d",
			qa.MeanMoS, qa.Interruptions, qb.MeanMoS, qb.Interruptions)
	}
}
