package experiment

import (
	"flag"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/vanlan/vifi/internal/core"
)

// determinismSample is the figure subset the regression tests sweep: it
// covers the probe, TCP and VoIP workloads, both environments
// (live-channel VanLAN and trace-driven DieselNet), the measurement-trace
// path (fig2), the collector pipeline (table2) and a custom-cell ablation.
var determinismSample = []string{"fig2", "fig6", "fig8", "fig10", "fig11", "table2", "ablate-aux"}

// goldenOnly is TestGoldenReports' own list: the single-vehicle paths no
// other golden reaches — the probe and TCP runs on VanLAN (fig7, fig9,
// table1), a driver on a hand-built cell (ablate-diversity), a TCP run
// with its own collector (ablate-retx) and the handoff study's session
// reducers (fig3, fig4: Result.Sessions, SessionTimeCDF and the
// time-weighted median). Kept out of the equal-seed and
// parallel-vs-serial sweeps so those stay as long as they were.
var goldenOnly = []string{"fig3", "fig4", "fig7", "fig9", "table1", "ablate-diversity", "ablate-retx"}

// TestEqualSeedsByteIdenticalReports is the package's reproducibility
// contract: rendering the same experiment twice with equal options gives
// byte-identical text. The first rendering is also the one checked
// against the sample's committed goldens.
func TestEqualSeedsByteIdenticalReports(t *testing.T) {
	for _, id := range determinismSample {
		o := Options{Seed: 17, Scale: 0.04}
		a, err := Run(id, o)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		checkGolden(t, id, a)
		b, err := Run(id, o)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if a.String() != b.String() {
			t.Errorf("%s: equal seeds diverged:\n--- first\n%s\n--- second\n%s", id, a, b)
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
// a report that carries its id, a title, a header and at least one row.
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
	if s := rep.String(); !strings.Contains(s, id) {
		t.Errorf("%s: rendering lacks the id:\n%s", id, s)
	}
}

// checkGolden pins one rendered report: well-formed, and byte-identical
// to its committed golden across code versions. Equal-seed
// reproducibility only shows a binary agrees with itself; the goldens
// catch changes that alter behaviour while staying self-consistent.
func checkGolden(t *testing.T, id string, rep *Report) {
	t.Helper()
	checkWellFormed(t, id, rep)
	goldenBytes(t, id, rep.String())
}

// TestGoldenReports pins the goldenOnly reports. They render on a shared
// multi-worker engine, so these ids run on the pool path once too; the
// sample's goldens are checked by TestEqualSeedsByteIdenticalReports.
func TestGoldenReports(t *testing.T) {
	eng := NewEngine(4)
	for _, id := range goldenOnly {
		rep, err := Run(id, Options{Seed: 17, Scale: 0.04, Engine: eng})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		checkGolden(t, id, rep)
	}
}

// TestParallelMatchesSerial is the engine's correctness gate: a shared
// multi-worker engine must render byte-identically to the serial inline
// path, figure by figure.
func TestParallelMatchesSerial(t *testing.T) {
	eng := NewEngine(4)
	for _, id := range determinismSample {
		serial, err := Run(id, Options{Seed: 23, Scale: 0.04})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		par, err := Run(id, Options{Seed: 23, Scale: 0.04, Engine: eng})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if serial.String() != par.String() {
			t.Errorf("%s: parallel output differs from serial:\n--- serial\n%s\n--- parallel\n%s",
				id, serial, par)
		}
	}
}

// TestRunCacheSharesIdenticalWorkloads checks the memoization contract:
// two figures needing the same (seed, env, config, duration) run get one
// execution and the same result object.
func TestRunCacheSharesIdenticalWorkloads(t *testing.T) {
	eng := NewEngine(2)
	cfg := core.DefaultConfig()
	a := eng.TCP(5, EnvVanLAN, cfg, 30*time.Second)
	b := eng.TCP(5, EnvVanLAN, cfg, 30*time.Second)
	if a.Wait() != b.Wait() {
		t.Error("identical TCP jobs returned distinct results")
	}
	if hits := eng.CacheHits(); hits != 1 {
		t.Errorf("cache hits = %d, want 1", hits)
	}
	// A differing duration must miss.
	c := eng.TCP(5, EnvVanLAN, cfg, 31*time.Second)
	if c.Wait() == a.Wait() {
		t.Error("different durations shared a result")
	}
	// MaxRetx is normalized away for probe jobs (the workload forces it
	// to zero), so configs differing only there share a run.
	p1 := eng.Probe(5, EnvVanLAN, cfg, 20*time.Second)
	retx := cfg
	retx.MaxRetx = 0
	p2 := eng.Probe(5, EnvVanLAN, retx, 20*time.Second)
	if p1.Wait() != p2.Wait() {
		t.Error("probe jobs differing only in MaxRetx did not share")
	}
}

// TestSharedTCPRunConcurrentQuantiles guards the cache's immutability
// contract: quantile queries lazily sort the sample, so cached runs are
// frozen (pre-sorted) before publication. Two figures quantiling the same
// shared run concurrently must be race-free (run with -race).
func TestSharedTCPRunConcurrentQuantiles(t *testing.T) {
	eng := NewEngine(4)
	futs := []Future[*TCPRun]{
		eng.TCP(3, EnvVanLAN, core.DefaultConfig(), 40*time.Second),
		eng.TCP(3, EnvVanLAN, core.DefaultConfig(), 40*time.Second),
	}
	medians := make([]float64, len(futs))
	var wg sync.WaitGroup
	for i, f := range futs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run := f.Wait()
			medians[i] = run.Stats.MedianTransferTime()
			run.Stats.TransferTimes.Quantile(0.9)
		}()
	}
	wg.Wait()
	if medians[0] != medians[1] {
		t.Errorf("shared run gave different medians: %v vs %v", medians[0], medians[1])
	}
}

// TestWorkloadLevelDeterminism pins the lower layer directly: two
// executions of one workload with one seed agree on outcome counts.
func TestWorkloadLevelDeterminism(t *testing.T) {
	a := RunTCPWorkload(31, EnvDieselNetCh1, core.DefaultConfig(), 45*time.Second, 0)
	b := RunTCPWorkload(31, EnvDieselNetCh1, core.DefaultConfig(), 45*time.Second, 0)
	if a.Stats.Completed != b.Stats.Completed || a.Stats.Aborted != b.Stats.Aborted ||
		a.Salvaged != b.Salvaged {
		t.Errorf("TCP diverged: %d/%d/%d vs %d/%d/%d",
			a.Stats.Completed, a.Stats.Aborted, a.Salvaged,
			b.Stats.Completed, b.Stats.Aborted, b.Salvaged)
	}
	qa := RunVoIPWorkload(37, EnvVanLAN, core.DefaultConfig(), 45*time.Second, 0).Quality
	qb := RunVoIPWorkload(37, EnvVanLAN, core.DefaultConfig(), 45*time.Second, 0).Quality
	if qa.MeanMoS != qb.MeanMoS || qa.Interruptions != qb.Interruptions {
		t.Errorf("VoIP diverged: %v/%d vs %v/%d",
			qa.MeanMoS, qa.Interruptions, qb.MeanMoS, qb.Interruptions)
	}
}
