package experiment

import (
	"math"
	"strings"
	"testing"
	"time"
)

// TestPaperOrderSubsetOfIDs checks every paper table/figure id is
// registered.
func TestPaperOrderSubsetOfIDs(t *testing.T) {
	have := map[string]bool{}
	for _, id := range IDs() {
		have[id] = true
	}
	for _, id := range PaperOrder() {
		if !have[id] {
			t.Errorf("PaperOrder id %q not in IDs()", id)
		}
	}
}

func TestIDsSortedAndStable(t *testing.T) {
	ids := IDs()
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			t.Fatalf("IDs() not strictly sorted at %d: %v", i, ids)
		}
	}
}

func TestRunUnknownID(t *testing.T) {
	_, err := Run("fig99", Options{Seed: 1, Scale: 0.05})
	if err == nil {
		t.Fatal("unknown id accepted")
	}
	for _, want := range []string{"fig99", "unknown id"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

// TestSweepRejectsBadScenario: a -scenario override that does not parse,
// or that makes a single arm an invalid deployment (a one-vehicle fleet
// cannot populate metro-districts' four districts), is an error from Run
// naming the sweep and the arm before any job is scheduled — not a report
// without rows, nor a panic on an engine goroutine.
func TestSweepRejectsBadScenario(t *testing.T) {
	for _, tc := range []struct {
		id, scenario string
		want         []string
	}{
		{"scale-fleet", "metro-districts",
			[]string{"scale-fleet", `arm "fleet=1"`, `"metro-districts"`, "vehicles = 1 < districts = 4"}},
		{"scale-faults", "no-such-preset", []string{"scale-faults", `"no-such-preset"`}},
	} {
		eng := NewEngine(2)
		rep, err := Run(tc.id, Options{Seed: 1, Scale: 0.01, Engine: eng, Scenario: tc.scenario})
		if err == nil {
			t.Fatalf("%s on %q: no error, report:\n%s", tc.id, tc.scenario, rep)
		}
		for _, want := range tc.want {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s on %q: error %q does not mention %q", tc.id, tc.scenario, err, want)
			}
		}
		if rep != nil || eng.Jobs() != 0 {
			t.Errorf("%s on %q: report %v and %d jobs run beside the error", tc.id, tc.scenario, rep, eng.Jobs())
		}
	}
}

// TestCheckScale: a scale is refused unless it is a positive finite
// number, because Run floors every count at one and would otherwise turn
// 0, a negative, NaN or +Inf into the smallest run without a word — and
// unless every run length it scales still fits a time.Duration, or a huge
// scale overflows into that floor or into a negative run.
func TestCheckScale(t *testing.T) {
	for _, s := range []float64{0.05, 1, 3, maxScale} {
		if err := CheckScale(s); err != nil {
			t.Errorf("scale %v refused: %v", s, err)
		}
	}
	for _, s := range []float64{0, math.Copysign(0, -1), -1, math.NaN(), math.Inf(1), math.Inf(-1),
		math.Nextafter(maxScale, math.Inf(1)), 1e7, 1e300, math.MaxFloat64} {
		err := CheckScale(s)
		if err == nil {
			t.Errorf("scale %v accepted", s)
		} else if !strings.Contains(err.Error(), "not a positive finite number") {
			t.Errorf("scale %v: err = %v", s, err)
		}
	}
	// At the largest accepted scale, the longest run (Fig 5's 40 minutes,
	// counted in seconds or in minutes) still scales to a positive
	// duration of the length asked for. Nothing is run at it.
	o := Options{Scale: maxScale}
	for _, unit := range []time.Duration{time.Second, time.Minute} {
		n := o.scaled(int(40 * time.Minute / unit))
		if d := time.Duration(n) * unit; d <= 0 || d/unit != time.Duration(n) {
			t.Errorf("%d×%v overflows to %v at scale %v", n, unit, d, maxScale)
		}
	}
}

// TestDeclaredRuns reads the runs every sweep row declares at Scale 1
// without running one: Fig 11 pools three replicates per arm, Fig 12's
// and Table 1's ViFi runs are Fig 9's collecting one — one request, so
// one job key and one execution per engine — and Fig 10 reads no
// collector, so its runs collect none.
func TestDeclaredRuns(t *testing.T) {
	eng := NewEngine(1)
	o := Options{Seed: 42, Scale: 1, Engine: eng}
	plans := map[string][]fleetRun{}
	for _, s := range sweeps {
		plan, _, err := s.plan(o)
		if err != nil {
			t.Fatal(err)
		}
		plans[s.id] = plan
	}
	if eng.Jobs() != 0 {
		t.Fatalf("planning ran %d jobs", eng.Jobs())
	}
	seeds := map[int64]int{}
	for _, q := range plans["fig11"] {
		seeds[q.seed]++
	}
	if n := len(plans["fig11"]); n != 18 || len(seeds) != 3 || seeds[42] != 6 || seeds[1019] != 6 || seeds[1996] != 6 {
		t.Errorf("fig11 declares %d runs on seeds %v, want 18: 6 each on 42, 1019 and 1996", n, seeds)
	}
	vifi := func(id string) fleetRun {
		s, _ := sweepByID(id)
		for _, q := range plans[id] {
			if s.arms[q.arm].label == "ViFi" {
				return q
			}
		}
		t.Fatalf("%s declares no ViFi arm", id)
		return fleetRun{}
	}
	fig9 := vifi("fig9")
	for _, id := range []string{"fig12", "table1"} {
		q := vifi(id)
		q.arm = fig9.arm
		if q != fig9 || !q.collect {
			t.Errorf("%s's ViFi run %+v is not fig9's collecting one %+v", id, q, fig9)
		}
	}
	if plan := plans["fig10"]; len(plan) != 4 {
		t.Errorf("fig10 declares %d runs, want 4", len(plan))
	}
	for _, q := range plans["fig10"] {
		if q.collect {
			t.Errorf("fig10 run %+v collects", q)
		}
	}
}
