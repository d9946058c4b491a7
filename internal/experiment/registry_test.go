package experiment

import (
	"math"
	"strings"
	"testing"
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
// 0, a negative, NaN or +Inf into the smallest run without a word.
func TestCheckScale(t *testing.T) {
	for _, s := range []float64{0.05, 1, 3} {
		if err := CheckScale(s); err != nil {
			t.Errorf("scale %v refused: %v", s, err)
		}
	}
	for _, s := range []float64{0, math.Copysign(0, -1), -1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		err := CheckScale(s)
		if err == nil {
			t.Errorf("scale %v accepted", s)
		} else if !strings.Contains(err.Error(), "not a positive finite number") {
			t.Errorf("scale %v: err = %v", s, err)
		}
	}
}
