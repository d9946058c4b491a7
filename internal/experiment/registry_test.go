package experiment

import (
	"os"
	"slices"
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

// poolRendered lists the ids another test already renders on a
// multi-worker engine and checks with checkGolden: the determinism and
// golden tables, and the sweeps that each have a determinism test of
// their own.
var poolRendered = slices.Concat(determinismSample, goldenOnly, scaleFleetSample,
	[]string{"scale-radio", "scale-protocol", "scale-faults", "scale-shard", "scale-shard-halo"})

// TestEveryRunnerProducesReport executes, at a sharply reduced scale
// through one shared engine, every registered experiment that is not in
// poolRendered, and checks each yields a non-empty, well-formed report.
// The set is IDs() minus that table, so a newly registered id runs here
// until it has a golden; an entry whose golden is missing is a stale
// table, not coverage.
func TestEveryRunnerProducesReport(t *testing.T) {
	if testing.Short() {
		t.Skip("full registry sweep in -short mode")
	}
	for _, id := range poolRendered {
		if _, err := os.Stat("testdata/golden_" + id + ".txt"); err != nil {
			t.Errorf("poolRendered lists %s, which has no golden: %v", id, err)
		}
	}
	o := Options{Seed: 7, Scale: 0.03, Engine: NewEngine(0)}
	for _, id := range IDs() {
		if slices.Contains(poolRendered, id) {
			continue
		}
		rep, err := Run(id, o)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		checkWellFormed(t, id, rep)
	}
}
