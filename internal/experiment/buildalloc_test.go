package experiment

import (
	"runtime"
	"testing"
	"time"

	"github.com/vanlan/vifi/internal/core"
	"github.com/vanlan/vifi/internal/scenario"
)

// raceBuild is set in -race builds (race_test.go).
var raceBuild bool

// maxAllocsPerRadio bounds the heap objects a grid-metro session allocates
// per radio while StartLiveRun builds it and through its first simulated
// second, the lazy first use of every radio's protocol state: 1.89 measured
// (608–613 to build, 334 to run the second, 500 radios), rounded up. A
// radio's nodes, MACs, channel records and ports are slab elements seeded
// in place, and its probability table's first backings are a room carved
// from one slab per cell at first use (DESIGN §6 "A radio is built in
// place").
const maxAllocsPerRadio = 2

// TestRadioBuildAllocs gates the build layout: it counts
// runtime.MemStats.Mallocs around StartLiveRun on grid-metro and around
// its first one-second Step, and holds the sum to maxAllocsPerRadio per
// radio. One heap object per radio more in any layer — a string label, a
// heap RNG, a method-value closure, a map made before its first write —
// fails it.
func TestRadioBuildAllocs(t *testing.T) {
	if raceBuild {
		t.Skip("race build: its allocation counts are not a normal build's")
	}
	spec, err := scenario.Parse("grid-metro")
	if err != nil {
		t.Fatal(err)
	}
	var before, built, stepped runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	l, err := StartLiveRun(3, spec, core.DefaultConfig(), 15*time.Second, 1, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&built)
	if at, _ := l.Step(); at != time.Second {
		t.Fatalf("first step ended at %v, want 1s", at)
	}
	runtime.ReadMemStats(&stepped)
	radios := l.cells[0].Channel.NumNodes()
	build, first := built.Mallocs-before.Mallocs, stepped.Mallocs-built.Mallocs
	per := float64(build+first) / float64(radios)
	t.Logf("%d radios: %d objects to build, %d in the first second, %.2f per radio", radios, build, first, per)
	if per > maxAllocsPerRadio {
		t.Errorf("%.2f heap objects per radio across build and first second, want ≤ %d", per, maxAllocsPerRadio)
	}
}
