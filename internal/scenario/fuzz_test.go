package scenario

import (
	"math"
	"testing"

	"github.com/vanlan/vifi/internal/fault"
)

// FuzzScenarioParse: the one parser every tool and the daemon share never
// panics, whatever it is handed, and what it accepts is a spec the rest of
// the program can take at its word. Spec has no printer in Parse's grammar
// (String is the cache key), so an accepted spec is held to the next best
// thing: it validates again, parsing the same text yields the same value
// and key, every number in it is finite, its fault plan is in canonical
// form and parses, and its application config can be built. The seeds are
// the specs and the rejects of this package's tests.
func FuzzScenarioParse(f *testing.F) {
	for _, seed := range []string{
		"grid-city,vehicles=30,bs=72,w=3000,stagger=5s,bploss=0.1",
		"no-such-preset", "grid-city,vehicles", "grid-city,nonsense=1", "grid-city,vehicles=lots",
		"grid-city,vehicles=0", "grid-city,bploss=1.5", "grid-city,topology=mobius",
		"grid,bs=65279,vehicles=1", "grid,bs=65280,vehicles=1", "grid,bs=100000000",
		"grid,bs=9223372036854775807,vehicles=9223372036854775807",
		"grid-city,app=mixed,mix=1:2:1:0", "grid-city,app=tcp,xfer=20480,think=5s",
		"grid,app=mixed,mix=1:2:3:4,xfer=20480,think=2s,vehicles=8",
		"grid,app=quic", "grid,mix=1:2:3", "grid,mix=0:0:0:0", "grid,mix=1:2:a:4", "grid,xfer=-1", "grid,think=-2s",
		"grid-small,vehicles=4,stagger=1s", "grid-small,range=220,bprate=1e6,bpdelay=20ms,bploss=0.05",
		"metro-districts,w=3000", "metro-districts,bs=124,vehicles=8", "grid-metro,districts=2",
		"grid-small,faults=bs-flaky", "grid-small,faults=warp:mtbf=1s", "grid-small,faults=bs:wat=1s",
		"grid-city,faults=bs:mtbf=2m:mttr=10s", "grid-small,faults=bs:at=1s-2s:node=0",
		"strip,topology=cluster,clusters=3", "grid,w=NaN", "grid,speed=Inf", "grid,h=-Inf", "grid, , bs = 9 ,",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) {
		spec, err := Parse(in)
		if err != nil {
			return
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("Parse(%q) accepted a spec that does not validate again: %v", in, err)
		}
		if again, err := Parse(in); err != nil || again != spec || again.Key() != spec.Key() {
			t.Fatalf("Parse(%q) twice: %+v then %+v (%v)", in, spec, again, err)
		}
		for _, v := range []float64{spec.Width, spec.Height, spec.JitterM, spec.SpeedKmh, spec.RangeM, spec.BackplaneRateBps, spec.BackplaneLoss} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("Parse(%q) accepted the number %v", in, v)
			}
		}
		if _, err := spec.FaultSpec(); err != nil {
			t.Fatalf("Parse(%q): fault plan %q does not parse: %v", in, spec.Faults, err)
		}
		if canon, err := fault.Canonical(spec.Faults); err != nil || canon != spec.Faults {
			t.Fatalf("Parse(%q): fault plan %q is not canonical (%q, %v)", in, spec.Faults, canon, err)
		}
		spec.AppConfig()
	})
}
