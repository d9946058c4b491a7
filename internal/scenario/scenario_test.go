package scenario

import (
	"strings"
	"testing"
	"time"

	"github.com/vanlan/vifi/internal/core"
	"github.com/vanlan/vifi/internal/frame"
	"github.com/vanlan/vifi/internal/sim"
	"github.com/vanlan/vifi/internal/workload"
)

func TestParsePresetAndOverrides(t *testing.T) {
	s, err := Parse("grid-city,vehicles=30,bs=72,w=3000,stagger=5s,bploss=0.1")
	if err != nil {
		t.Fatal(err)
	}
	if s.Vehicles != 30 || s.BS != 72 || s.Width != 3000 ||
		s.DepartStagger != 5*time.Second || s.BackplaneLoss != 0.1 {
		t.Errorf("overrides not applied: %+v", s)
	}
	if s.Height != 1500 || s.Topology != Grid {
		t.Errorf("preset fields lost: %+v", s)
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		"no-such-preset",
		"grid-city,vehicles",        // not key=value
		"grid-city,nonsense=1",      // unknown key
		"grid-city,vehicles=lots",   // bad int
		"grid-city,vehicles=0",      // fails validation
		"grid-city,bploss=1.5",      // loss outside [0,1]
		"grid-city,topology=mobius", // unknown topology
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", bad)
		}
	}
}

// TestRadioCountFitsAddressSpace pins the deployment-size bound: radio
// addresses are uint16 node IDs below core.GatewayAddr (0xFF00 = 65280),
// so a spec asking for more radios is an error at the one parser every
// tool shares, not a run that aliases radios onto gateway addresses.
func TestRadioCountFitsAddressSpace(t *testing.T) {
	for _, tc := range []struct {
		spec string
		ok   bool
	}{
		{"grid,bs=65279,vehicles=1", true}, // 65280 radios: IDs 0…65279
		{"grid,bs=1,vehicles=65279", true},
		{"grid,bs=65280,vehicles=1", false}, // 65281
		{"grid,bs=1,vehicles=65280", false},
		{"grid,bs=70000", false},
		{"grid,bs=100000000", false},
		{"grid,vehicles=100000000", false},
		{"grid,bs=9223372036854775807,vehicles=9223372036854775807", false}, // the sum wraps
	} {
		_, err := Parse(tc.spec)
		if tc.ok && err != nil {
			t.Errorf("Parse(%q): %v, want accepted", tc.spec, err)
		}
		if !tc.ok && (err == nil || !strings.Contains(err.Error(), "65280")) {
			t.Errorf("Parse(%q) = %v, want an error naming the 65280-radio limit", tc.spec, err)
		}
	}
}

func TestPresetsAllValid(t *testing.T) {
	for _, name := range Presets() {
		s, err := Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Validate(); err != nil {
			t.Errorf("preset %s invalid: %v", name, err)
		}
		if _, err := Generate(sim.NewKernel(1), s); err != nil {
			t.Errorf("preset %s does not generate: %v", name, err)
		}
	}
}

func TestKeyDistinguishesSpecs(t *testing.T) {
	a, _ := Parse("grid-city")
	b, _ := Parse("grid-city,vehicles=25")
	if a.Key() == b.Key() {
		t.Error("different specs share a key")
	}
	c, _ := Parse("grid-city")
	if a.Key() != c.Key() {
		t.Error("equal specs have different keys")
	}
}

// TestKeyDiscriminatesWorkloads pins the run-cache contract for the
// application knobs: two specs differing only in app (or an app knob)
// must never share a cache line or an RNG stream label.
func TestKeyDiscriminatesWorkloads(t *testing.T) {
	base, _ := Parse("grid-city")
	for _, override := range []string{
		"app=tcp", "app=voip", "app=web", "app=mixed",
		"xfer=20480", "think=5s", "app=mixed,mix=1:2:1:0",
	} {
		s, err := Parse("grid-city," + override)
		if err != nil {
			t.Fatalf("%s: %v", override, err)
		}
		if s.Key() == base.Key() {
			t.Errorf("override %q does not change Key()", override)
		}
	}
}

// TestGeometryInvariantUnderAppKnobs pins the GeomKey contract: changing
// only the workload must not regenerate the city, or every cross-app
// comparison would be confounded with topology noise.
func TestGeometryInvariantUnderAppKnobs(t *testing.T) {
	base, _ := Parse("grid-city")
	tcp, _ := Parse("grid-city,app=tcp,xfer=20480,think=5s")
	a, err := Generate(sim.NewKernel(42), base)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(sim.NewKernel(42), tcp)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.BSes {
		if a.BSes[i] != b.BSes[i] {
			t.Fatalf("BS %d moved when only the app changed", i)
		}
	}
	for v := range a.Routes {
		wa, wb := a.Routes[v].Waypoints, b.Routes[v].Waypoints
		if len(wa) != len(wb) {
			t.Fatalf("route %d reshaped when only the app changed", v)
		}
		for i := range wa {
			if wa[i] != wb[i] {
				t.Fatalf("route %d waypoint %d moved when only the app changed", v, i)
			}
		}
	}
	if base.GeomKey() != tcp.GeomKey() {
		t.Error("GeomKey depends on app knobs")
	}
	if base.Key() == tcp.Key() {
		t.Error("Key does not discriminate app knobs")
	}
}

// TestParseAppKnobs exercises the application workload spec syntax.
func TestParseAppKnobs(t *testing.T) {
	s, err := Parse("grid,app=mixed,mix=1:2:3:4,xfer=20480,think=2s,vehicles=8")
	if err != nil {
		t.Fatal(err)
	}
	if s.App != workload.MixedKind || s.AppMix != [4]int{1, 2, 3, 4} ||
		s.AppXferBytes != 20480 || s.AppThink != 2*time.Second {
		t.Errorf("app knobs not applied: %+v", s)
	}
	cfg := s.AppConfig()
	if cfg.TCP.TransferBytes != 20480 ||
		cfg.Web.Think != 2*time.Second || cfg.Mix != [4]int{1, 2, 3, 4} {
		t.Errorf("AppConfig did not fold knobs: %+v", cfg)
	}
	// Unset knobs keep the workload defaults.
	plain, _ := Parse("grid,app=tcp")
	if got := plain.AppConfig(); got.TCP.TransferBytes != 10*1024 {
		t.Errorf("default transfer size = %d, want 10240", got.TCP.TransferBytes)
	}
	for _, bad := range []string{
		"grid,app=quic", "grid,mix=1:2:3", "grid,mix=0:0:0:0",
		"grid,mix=1:2:a:4", "grid,xfer=-1", "grid,think=-2s",
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", bad)
		}
	}
}

// TestGenerateDeterministic is the package's core contract: a layout is a
// pure function of (kernel seed, spec).
func TestGenerateDeterministic(t *testing.T) {
	for _, name := range Presets() {
		s, _ := Preset(name)
		gen := func(seed int64) *Layout {
			lay, err := Generate(sim.NewKernel(seed), s)
			if err != nil {
				t.Fatal(err)
			}
			return lay
		}
		a, b := gen(42), gen(42)
		for i := range a.BSes {
			if a.BSes[i] != b.BSes[i] {
				t.Fatalf("%s: BS %d differs across equal seeds", name, i)
			}
		}
		for v := range a.Routes {
			if a.Departs[v] != b.Departs[v] {
				t.Fatalf("%s: departure %d differs", name, v)
			}
			wa, wb := a.Routes[v].Waypoints, b.Routes[v].Waypoints
			if len(wa) != len(wb) {
				t.Fatalf("%s: route %d length differs", name, v)
			}
			for i := range wa {
				if wa[i] != wb[i] {
					t.Fatalf("%s: route %d waypoint %d differs", name, v, i)
				}
			}
		}
		// A different seed re-rolls the geometry.
		c := gen(43)
		same := len(a.BSes) == len(c.BSes)
		if same {
			for i := range a.BSes {
				if a.BSes[i] != c.BSes[i] {
					same = false
					break
				}
			}
		}
		if same {
			t.Errorf("%s: different seeds produced identical basestations", name)
		}
	}
}

func TestGenerateShapes(t *testing.T) {
	k := sim.NewKernel(3)
	for _, name := range Presets() {
		s, _ := Preset(name)
		lay, err := Generate(k, s)
		if err != nil {
			t.Fatal(err)
		}
		if len(lay.BSes) != s.BS {
			t.Errorf("%s: %d basestations, want %d", name, len(lay.BSes), s.BS)
		}
		if len(lay.Routes) != s.Vehicles || len(lay.Departs) != s.Vehicles {
			t.Errorf("%s: fleet size mismatch", name)
		}
		for i, p := range lay.BSes {
			if p.X < 0 || p.X > s.Width || p.Y < 0 || p.Y > s.Height {
				t.Errorf("%s: BS %d at %v outside the region", name, i, p)
			}
		}
		for i, r := range lay.Routes {
			if r.Length() <= 0 || !r.Loop {
				t.Errorf("%s: route %d is not a positive-length loop", name, i)
			}
			if i > 0 && lay.Departs[i] != lay.Departs[i-1]+s.DepartStagger {
				t.Errorf("%s: departures not staggered by %v", name, s.DepartStagger)
			}
		}
	}
}

// TestBuildCellRunsFleet drives a generated city-scale cell briefly and
// checks the fleet actually exercises the shared channel.
func TestBuildCellRunsFleet(t *testing.T) {
	spec, err := Parse("grid-small,vehicles=4,stagger=1s")
	if err != nil {
		t.Fatal(err)
	}
	k := sim.NewKernel(11)
	cell, lay, err := BuildCell(k, spec, core.DefaultCellOptions(), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(cell.BSes) != spec.BS || len(cell.Vehicles) != 4 {
		t.Fatalf("cell shape: %d BSes / %d vehicles", len(cell.BSes), len(cell.Vehicles))
	}
	if len(lay.BSes) != spec.BS {
		t.Fatalf("layout shape mismatch")
	}
	k.RunUntil(12 * time.Second)
	anchored := 0
	for _, v := range cell.Vehicles {
		if v.Anchor() != frame.None {
			anchored++
		}
	}
	if cell.Channel.Stats().Transmissions == 0 {
		t.Error("no transmissions on the shared channel")
	}
	if anchored == 0 {
		t.Error("no vehicle acquired an anchor in a 12-BS grid")
	}
}

// TestApplyOverrides checks radio/backplane parameters reach the cell
// options.
func TestApplyOverrides(t *testing.T) {
	s, _ := Parse("grid-small,range=220,bprate=1e6,bpdelay=20ms,bploss=0.05")
	opts := s.Apply(core.DefaultCellOptions())
	if opts.Radio.D50 != 220 {
		t.Errorf("D50 = %g, want 220", opts.Radio.D50)
	}
	if opts.Backplane.Access.RateBps != 1e6 || opts.Backplane.Access.Delay != 20*time.Millisecond ||
		opts.Backplane.Access.Loss != 0.05 {
		t.Errorf("backplane overrides not applied: %+v", opts.Backplane)
	}
}
