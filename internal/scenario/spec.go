// Package scenario generates synthetic deployments at arbitrary scale:
// parameterized basestation topologies (grid, strip, cluster), fleets of
// vehicles on generated routes with staggered departures, and per-scenario
// radio/backplane parameters. It turns the repository's two hand-built
// testbeds (VanLAN, DieselNet) into an unbounded scenario space.
//
// Determinism contract: a scenario is a pure function of (kernel seed,
// Spec). All geometry draws come from kernel RNG streams labeled with the
// spec's canonical Key(), so equal seeds and equal specs yield
// byte-identical deployments, two different specs never perturb each
// other's streams, and Key() doubles as the run-cache discriminator for
// the experiment engine (DESIGN.md §3).
package scenario

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/vanlan/vifi/internal/core"
	"github.com/vanlan/vifi/internal/fault"
	"github.com/vanlan/vifi/internal/workload"
)

// Topology selects the basestation placement family.
type Topology int

// Placement families.
const (
	// Grid covers the region with a jittered rows×cols lattice — the
	// "municipal mesh" shape.
	Grid Topology = iota
	// Strip lines basestations along a corridor — a highway or main
	// street deployment.
	Strip
	// Cluster scatters basestations in hot spots — organic shop/home
	// deployments around a town.
	Cluster
)

// String implements fmt.Stringer.
func (t Topology) String() string {
	switch t {
	case Grid:
		return "grid"
	case Strip:
		return "strip"
	case Cluster:
		return "cluster"
	default:
		return "topology(?)"
	}
}

// Spec parameterizes one synthetic deployment. The zero value is not
// runnable; start from a preset (Parse, Preset) and override fields.
type Spec struct {
	Topology Topology
	// BS is the basestation count; Clusters the hot-spot count (Cluster
	// topology only).
	BS       int
	Clusters int
	// Width and Height bound the deployment region in meters.
	Width, Height float64
	// JitterM perturbs basestation placement (lattice jitter for Grid and
	// Strip, hot-spot spread for Cluster).
	JitterM float64

	// Vehicles is the fleet size; SpeedKmh the nominal vehicle speed
	// (each vehicle's actual speed is jittered ±10%); RouteStops the
	// number of stops/waypoints per generated route; DepartStagger the
	// spacing between consecutive vehicle departures.
	Vehicles      int
	SpeedKmh      float64
	RouteStops    int
	DepartStagger time.Duration

	// Districts splits the region into that many radio-isolated vertical
	// stripes (0 and 1 mean a single connected region). Each district gets
	// its own Internet gateway and a proportional share of basestations
	// and vehicles; adjacent stripes are separated by a moat wider than
	// the radio conflict reach, so no frame, carrier-sense or backplane
	// interaction crosses a district boundary. Districted scenarios are
	// what the sharded execution path partitions (one shard = a contiguous
	// group of districts); they also model multi-campus deployments whose
	// sites share nothing but the Internet. Grid topology only.
	Districts int

	// RangeM overrides the radio model's 50%-reception distance when
	// positive (0 keeps radio.DefaultParams).
	RangeM float64

	// Backplane overrides; zero values keep backplane.DefaultConfig.
	BackplaneRateBps float64
	BackplaneDelay   time.Duration
	BackplaneLoss    float64

	// App selects the per-vehicle application workload (internal/workload):
	// cbr (the constant-rate fleet probe, the zero value), tcp, voip, web,
	// or mixed. The remaining fields are per-app knobs; zero values keep
	// workload.DefaultConfig.
	App workload.Kind
	// AppXferBytes overrides the TCP transfer size in bytes.
	AppXferBytes int
	// AppThink overrides the web workload's mean think time.
	AppThink time.Duration
	// AppMix weights the cbr:tcp:voip:web split for app=mixed (all-zero
	// means even).
	AppMix [4]int

	// Faults holds the canonical fault-injection spec (internal/fault
	// grammar; "" runs fault-free). Stored canonicalized so Spec stays
	// comparable and equal fault plans always share a cache line.
	Faults string
}

// FaultSpec parses the spec's fault string ("" yields the empty spec).
func (s Spec) FaultSpec() (fault.Spec, error) { return fault.Parse(s.Faults) }

// AppConfig folds the spec's application knobs into a workload config.
func (s Spec) AppConfig() workload.Config {
	cfg := workload.DefaultConfig()
	if s.AppXferBytes > 0 {
		cfg.TCP.TransferBytes = s.AppXferBytes
	}
	if s.AppThink > 0 {
		cfg.Web.Think = s.AppThink
	}
	if s.AppMix != ([4]int{}) {
		cfg.Mix = s.AppMix
	}
	return cfg
}

// presets is the named scenario catalogue. Kept in a function so callers
// can never mutate the catalogue through a returned Spec.
func presets() map[string]Spec {
	return map[string]Spec{
		// A compact sanity-scale grid.
		"grid-small": {
			Topology: Grid, BS: 12, Width: 900, Height: 600, JitterM: 25,
			Vehicles: 3, SpeedKmh: 36, RouteStops: 6, DepartStagger: 2 * time.Second,
		},
		// The city-scale reference: 54 basestations, a 24-vehicle fleet.
		"grid-city": {
			Topology: Grid, BS: 54, Width: 2400, Height: 1500, JitterM: 30,
			Vehicles: 24, SpeedKmh: 40, RouteStops: 10, DepartStagger: 2 * time.Second,
		},
		// The metropolitan reference for the radio-scaling sweep: a 484-BS
		// region at grid-city density (≈1.5e-5 BS/m²) probed by a fixed
		// 16-vehicle fleet, spanning several cutoffs of the channel's
		// spatial grid in each direction.
		"grid-metro": {
			Topology: Grid, BS: 484, Width: 7200, Height: 4500, JitterM: 30,
			Vehicles: 16, SpeedKmh: 40, RouteStops: 10, DepartStagger: 200 * time.Millisecond,
		},
		// Four radio-isolated districts at grid-city density, each with its
		// own gateway — the reference scenario for sharded execution
		// (scale-shard): 232 nodes, structurally partitionable at 1, 2 or
		// 4 shards.
		"metro-districts": {
			Topology: Grid, BS: 216, Districts: 4, Width: 14400, Height: 1500, JitterM: 30,
			Vehicles: 16, SpeedKmh: 40, RouteStops: 10, DepartStagger: 200 * time.Millisecond,
		},
		// A corridor deployment: basestations along a highway.
		"strip-highway": {
			Topology: Strip, BS: 40, Width: 6000, Height: 400, JitterM: 20,
			Vehicles: 16, SpeedKmh: 80, RouteStops: 4, DepartStagger: 3 * time.Second,
		},
		// Organic hot-spot coverage around a town.
		"cluster-town": {
			Topology: Cluster, BS: 50, Clusters: 7, Width: 2600, Height: 1600, JitterM: 90,
			Vehicles: 20, SpeedKmh: 40, RouteStops: 9, DepartStagger: 2 * time.Second,
		},
		// Short exploration aliases: compact instances of each topology for
		// quick command lines like `vifi-sim -scenario grid,app=voip`.
		"grid": {
			Topology: Grid, BS: 12, Width: 900, Height: 600, JitterM: 25,
			Vehicles: 3, SpeedKmh: 36, RouteStops: 6, DepartStagger: 2 * time.Second,
		},
		"strip": {
			Topology: Strip, BS: 16, Width: 2400, Height: 300, JitterM: 20,
			Vehicles: 6, SpeedKmh: 60, RouteStops: 4, DepartStagger: 2 * time.Second,
		},
		"cluster": {
			Topology: Cluster, BS: 18, Clusters: 4, Width: 1500, Height: 1000, JitterM: 80,
			Vehicles: 6, SpeedKmh: 40, RouteStops: 8, DepartStagger: 2 * time.Second,
		},
	}
}

// Presets lists the preset names in a stable order.
func Presets() []string {
	m := presets()
	out := make([]string, 0, len(m))
	for name := range m {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Preset returns a named preset spec.
func Preset(name string) (Spec, error) {
	if s, ok := presets()[name]; ok {
		return s, nil
	}
	return Spec{}, fmt.Errorf("scenario: unknown preset %q (have %s)", name, strings.Join(Presets(), ", "))
}

// Parse builds a Spec from the cmd-line syntax: a preset name followed by
// optional key=value overrides, comma-separated. Example:
//
//	grid-city,vehicles=30,bs=72,w=3000,stagger=5s
//
// Keys: bs, clusters, w, h, jitter, vehicles, districts, speed, stops,
// stagger, range, bprate, bpdelay, bploss, topology, app, xfer, think,
// mix, faults.
func Parse(s string) (Spec, error) {
	parts := strings.Split(s, ",")
	name := strings.TrimSpace(parts[0])
	spec, err := Preset(name)
	if err != nil {
		return Spec{}, err
	}
	for _, kv := range parts[1:] {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return Spec{}, fmt.Errorf("scenario: override %q is not key=value", kv)
		}
		if err := spec.set(strings.TrimSpace(key), strings.TrimSpace(val)); err != nil {
			return Spec{}, err
		}
	}
	return spec, spec.Validate()
}

// set applies one key=value override.
func (s *Spec) set(key, val string) error {
	geti := func() (int, error) { return strconv.Atoi(val) }
	getf := func() (float64, error) { return strconv.ParseFloat(val, 64) }
	getd := func() (time.Duration, error) { return time.ParseDuration(val) }
	var err error
	switch key {
	case "topology":
		switch val {
		case "grid":
			s.Topology = Grid
		case "strip":
			s.Topology = Strip
		case "cluster":
			s.Topology = Cluster
		default:
			return fmt.Errorf("scenario: unknown topology %q (grid, strip, cluster)", val)
		}
	case "bs":
		s.BS, err = geti()
	case "clusters":
		s.Clusters, err = geti()
	case "w":
		s.Width, err = getf()
	case "h":
		s.Height, err = getf()
	case "jitter":
		s.JitterM, err = getf()
	case "vehicles":
		s.Vehicles, err = geti()
	case "districts":
		s.Districts, err = geti()
	case "speed":
		s.SpeedKmh, err = getf()
	case "stops":
		s.RouteStops, err = geti()
	case "stagger":
		s.DepartStagger, err = getd()
	case "range":
		s.RangeM, err = getf()
	case "bprate":
		s.BackplaneRateBps, err = getf()
	case "bpdelay":
		s.BackplaneDelay, err = getd()
	case "bploss":
		s.BackplaneLoss, err = getf()
	case "app":
		s.App, err = workload.ParseKind(val)
	case "xfer":
		s.AppXferBytes, err = geti()
	case "think":
		s.AppThink, err = getd()
	case "mix":
		s.AppMix, err = parseMix(val)
	case "faults":
		// Stored in canonical form (fault.Canonical re-serializes), so two
		// spellings of the same plan share one Key. Note the fault grammar
		// is colon/semicolon-based — no commas — exactly so it embeds in
		// this comma-separated override list.
		s.Faults, err = fault.Canonical(val)
	default:
		return fmt.Errorf("scenario: unknown key %q", key)
	}
	if err != nil {
		return fmt.Errorf("scenario: bad value for %s: %v", key, err)
	}
	return nil
}

// parseMix parses the cbr:tcp:voip:web weight syntax, e.g. "1:2:1:0".
func parseMix(val string) ([4]int, error) {
	var mix [4]int
	parts := strings.Split(val, ":")
	if len(parts) != 4 {
		return mix, fmt.Errorf("want cbr:tcp:voip:web weights, got %q", val)
	}
	for i, p := range parts {
		w, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || w < 0 {
			return mix, fmt.Errorf("bad mix weight %q", p)
		}
		mix[i] = w
	}
	if mix == ([4]int{}) {
		return mix, fmt.Errorf("mix weights are all zero")
	}
	return mix, nil
}

// Validate reports the first configuration error.
func (s Spec) Validate() error {
	// Radio addresses are uint16 node IDs and the gateways sit at
	// core.GatewayAddr and up, so a deployment holds that many radios.
	const maxRadios = int(core.GatewayAddr)
	for _, v := range []float64{s.Width, s.Height, s.JitterM, s.SpeedKmh, s.RangeM, s.BackplaneRateBps, s.BackplaneLoss} {
		// NaN passes every range test below and Inf most of them.
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("scenario: %g is not a finite number", v)
		}
	}
	switch {
	case s.BS < 1:
		return fmt.Errorf("scenario: bs = %d, need ≥ 1", s.BS)
	case s.Vehicles < 1:
		return fmt.Errorf("scenario: vehicles = %d, need ≥ 1", s.Vehicles)
	case s.BS > maxRadios || s.Vehicles > maxRadios || s.BS+s.Vehicles > maxRadios:
		return fmt.Errorf("scenario: bs = %d plus vehicles = %d exceeds the %d radios the 16-bit address space holds",
			s.BS, s.Vehicles, maxRadios)
	case s.Width <= 0 || s.Height <= 0:
		return fmt.Errorf("scenario: region %gx%g must be positive", s.Width, s.Height)
	case s.SpeedKmh <= 0:
		return fmt.Errorf("scenario: speed %g km/h must be positive", s.SpeedKmh)
	case s.RouteStops < 2:
		return fmt.Errorf("scenario: stops = %d, need ≥ 2", s.RouteStops)
	case s.JitterM < 0 || s.RangeM < 0 || s.BackplaneLoss < 0 || s.BackplaneLoss > 1:
		return fmt.Errorf("scenario: negative jitter/range or loss outside [0,1]")
	case s.Topology == Cluster && s.Clusters < 1:
		return fmt.Errorf("scenario: cluster topology needs clusters ≥ 1")
	case s.DepartStagger < 0:
		return fmt.Errorf("scenario: stagger must be ≥ 0")
	case s.Districts < 0:
		return fmt.Errorf("scenario: districts = %d, need ≥ 0", s.Districts)
	case s.Districts >= 2 && s.Topology != Grid:
		return fmt.Errorf("scenario: districts need grid topology, have %s", s.Topology)
	case s.Districts >= 2 && s.BS < s.Districts:
		return fmt.Errorf("scenario: bs = %d < districts = %d", s.BS, s.Districts)
	case s.Districts >= 2 && s.Vehicles < s.Districts:
		return fmt.Errorf("scenario: vehicles = %d < districts = %d", s.Vehicles, s.Districts)
	case s.App < workload.CBRKind || s.App > workload.MixedKind:
		return fmt.Errorf("scenario: app %d out of range", int(s.App))
	case s.AppXferBytes < 0 || s.AppThink < 0:
		return fmt.Errorf("scenario: negative app transfer size or think time")
	case s.AppMix[0] < 0 || s.AppMix[1] < 0 || s.AppMix[2] < 0 || s.AppMix[3] < 0:
		return fmt.Errorf("scenario: negative mix weight")
	}
	if s.Faults != "" {
		if _, err := fault.Parse(s.Faults); err != nil {
			return err
		}
	}
	return nil
}

// Key returns the canonical spec string: every field in a fixed order.
// Equal specs produce equal keys and vice versa, so the key is the
// experiment engine's run-cache discriminator (and the workload drivers'
// RNG stream label) — two specs differing in any knob, including the
// application fields, never share a cache line or a driver stream.
func (s Spec) Key() string {
	key := fmt.Sprintf("%s app=%s xfer=%d think=%s mix=%d:%d:%d:%d",
		s.GeomKey(), s.App, s.AppXferBytes, s.AppThink,
		s.AppMix[0], s.AppMix[1], s.AppMix[2], s.AppMix[3])
	// The faults fragment joins the key only when a plan is configured:
	// fault-free specs keep the exact historical key, so every existing
	// golden, cache line and RNG stream label is untouched.
	if s.Faults != "" {
		key += " faults=" + s.Faults
	}
	return key
}

// GeomKey is the geometry-only spec string: every field that shapes the
// deployment (topology, region, fleet, radio, backplane) and none of the
// application knobs. Generation draws its RNG streams from this key, so
// changing the workload — app kind, transfer size, mix — never
// regenerates the city: comparisons across workloads run on identical
// basestations and routes.
func (s Spec) GeomKey() string {
	key := fmt.Sprintf("%s bs=%d cl=%d w=%g h=%g j=%g v=%d spd=%g stops=%d stg=%s rng=%g bpr=%g bpd=%s bpl=%g",
		s.Topology, s.BS, s.Clusters, s.Width, s.Height, s.JitterM,
		s.Vehicles, s.SpeedKmh, s.RouteStops, s.DepartStagger,
		s.RangeM, s.BackplaneRateBps, s.BackplaneDelay, s.BackplaneLoss)
	// The districts fragment joins the key only when the region is
	// actually split, so every pre-existing spec keeps its exact
	// historical key (goldens, cache lines, RNG stream labels).
	if s.Districts >= 2 {
		key += fmt.Sprintf(" d=%d", s.Districts)
	}
	return key
}

// String implements fmt.Stringer.
func (s Spec) String() string { return s.Key() }
