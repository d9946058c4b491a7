package scenario

import (
	"fmt"
	"math"
	"time"

	"github.com/vanlan/vifi/internal/core"
	"github.com/vanlan/vifi/internal/mobility"
	"github.com/vanlan/vifi/internal/sim"
)

// Layout is a generated deployment: basestation positions plus one route
// and departure time per vehicle. For districted specs (Spec.Districts ≥
// 2) the district fields record the stripe partition; otherwise they are
// zero/nil and Districts reads as 1.
type Layout struct {
	Spec    Spec
	BSes    []mobility.Point
	Routes  []*mobility.Route
	Departs []time.Duration

	// BSDistrict/VehDistrict map each basestation and vehicle index to its
	// district; DistrictX0/DistrictX1 bound each district's usable x-span
	// (basestations and routes never leave it); MoatM is the stripe gap.
	BSDistrict  []int
	VehDistrict []int
	DistrictX0  []float64
	DistrictX1  []float64
	MoatM       float64
}

// Districts returns the district count (1 for undistricted layouts).
func (l *Layout) Districts() int {
	if l.Spec.Districts < 2 {
		return 1
	}
	return l.Spec.Districts
}

// moatFrac oversizes the inter-district moat relative to the radio
// conflict reach so float jitter at the stripe edges can never close the
// gap below the reach.
const moatFrac = 1.05

// MoatM returns the inter-district stripe gap for the spec: moatFrac
// times the radio conflict reach — the larger of the reception cutoff
// and the carrier-sense range — under the spec's radio overrides. Beyond
// the reach no frame can be received and no transmitter is sensed, so
// nodes in different districts share no radio state at all.
func (s Spec) MoatM() float64 {
	p := s.Apply(core.DefaultCellOptions()).Radio
	return math.Max(p.CutoffM(), p.SenseRangeM) * moatFrac
}

// Generate derives the deployment geometry from the kernel's seed and the
// spec. All randomness flows through streams labeled with the spec's
// geometry key (GeomKey — the application knobs are excluded), so
// generation is independent of any other RNG consumer, reproducible per
// (seed, spec), and identical across workloads on the same deployment.
func Generate(k *sim.Kernel, s Spec) (*Layout, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if s.Districts >= 2 {
		return generateDistricts(k, s)
	}
	key := s.GeomKey()
	lay := &Layout{Spec: s}
	lay.BSes = placeBSes(k.RNG("scenario", key, "bs"), s)

	lay.Routes = make([]*mobility.Route, s.Vehicles)
	lay.Departs = make([]time.Duration, s.Vehicles)
	for i := 0; i < s.Vehicles; i++ {
		rng := k.RNG("scenario", key, "route", fmt.Sprint(i))
		// ±10% per-vehicle speed spread keeps the fleet from moving in
		// lockstep (and from beaconing in phase forever).
		speed := mobility.KmhToMps(s.SpeedKmh) * (0.9 + 0.2*rng.Float64())
		switch s.Topology {
		case Strip:
			lay.Routes[i] = mobility.StripRoute(s.Width, s.Height, speed, i%2 == 1)
		case Grid:
			cols, rows := gridDims(s)
			lay.Routes[i] = mobility.GridTour(rng, s.Width, s.Height, cols, rows, s.RouteStops, speed)
		default:
			lay.Routes[i] = mobility.RandomLoop(rng, s.Width, s.Height, s.RouteStops, speed)
		}
		lay.Departs[i] = time.Duration(i) * s.DepartStagger
	}
	return lay, nil
}

// generateDistricts lays out a districted spec: D vertical stripes of
// equal usable width separated by moats wider than the radio conflict
// reach. Each district is generated as an independent grid sub-deployment
// in stripe-local coordinates — with its own "bs" RNG stream, so district
// geometry is independent of the others — then translated to its stripe.
// Vehicle i belongs to district i mod D; its route stays inside the
// stripe (route generators inset from the sub-region bounds), and its
// departure keeps the global stagger.
func generateDistricts(k *sim.Kernel, s Spec) (*Layout, error) {
	D := s.Districts
	moat := s.MoatM()
	stripeW := (s.Width - float64(D-1)*moat) / float64(D)
	if stripeW <= 2*s.JitterM {
		return nil, fmt.Errorf("scenario: width %g cannot hold %d districts with %.0fm moats (stripe %.0fm)",
			s.Width, D, moat, stripeW)
	}
	key := s.GeomKey()
	lay := &Layout{Spec: s, MoatM: moat}

	// Largest-remainder split of the basestations, district-major order.
	base, rem := s.BS/D, s.BS%D
	subs := make([]Spec, D)
	for d := 0; d < D; d++ {
		sub := s
		sub.Districts = 0
		sub.Width = stripeW
		sub.BS = base
		if d < rem {
			sub.BS++
		}
		subs[d] = sub
		off := float64(d) * (stripeW + moat)
		lay.DistrictX0 = append(lay.DistrictX0, off)
		lay.DistrictX1 = append(lay.DistrictX1, off+stripeW)
		pts := placeBSes(k.RNG("scenario", key, "bs", fmt.Sprint(d)), sub)
		for _, p := range pts {
			lay.BSes = append(lay.BSes, p.Add(off, 0))
			lay.BSDistrict = append(lay.BSDistrict, d)
		}
	}

	lay.Routes = make([]*mobility.Route, s.Vehicles)
	lay.Departs = make([]time.Duration, s.Vehicles)
	lay.VehDistrict = make([]int, s.Vehicles)
	for i := 0; i < s.Vehicles; i++ {
		d := i % D
		lay.VehDistrict[i] = d
		rng := k.RNG("scenario", key, "route", fmt.Sprint(i))
		speed := mobility.KmhToMps(s.SpeedKmh) * (0.9 + 0.2*rng.Float64())
		cols, rows := gridDims(subs[d])
		r := mobility.GridTour(rng, stripeW, s.Height, cols, rows, s.RouteStops, speed)
		lay.Routes[i] = translateRoute(r, lay.DistrictX0[d])
		lay.Departs[i] = time.Duration(i) * s.DepartStagger
	}
	return lay, nil
}

// translateRoute shifts a route along the x axis (stripe-local to global
// coordinates).
func translateRoute(r *mobility.Route, dx float64) *mobility.Route {
	wps := make([]mobility.Point, len(r.Waypoints))
	for i, p := range r.Waypoints {
		wps[i] = p.Add(dx, 0)
	}
	return mobility.NewRoute(wps, r.SpeedMPS, r.Loop)
}

// gridDims chooses a lattice shape matching the region's aspect ratio:
// cols·rows ≥ BS with cols/rows ≈ Width/Height.
func gridDims(s Spec) (cols, rows int) {
	aspect := s.Width / s.Height
	cols = int(math.Ceil(math.Sqrt(float64(s.BS) * aspect)))
	if cols < 2 {
		cols = 2
	}
	rows = (s.BS + cols - 1) / cols
	if rows < 2 {
		rows = 2
	}
	return cols, rows
}

// placeBSes generates the basestation positions for the spec's topology.
func placeBSes(rng *sim.RNG, s Spec) []mobility.Point {
	pts := make([]mobility.Point, 0, s.BS)
	clamp := func(p mobility.Point) mobility.Point {
		return mobility.Point{
			X: math.Min(math.Max(p.X, 0), s.Width),
			Y: math.Min(math.Max(p.Y, 0), s.Height),
		}
	}
	jitter := func() (float64, float64) {
		return (rng.Float64() - 0.5) * 2 * s.JitterM, (rng.Float64() - 0.5) * 2 * s.JitterM
	}
	switch s.Topology {
	case Grid:
		cols, rows := gridDims(s)
		for i := 0; i < s.BS; i++ {
			c, r := i%cols, i/cols
			dx, dy := jitter()
			pts = append(pts, clamp(mobility.Point{
				X: s.Width*(float64(c)+0.5)/float64(cols) + dx,
				Y: s.Height*(float64(r)+0.5)/float64(rows) + dy,
			}))
		}
	case Strip:
		// Alternate sides of the corridor lanes (which run at 45%/55% of
		// the height — see mobility.StripRoute).
		for i := 0; i < s.BS; i++ {
			side := 0.30
			if i%2 == 1 {
				side = 0.70
			}
			dx, dy := jitter()
			pts = append(pts, clamp(mobility.Point{
				X: s.Width*(float64(i)+0.5)/float64(s.BS) + dx,
				Y: s.Height*side + dy,
			}))
		}
	case Cluster:
		// Hot-spot anchors placed uniformly (inset), members spread around
		// them with JitterM as the normal scale.
		anchors := make([]mobility.Point, s.Clusters)
		for i := range anchors {
			anchors[i] = mobility.Point{
				X: s.Width * (0.15 + 0.7*rng.Float64()),
				Y: s.Height * (0.15 + 0.7*rng.Float64()),
			}
		}
		for i := 0; i < s.BS; i++ {
			a := anchors[i%len(anchors)]
			pts = append(pts, clamp(mobility.Point{
				X: a.X + rng.NormFloat64()*s.JitterM,
				Y: a.Y + rng.NormFloat64()*s.JitterM,
			}))
		}
	}
	return pts
}

// Apply folds the spec's radio and backplane overrides into cell options.
func (s Spec) Apply(opts core.CellOptions) core.CellOptions {
	if s.RangeM > 0 {
		opts.Radio.D50 = s.RangeM
	}
	if s.BackplaneRateBps > 0 {
		opts.Backplane.Access.RateBps = s.BackplaneRateBps
	}
	if s.BackplaneDelay > 0 {
		opts.Backplane.Access.Delay = s.BackplaneDelay
	}
	if s.BackplaneLoss > 0 {
		opts.Backplane.Access.Loss = s.BackplaneLoss
	}
	return opts
}

// BuildCell generates the layout and wires a running fleet cell over it:
// fixed basestations, one route-driven vehicle per fleet slot with its
// staggered departure, and the spec's radio/backplane parameters.
// Districted specs get one gateway per district so the wired side is
// partitioned exactly like the radio side. districtShard places the
// districts: nil runs them all here; otherwise district d's nodes are
// full stacks when districtShard[d] == shard and position-only ghosts
// otherwise (see core.Placement). The layout — and every NodeID and RNG
// stream label — is identical under any placement on the same kernel seed.
func BuildCell(k *sim.Kernel, s Spec, opts core.CellOptions, districtShard []int, shard int) (*core.Cell, *Layout, error) {
	lay, err := Generate(k, s)
	if err != nil {
		return nil, nil, err
	}
	if districtShard != nil && len(districtShard) != lay.Districts() {
		return nil, nil, fmt.Errorf("scenario: %d-district placement for a %d-district spec", len(districtShard), lay.Districts())
	}
	bs, vehs := layoutMovers(lay)
	return core.NewFleetCell(k, s.Apply(opts), bs, vehs, core.Placement{
		Districts:  lay.Districts(),
		BSDistrict: lay.BSDistrict, VehDistrict: lay.VehDistrict,
		DistrictShard: districtShard, Shard: shard,
	}), lay, nil
}

// layoutMovers materializes the layout's movers: fixed basestations and
// one route-driven vehicle per fleet slot with its staggered departure.
func layoutMovers(lay *Layout) (bs, vehs []mobility.Mover) {
	bs = make([]mobility.Mover, len(lay.BSes))
	for i, p := range lay.BSes {
		bs[i] = mobility.Fixed(p)
	}
	vehs = make([]mobility.Mover, len(lay.Routes))
	for i, r := range lay.Routes {
		vehs[i] = &mobility.RouteMover{Route: r, Depart: lay.Departs[i]}
	}
	return bs, vehs
}
