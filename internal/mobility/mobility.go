// Package mobility models vehicle movement for the ViFi reproduction:
// 2-D geometry, waypoint routes traversed at constant speed, and the two
// environments from the paper — a VanLAN-style campus (11 basestations
// across an 828×559 m region, shuttle loop at ≈40 km/h) and a
// DieselNet-style town grid (bus routes past curbside basestations).
//
// Positions are in meters; time is time.Duration of simulation time.
package mobility

import (
	"fmt"
	"math"
	"time"
)

// Point is a position in meters on the simulation plane.
type Point struct {
	X, Y float64
}

// Dist returns the Euclidean distance to q in meters.
func (p Point) Dist(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// Add returns p translated by (dx, dy).
func (p Point) Add(dx, dy float64) Point { return Point{p.X + dx, p.Y + dy} }

// Lerp returns the point a fraction t of the way from p to q.
func (p Point) Lerp(q Point, t float64) Point {
	return Point{p.X + (q.X-p.X)*t, p.Y + (q.Y-p.Y)*t}
}

func (p Point) String() string { return fmt.Sprintf("(%.1f,%.1f)", p.X, p.Y) }

// Route is a polyline traversed at constant speed. If Loop is set the
// vehicle returns from the last waypoint to the first and repeats forever;
// otherwise it parks at the final waypoint.
type Route struct {
	Waypoints []Point
	SpeedMPS  float64 // meters per second
	Loop      bool

	segLen []float64 // cached per-segment lengths
	total  float64   // cached total length (including closing segment if Loop)
}

// KmhToMps converts km/h to m/s.
func KmhToMps(kmh float64) float64 { return kmh / 3.6 }

// NewRoute builds a route over the waypoints at the given speed.
// It panics on fewer than two waypoints or non-positive speed — both are
// configuration errors, not runtime conditions.
func NewRoute(waypoints []Point, speedMPS float64, loop bool) *Route {
	if len(waypoints) < 2 {
		panic("mobility: route needs at least two waypoints")
	}
	if speedMPS <= 0 {
		panic("mobility: route speed must be positive")
	}
	r := &Route{Waypoints: waypoints, SpeedMPS: speedMPS, Loop: loop}
	n := len(waypoints)
	segs := n - 1
	if loop {
		segs = n
	}
	r.segLen = make([]float64, segs)
	for i := 0; i < segs; i++ {
		a := waypoints[i]
		b := waypoints[(i+1)%n]
		r.segLen[i] = a.Dist(b)
		r.total += r.segLen[i]
	}
	if r.total <= 0 {
		panic("mobility: route has zero length")
	}
	return r
}

// Length returns the route length in meters (one full lap when looping).
func (r *Route) Length() float64 { return r.total }

// LapTime returns the time to traverse the route once.
func (r *Route) LapTime() time.Duration {
	return time.Duration(r.total / r.SpeedMPS * float64(time.Second))
}

// PositionAtDistance returns the position after traveling d meters from
// the start of the route (wrapping when looping, clamping otherwise).
func (r *Route) PositionAtDistance(d float64) Point {
	if r.Loop {
		d = math.Mod(d, r.total)
		if d < 0 {
			d += r.total
		}
	} else {
		if d <= 0 {
			return r.Waypoints[0]
		}
		if d >= r.total {
			return r.Waypoints[len(r.Waypoints)-1]
		}
	}
	n := len(r.Waypoints)
	for i, l := range r.segLen {
		if d <= l || i == len(r.segLen)-1 {
			a := r.Waypoints[i]
			b := r.Waypoints[(i+1)%n]
			if l == 0 {
				return a
			}
			return a.Lerp(b, d/l)
		}
		d -= l
	}
	return r.Waypoints[n-1] // unreachable
}

// Position returns the vehicle position at time t after departure.
func (r *Route) Position(t time.Duration) Point {
	return r.PositionAtDistance(r.SpeedMPS * t.Seconds())
}

// Mover reports a position as a function of time. Both moving vehicles
// and fixed basestations implement it.
type Mover interface {
	Position(t time.Duration) Point
}

// SpeedBounded is an optional Mover extension: a mover that can bound
// how fast it travels advertises the bound so spatial indexes
// (internal/radio) can derive position-revalidation deadlines — a
// stationary mover (bound 0) is indexed once and never rechecked.
// Implementations must never move faster than the returned bound.
type SpeedBounded interface {
	// MaxSpeedMPS returns an upper bound on the mover's speed in meters
	// per second; 0 means the mover never moves.
	MaxSpeedMPS() float64
}

// Fixed is a Mover that never moves (a basestation).
type Fixed Point

// Position implements Mover.
func (f Fixed) Position(time.Duration) Point { return Point(f) }

// MaxSpeedMPS implements SpeedBounded: a basestation never moves.
func (f Fixed) MaxSpeedMPS() float64 { return 0 }

// RouteMover adapts a Route (plus a departure offset) into a Mover.
type RouteMover struct {
	Route  *Route
	Depart time.Duration // time at which the vehicle starts moving
}

// Position implements Mover. Before departure the vehicle sits at the
// route start.
func (m *RouteMover) Position(t time.Duration) Point {
	if t < m.Depart {
		return m.Route.Waypoints[0]
	}
	return m.Route.Position(t - m.Depart)
}

// MaxSpeedMPS implements SpeedBounded: the vehicle traverses its route at
// constant speed (and sits still before departure).
func (m *RouteMover) MaxSpeedMPS() float64 { return m.Route.SpeedMPS }

// --- Paper environments -------------------------------------------------

// VanLAN describes the Redmond campus testbed: eleven basestations across
// five buildings inside an 828×559 m bounding box (Fig 1), and a shuttle
// route that passes all of them at ≈40 km/h, visiting the region about ten
// times a day.
type VanLAN struct {
	BSes  []Point
	Route *Route
}

// NewVanLAN returns the campus layout. Basestation coordinates are chosen
// to match the paper's Figure 1 qualitatively: clusters on five buildings,
// non-uniform spacing, not all BSes in mutual radio range, all inside the
// 828×559 m box. The shuttle route threads the campus ring road.
func NewVanLAN() *VanLAN {
	// Antennae sit on five buildings, but building corners differ enough
	// that no two basestations cover the same road stretch equally — the
	// regime of the paper's Fig 5b, where the vehicle usually hears one
	// strong basestation and several weak ones.
	bses := []Point{
		// Building A (north-west).
		{100, 430}, {230, 520},
		// Building B (north-east).
		{560, 480}, {700, 420}, {780, 520},
		// Building C (center).
		{360, 330}, {480, 230},
		// Building D (south-west).
		{90, 140}, {250, 40},
		// Building E (south-east).
		{600, 140}, {740, 60},
	}
	// Campus ring road: a loop that passes near each building cluster.
	road := []Point{
		{60, 420}, {200, 540}, {520, 520}, {740, 460},
		{760, 240}, {690, 40}, {430, 20}, {330, 180},
		{200, 30}, {60, 90}, {30, 260},
	}
	return &VanLAN{
		BSes:  bses,
		Route: NewRoute(road, KmhToMps(40), true),
	}
}

// Bounds returns the bounding box (width, height) of the deployment area.
func (v *VanLAN) Bounds() (w, h float64) { return 828, 559 }

// DieselNet describes the Amherst town environment: buses driving a
// longer downtown loop past curbside basestations. Channel 1 has 10
// basestations visible in the town core, channel 6 has 14 (§2.2); about
// half belong to the town mesh (regularly spaced), the rest to shops
// (clustered irregularly).
type DieselNet struct {
	BSes  []Point
	Route *Route
}

// NewDieselNet returns the town layout for channel 1 or 6.
// It panics for any other channel.
func NewDieselNet(channel int) *DieselNet {
	var n int
	switch channel {
	case 1:
		n = 10
	case 6:
		n = 14
	default:
		panic(fmt.Sprintf("mobility: DieselNet channel %d not profiled (use 1 or 6)", channel))
	}
	// The bus loop crosses the town core (x ≈ 500–1400, where all the
	// profiled BSes sit, §2.2: "we limit our analysis to BSes in the core
	// of the town") and continues through uncovered outskirts — matching
	// the paper's Fig 5, where a large fraction of seconds hear no BS at
	// all while covered stretches usually hear several.
	road := []Point{
		{0, 200}, {500, 210}, {900, 195}, {1400, 205},
		{1900, 195}, {2200, 260}, {1400, 290}, {950, 285},
		{500, 280}, {150, 300},
	}
	// Mesh BSes: regular spacing along the core of main street. Shop
	// BSes: clusters downtown. Offsets keep them 15–40 m off the roadway.
	var bses []Point
	mesh := n / 2
	for i := 0; i < mesh; i++ {
		x := 550 + float64(i)*850/float64(mesh)
		bses = append(bses, Point{x, 170})
	}
	shopAnchors := []Point{{700, 240}, {850, 250}, {950, 235}, {1100, 245},
		{820, 310}, {1240, 310}, {1000, 160}}
	for i := 0; i < n-mesh; i++ {
		a := shopAnchors[i%len(shopAnchors)]
		bses = append(bses, a.Add(float64(i)*7, float64(i%3)*9))
	}
	return &DieselNet{
		BSes:  bses,
		Route: NewRoute(road, KmhToMps(32), true),
	}
}
