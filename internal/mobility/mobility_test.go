package mobility

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestPointDist(t *testing.T) {
	a := Point{0, 0}
	b := Point{3, 4}
	if d := a.Dist(b); d != 5 {
		t.Errorf("dist = %v, want 5", d)
	}
	if d := a.Dist(a); d != 0 {
		t.Errorf("self dist = %v, want 0", d)
	}
}

func TestPointLerp(t *testing.T) {
	a := Point{0, 0}
	b := Point{10, 20}
	mid := a.Lerp(b, 0.5)
	if mid.X != 5 || mid.Y != 10 {
		t.Errorf("lerp mid = %v", mid)
	}
	if p := a.Lerp(b, 0); p != a {
		t.Errorf("lerp 0 = %v", p)
	}
	if p := a.Lerp(b, 1); p != b {
		t.Errorf("lerp 1 = %v", p)
	}
}

func TestRouteLengthAndLap(t *testing.T) {
	// A 100x100 square loop: length 400.
	r := NewRoute([]Point{{0, 0}, {100, 0}, {100, 100}, {0, 100}}, 10, true)
	if r.Length() != 400 {
		t.Errorf("length = %v, want 400", r.Length())
	}
	if lap := r.LapTime(); lap != 40*time.Second {
		t.Errorf("lap = %v, want 40s", lap)
	}
	// Open route: no closing segment.
	open := NewRoute([]Point{{0, 0}, {100, 0}, {100, 100}, {0, 100}}, 10, false)
	if open.Length() != 300 {
		t.Errorf("open length = %v, want 300", open.Length())
	}
}

func TestRoutePositionAlongSquare(t *testing.T) {
	r := NewRoute([]Point{{0, 0}, {100, 0}, {100, 100}, {0, 100}}, 10, true)
	cases := []struct {
		at   time.Duration
		want Point
	}{
		{0, Point{0, 0}},
		{5 * time.Second, Point{50, 0}},
		{10 * time.Second, Point{100, 0}},
		{15 * time.Second, Point{100, 50}},
		{40 * time.Second, Point{0, 0}},  // full lap wraps
		{45 * time.Second, Point{50, 0}}, // second lap
	}
	for _, c := range cases {
		got := r.Position(c.at)
		if math.Abs(got.X-c.want.X) > 1e-9 || math.Abs(got.Y-c.want.Y) > 1e-9 {
			t.Errorf("Position(%v) = %v, want %v", c.at, got, c.want)
		}
	}
}

func TestRouteOpenClamps(t *testing.T) {
	r := NewRoute([]Point{{0, 0}, {100, 0}}, 10, false)
	if p := r.Position(20 * time.Second); p != (Point{100, 0}) {
		t.Errorf("open route overran end: %v", p)
	}
	if p := r.PositionAtDistance(-5); p != (Point{0, 0}) {
		t.Errorf("negative distance: %v", p)
	}
}

func TestRoutePanics(t *testing.T) {
	cases := []func(){
		func() { NewRoute([]Point{{0, 0}}, 10, false) },
		func() { NewRoute([]Point{{0, 0}, {1, 1}}, 0, false) },
		func() { NewRoute([]Point{{0, 0}, {0, 0}}, 5, false) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}

// Property: position is always on or between waypoints (inside the
// bounding box of the waypoints) for any time.
func TestRoutePositionInBoundsProperty(t *testing.T) {
	r := NewRoute([]Point{{0, 0}, {100, 0}, {100, 100}, {0, 100}}, 7, true)
	f := func(secs uint16) bool {
		p := r.Position(time.Duration(secs) * time.Second / 8)
		return p.X >= -1e-9 && p.X <= 100+1e-9 && p.Y >= -1e-9 && p.Y <= 100+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: speed is honored — distance between close samples ≈ v·dt.
func TestRouteSpeedProperty(t *testing.T) {
	r := NewRoute([]Point{{0, 0}, {500, 0}, {500, 500}}, 12, true)
	dt := 100 * time.Millisecond
	for at := time.Duration(0); at < 2*r.LapTime(); at += time.Second {
		a := r.Position(at)
		b := r.Position(at + dt)
		d := a.Dist(b)
		// At waypoint corners the chord is shorter than the path, so only
		// check the upper bound strictly and allow corner undershoot.
		if d > 12*dt.Seconds()+1e-6 {
			t.Fatalf("moved %vm in %v at t=%v (too fast)", d, dt, at)
		}
	}
}

func TestKmhToMps(t *testing.T) {
	if v := KmhToMps(36); math.Abs(v-10) > 1e-12 {
		t.Errorf("36 km/h = %v m/s, want 10", v)
	}
}

func TestFixedMover(t *testing.T) {
	f := Fixed{10, 20}
	if f.Position(0) != (Point{10, 20}) || f.Position(time.Hour) != (Point{10, 20}) {
		t.Error("fixed mover moved")
	}
}

func TestRouteMoverDeparture(t *testing.T) {
	r := NewRoute([]Point{{0, 0}, {100, 0}}, 10, false)
	m := &RouteMover{Route: r, Depart: 5 * time.Second}
	if p := m.Position(2 * time.Second); p != (Point{0, 0}) {
		t.Errorf("before departure at %v", p)
	}
	if p := m.Position(6 * time.Second); p != (Point{10, 0}) {
		t.Errorf("1s after departure at %v, want (10,0)", p)
	}
}

func TestVanLANLayout(t *testing.T) {
	v := NewVanLAN()
	if len(v.BSes) != 11 {
		t.Fatalf("VanLAN has %d BSes, want 11", len(v.BSes))
	}
	w, h := v.Bounds()
	for i, bs := range v.BSes {
		if bs.X < 0 || bs.X > w || bs.Y < 0 || bs.Y > h {
			t.Errorf("BS %d at %v outside %vx%v box", i, bs, w, h)
		}
	}
	// Shuttle speed ≈ 40 km/h.
	if math.Abs(v.Route.SpeedMPS-KmhToMps(40)) > 1e-9 {
		t.Errorf("shuttle speed = %v", v.Route.SpeedMPS)
	}
	// The route must pass reasonably close (≤250 m) to every BS so that
	// every BS is usable, as in the paper's deployment.
	for i, bs := range v.BSes {
		min := math.Inf(1)
		for d := 0.0; d < v.Route.Length(); d += 5 {
			if dd := v.Route.PositionAtDistance(d).Dist(bs); dd < min {
				min = dd
			}
		}
		if min > 250 {
			t.Errorf("BS %d never within 250m of route (min %v)", i, min)
		}
	}
	// Not all BS pairs should be within a typical 250m radio range —
	// the paper notes not all pairs hear each other.
	far := 0
	for i := range v.BSes {
		for j := i + 1; j < len(v.BSes); j++ {
			if v.BSes[i].Dist(v.BSes[j]) > 250 {
				far++
			}
		}
	}
	if far == 0 {
		t.Error("all VanLAN BS pairs within radio range; expected some beyond")
	}
}

func TestDieselNetLayouts(t *testing.T) {
	ch1 := NewDieselNet(1)
	ch6 := NewDieselNet(6)
	if len(ch1.BSes) != 10 {
		t.Errorf("channel 1 has %d BSes, want 10", len(ch1.BSes))
	}
	if len(ch6.BSes) != 14 {
		t.Errorf("channel 6 has %d BSes, want 14", len(ch6.BSes))
	}
	defer func() {
		if recover() == nil {
			t.Error("NewDieselNet(3) did not panic")
		}
	}()
	NewDieselNet(3)
}

// TestSpeedBounds pins the SpeedBounded contract the radio layer's
// spatial index relies on: fixed basestations advertise zero (indexed
// once, never revalidated) and route movers advertise their constant
// route speed — a true upper bound, since the vehicle parks before
// departure.
// Compile-time contract: both concrete movers advertise speed bounds.
var (
	_ SpeedBounded = Fixed{}
	_ SpeedBounded = (*RouteMover)(nil)
)

func TestSpeedBounds(t *testing.T) {
	if got := (Fixed{X: 3}).MaxSpeedMPS(); got != 0 {
		t.Errorf("Fixed speed bound = %v, want 0", got)
	}
	r := NewRoute([]Point{{0, 0}, {100, 0}}, 12.5, true)
	m := &RouteMover{Route: r, Depart: time.Minute}
	if got := m.MaxSpeedMPS(); got != 12.5 {
		t.Errorf("RouteMover speed bound = %v, want 12.5", got)
	}
	// The bound must hold across the trajectory, departure included.
	prev := m.Position(0)
	for at := time.Second; at <= 3*time.Minute; at += time.Second {
		cur := m.Position(at)
		if d := cur.Dist(prev); d > m.MaxSpeedMPS()+1e-9 {
			t.Fatalf("mover moved %v m in 1 s, bound is %v", d, m.MaxSpeedMPS())
		}
		prev = cur
	}
}
