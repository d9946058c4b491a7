package mobility

import (
	"testing"

	"github.com/vanlan/vifi/internal/sim"
)

func inBounds(t *testing.T, r *Route, w, h float64) {
	t.Helper()
	for i, p := range r.Waypoints {
		if p.X < 0 || p.X > w || p.Y < 0 || p.Y > h {
			t.Errorf("waypoint %d = %v outside %vx%v", i, p, w, h)
		}
	}
}

func TestRandomLoopDeterministicAndBounded(t *testing.T) {
	mk := func() *Route {
		k := sim.NewKernel(5)
		return RandomLoop(k.RNG("route", "0"), 2000, 1200, 8, KmhToMps(40))
	}
	a, b := mk(), mk()
	if len(a.Waypoints) != 8 {
		t.Fatalf("waypoints = %d, want 8", len(a.Waypoints))
	}
	for i := range a.Waypoints {
		if a.Waypoints[i] != b.Waypoints[i] {
			t.Fatalf("equal seeds generated different routes at waypoint %d", i)
		}
	}
	inBounds(t, a, 2000, 1200)
	if a.Length() <= 0 || !a.Loop {
		t.Error("route must be a positive-length loop")
	}
	// A different stream yields a different loop.
	k := sim.NewKernel(5)
	c := RandomLoop(k.RNG("route", "1"), 2000, 1200, 8, KmhToMps(40))
	same := true
	for i := range a.Waypoints {
		if a.Waypoints[i] != c.Waypoints[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("distinct RNG streams generated identical routes")
	}
}

func TestStripRouteDirections(t *testing.T) {
	fwd := StripRoute(6000, 400, KmhToMps(90), false)
	rev := StripRoute(6000, 400, KmhToMps(90), true)
	inBounds(t, fwd, 6000, 400)
	if fwd.Length() != rev.Length() {
		t.Error("reversed strip changed length")
	}
	if fwd.Waypoints[0] == rev.Waypoints[0] {
		t.Error("reverse direction should start on the other lane")
	}
}

func TestGridTourFollowsStreets(t *testing.T) {
	k := sim.NewKernel(9)
	r := GridTour(k.RNG("tour"), 2400, 1500, 9, 6, 10, KmhToMps(40))
	inBounds(t, r, 2400, 1500)
	n := len(r.Waypoints)
	for i := 0; i < n; i++ {
		a, b := r.Waypoints[i], r.Waypoints[(i+1)%n]
		if a.X != b.X && a.Y != b.Y {
			t.Errorf("segment %d (%v→%v) is not axis-aligned", i, a, b)
		}
		if a == b {
			t.Errorf("segment %d has zero length", i)
		}
	}
}
