package scenario

import (
	"math"
	"reflect"
	"testing"

	"github.com/vanlan/vifi/internal/core"
	"github.com/vanlan/vifi/internal/radio"
	"github.com/vanlan/vifi/internal/sim"
)

// TestDistrictLayoutDeterministic pins districted generation: equal
// (seed, spec) reproduce the identical layout — positions, routes,
// departures and district assignments — which is what lets every shard
// kernel regenerate the same city independently.
func TestDistrictLayoutDeterministic(t *testing.T) {
	spec, err := Parse("metro-districts")
	if err != nil {
		t.Fatal(err)
	}
	a, err := Generate(sim.NewKernel(5), spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(sim.NewKernel(5), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("equal seeds generated different districted layouts")
	}
	if got := a.Districts(); got != spec.Districts {
		t.Fatalf("Districts() = %d, want %d", got, spec.Districts)
	}
}

// TestDistrictSeparation pins the radio-isolation invariant the sharded
// partition rests on: every node — basestation position and every route
// waypoint — stays inside its district's stripe, and adjacent stripes
// are separated by more than the radio conflict reach (reception cutoff
// and carrier-sense range) under the spec's own radio overrides, so
// districts share no radio state at all.
func TestDistrictSeparation(t *testing.T) {
	for _, tc := range []struct {
		spec string
		d50  float64 // the 50 %-reception distance the spec runs at
	}{
		{"metro-districts", radio.DefaultParams().D50},
		{"metro-districts,range=400", 400},
	} {
		spec, err := Parse(tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		lay, err := Generate(sim.NewKernel(3), spec)
		if err != nil {
			t.Fatal(err)
		}
		p := radio.DefaultParams()
		p.D50 = tc.d50
		reach := math.Max(p.CutoffM(), radio.SenseRangeM)
		if lay.MoatM <= reach {
			t.Fatalf("%s: moat %.1f m does not clear the conflict reach %.1f m", tc.spec, lay.MoatM, reach)
		}
		for d := 1; d < lay.Districts(); d++ {
			if gap := lay.DistrictX0[d] - lay.DistrictX1[d-1]; gap < lay.MoatM-1e-9 {
				t.Fatalf("%s: districts %d/%d separated by %.1f m, want ≥ %.1f m", tc.spec, d-1, d, gap, lay.MoatM)
			}
		}
		for i, pt := range lay.BSes {
			d := lay.BSDistrict[i]
			if pt.X < lay.DistrictX0[d]-1e-9 || pt.X > lay.DistrictX1[d]+1e-9 {
				t.Errorf("%s: bs %d at x=%.1f outside district %d span [%.1f, %.1f]",
					tc.spec, i, pt.X, d, lay.DistrictX0[d], lay.DistrictX1[d])
			}
		}
		for i, r := range lay.Routes {
			d := lay.VehDistrict[i]
			for _, wp := range r.Waypoints {
				if wp.X < lay.DistrictX0[d]-1e-9 || wp.X > lay.DistrictX1[d]+1e-9 {
					t.Errorf("%s: vehicle %d waypoint x=%.1f outside district %d span [%.1f, %.1f]",
						tc.spec, i, wp.X, d, lay.DistrictX0[d], lay.DistrictX1[d])
				}
			}
		}
	}
}

// TestDistrictSpecValidation pins the spec-level guards.
func TestDistrictSpecValidation(t *testing.T) {
	for _, bad := range []string{
		"metro-districts,topology=strip", // districts need the grid generator
		"metro-districts,bs=3",           // fewer basestations than districts
		"metro-districts,vehicles=2",     // fewer vehicles than districts
		"metro-districts,districts=-1",   // negative
		"metro-districts,w=3000",         // too narrow for the moats
	} {
		if s, err := Parse(bad); err == nil {
			if err := s.Validate(); err == nil {
				t.Errorf("%q validated", bad)
			}
		}
	}
}

// cellIdentity is everything about a built cell that a placement must
// not move: radio IDs and names in attachment order, protocol addresses
// (-1 marks a ghost slot), gateway addresses per district and per fleet
// slot, which slot Vehicle points at, and whether the ghost bookkeeping
// exists at all.
type cellIdentity struct {
	RadioIDs          []radio.NodeID
	Names             []string
	Addrs, VehGateway []int
	Gateways          []int
	Vehicle           int
	BSLocalNil        bool
	VehLocalNil       bool
}

func identityOf(c *core.Cell) cellIdentity {
	id := cellIdentity{Vehicle: -1, BSLocalNil: c.BSLocal == nil, VehLocalNil: c.VehLocal == nil}
	id.RadioIDs = append(append(id.RadioIDs, c.BSRadioIDs...), c.VehRadioIDs...)
	for _, r := range id.RadioIDs {
		id.Names = append(id.Names, c.Channel.NodeName(r))
	}
	for _, n := range append(append([]*core.Node(nil), c.BSes...), c.Vehicles...) {
		if n == nil {
			id.Addrs = append(id.Addrs, -1)
		} else {
			id.Addrs = append(id.Addrs, int(n.Addr()))
		}
	}
	for _, gw := range c.Gateways {
		if gw == nil {
			id.Gateways = append(id.Gateways, -1)
		} else {
			id.Gateways = append(id.Gateways, int(gw.Addr()))
		}
	}
	for i, v := range c.Vehicles {
		if v != nil && v == c.Vehicle {
			id.Vehicle = i
		}
		if gw := c.GatewayFor(i); gw != nil {
			id.VehGateway = append(id.VehGateway, int(gw.Addr()))
		} else {
			id.VehGateway = append(id.VehGateway, -1)
		}
	}
	return id
}

// TestShardCellMatchesSerialIdentity pins ghost attachment: shard cells
// assign every node — owned or ghost — the same channel NodeID the
// serial districted cell assigns, and per-shard ownership covers each
// node exactly once. The K=1 placements pin the other end of the one
// constructor: however "everything local" is spelled — no placement, a
// one-district placement, or every district mapped to this shard — the
// cell is the same cell, with no ghost bookkeeping.
func TestShardCellMatchesSerialIdentity(t *testing.T) {
	for _, tc := range []struct {
		spec     string
		allLocal []int
	}{
		{"grid-small", []int{0}},
		{"metro-districts,bs=124,vehicles=8", []int{0, 0, 0, 0}},
	} {
		spec, err := Parse(tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		zero, lay, err := BuildCell(sim.NewKernel(9), spec, core.DefaultCellOptions(), nil, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := identityOf(zero)
		if !want.BSLocalNil || !want.VehLocalNil || want.Vehicle != 0 || want.Gateways[0] != int(core.GatewayAddr) {
			t.Fatalf("%s: all-local cell carries ghost state: %+v", tc.spec, want)
		}
		mapped, _, err := BuildCell(sim.NewKernel(9), spec, core.DefaultCellOptions(), tc.allLocal, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := identityOf(mapped); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: districtShard=%v diverges from the zero placement:\n got %+v\nwant %+v", tc.spec, tc.allLocal, got, want)
		}
		if lay.Districts() > 1 {
			continue
		}
		// One district spelled out node by node is still the zero placement.
		bs, vehs := layoutMovers(lay)
		explicit := core.NewFleetCell(sim.NewKernel(9), spec.Apply(core.DefaultCellOptions()), bs, vehs, core.Placement{
			Districts: 1, BSDistrict: make([]int, len(bs)), VehDistrict: make([]int, len(vehs)),
		})
		if got := identityOf(explicit); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: explicit one-district placement diverges:\n got %+v\nwant %+v", tc.spec, got, want)
		}
	}

	spec, err := Parse("metro-districts,bs=124,vehicles=8")
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultCellOptions()
	serial, _, err := BuildCell(sim.NewKernel(9), spec, opts, nil, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	districtShard := []int{0, 0, 1, 1}
	bsOwners := make([]int, len(serial.BSes))
	vehOwners := make([]int, len(serial.Vehicles))
	for shard := 0; shard < 2; shard++ {
		cell, _, err := BuildCell(sim.NewKernel(9), spec, opts, districtShard, shard, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(cell.BSRadioIDs, serial.BSRadioIDs) ||
			!reflect.DeepEqual(cell.VehRadioIDs, serial.VehRadioIDs) {
			t.Fatalf("shard %d radio IDs diverge from serial cell", shard)
		}
		for i, local := range cell.BSLocal {
			if local != (cell.BSes[i] != nil) {
				t.Fatalf("shard %d bs %d: locality flag disagrees with node presence", shard, i)
			}
			if local {
				bsOwners[i]++
			}
		}
		for i, local := range cell.VehLocal {
			if local != (cell.Vehicles[i] != nil) {
				t.Fatalf("shard %d vehicle %d: locality flag disagrees with node presence", shard, i)
			}
			if local {
				vehOwners[i]++
			}
		}
	}
	for i, n := range bsOwners {
		if n != 1 {
			t.Errorf("bs %d owned by %d shards, want exactly 1", i, n)
		}
	}
	for i, n := range vehOwners {
		if n != 1 {
			t.Errorf("vehicle %d owned by %d shards, want exactly 1", i, n)
		}
	}
}
