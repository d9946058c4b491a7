package core

import (
	"testing"
	"time"

	"github.com/vanlan/vifi/internal/frame"
	"github.com/vanlan/vifi/internal/mobility"
	"github.com/vanlan/vifi/internal/sim"
)

// fleetTestCell builds a small multi-vehicle deployment: four basestations
// along a road and three vehicles looping past them on offset circuits.
func fleetTestCell(k *sim.Kernel, events EventFunc) *Cell {
	opts := DefaultCellOptions()
	opts.Events = events
	bs := []mobility.Mover{
		mobility.Fixed{X: 0, Y: 0},
		mobility.Fixed{X: 180, Y: 20},
		mobility.Fixed{X: 360, Y: 0},
		mobility.Fixed{X: 540, Y: 20},
	}
	mkRoute := func(off float64) *mobility.Route {
		return mobility.NewRoute([]mobility.Point{
			{X: off, Y: 40}, {X: 540 - off, Y: 40}, {X: 540 - off, Y: 80}, {X: off, Y: 80},
		}, mobility.KmhToMps(36), true)
	}
	vehs := []mobility.Mover{
		&mobility.RouteMover{Route: mkRoute(0)},
		&mobility.RouteMover{Route: mkRoute(30), Depart: 2 * time.Second},
		&mobility.RouteMover{Route: mkRoute(60), Depart: 4 * time.Second},
	}
	return NewFleetCell(k, opts, bs, vehs, Placement{})
}

// TestFleetCellPerVehicleProtocol checks that every vehicle in a fleet
// runs its own full protocol instance over the shared channel: distinct
// addresses, per-vehicle anchors registered at the gateway, and
// application traffic flowing both ways for every vehicle.
func TestFleetCellPerVehicleProtocol(t *testing.T) {
	k := sim.NewKernel(21)
	c := fleetTestCell(k, nil)
	if len(c.Vehicles) != 3 || c.Vehicle != c.Vehicles[0] {
		t.Fatalf("fleet size = %d, want 3 with Vehicle aliasing the first", len(c.Vehicles))
	}
	nb := len(c.BSes)
	for i, v := range c.Vehicles {
		if want := uint16(nb + i); v.Addr() != want {
			t.Errorf("vehicle %d address = %d, want %d", i, v.Addr(), want)
		}
	}

	upFrom := map[uint16]int{}
	downAt := make([]int, len(c.Vehicles))
	for i := range c.Vehicles {
		c.HookVehicle(i, func(id frame.PacketID, p []byte, from uint16) { downAt[i]++ },
			func(id frame.PacketID, p []byte, from uint16) { upFrom[from]++ })
	}

	payload := make([]byte, 200)
	for s := 0; s < 200; s++ {
		at := 5*time.Second + time.Duration(s)*100*time.Millisecond
		k.At(at, func() {
			for _, v := range c.Vehicles {
				v.SendData(payload)
				c.Gateway.Send(v.Addr(), payload)
			}
		})
	}
	k.RunUntil(30 * time.Second)

	for i, v := range c.Vehicles {
		if a := c.Gateway.AnchorOf(v.Addr()); a == frame.None {
			t.Errorf("vehicle %d never registered an anchor", i)
		}
		if v.Anchor() == frame.None {
			t.Errorf("vehicle %d has no anchor after 30s", i)
		}
		if upFrom[v.Addr()] == 0 {
			t.Errorf("gateway received no upstream data from vehicle %d", i)
		}
		if downAt[i] == 0 {
			t.Errorf("vehicle %d received no downstream data", i)
		}
	}
}

// TestFleetCellDeterminism pins seed reproducibility with multiple
// vehicles contending for one channel: two identical runs agree on every
// gateway counter and channel statistic.
func TestFleetCellDeterminism(t *testing.T) {
	run := func() (Gateway, int) {
		k := sim.NewKernel(33)
		c := fleetTestCell(k, nil)
		payload := make([]byte, 300)
		for s := 0; s < 100; s++ {
			k.At(5*time.Second+time.Duration(s)*200*time.Millisecond, func() {
				for _, v := range c.Vehicles {
					v.SendData(payload)
					c.Gateway.Send(v.Addr(), payload)
				}
			})
		}
		k.RunUntil(28 * time.Second)
		return *c.Gateway, c.Channel.Stats().Transmissions
	}
	g1, tx1 := run()
	g2, tx2 := run()
	if g1.DeliveredUp != g2.DeliveredUp || g1.SentDown != g2.SentDown ||
		g1.Registrations != g2.Registrations || g1.AnchorSwitches != g2.AnchorSwitches {
		t.Errorf("gateway counters diverged: %+v vs %+v", g1, g2)
	}
	if tx1 != tx2 {
		t.Errorf("transmissions diverged: %d vs %d", tx1, tx2)
	}
}

// TestCellRejectsAddressOverflow pins the internal invariant behind
// scenario.Spec.Validate's radio bound: node IDs are the uint16 addresses
// below GatewayAddr, so a cell with more radios than that must refuse to
// build rather than alias radios onto gateway addresses.
func TestCellRejectsAddressOverflow(t *testing.T) {
	bs := make([]mobility.Mover, int(GatewayAddr))
	for i := range bs {
		bs[i] = mobility.Fixed{X: float64(i)}
	}
	defer func() {
		if recover() == nil {
			t.Errorf("a cell of %d radios was built", len(bs)+1)
		}
	}()
	NewFleetCell(sim.NewKernel(1), DefaultCellOptions(), bs, []mobility.Mover{mobility.Fixed{}}, Placement{})
}
