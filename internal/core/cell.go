package core

import (
	"fmt"

	"github.com/vanlan/vifi/internal/backplane"
	"github.com/vanlan/vifi/internal/mac"
	"github.com/vanlan/vifi/internal/mobility"
	"github.com/vanlan/vifi/internal/radio"
	"github.com/vanlan/vifi/internal/sim"
)

// CellOptions parameterizes a full ViFi deployment.
type CellOptions struct {
	Protocol  Config
	Radio     radio.Params
	Backplane backplane.Config
	// LinkFactory overrides the channel's default independent fading
	// links; trace-driven experiments install schedule-driven links here.
	LinkFactory radio.LinkFactory
	// Events receives protocol probe events (may be nil).
	Events EventFunc
}

// DefaultCellOptions returns a deployment with the paper's settings.
func DefaultCellOptions() CellOptions {
	return CellOptions{
		Protocol:  DefaultConfig(),
		Radio:     radio.DefaultParams(),
		Backplane: backplane.DefaultConfig(),
	}
}

// Cell is one deployed ViFi cell: a shared radio channel, basestations on
// a backplane with an Internet gateway, and one or more vehicles.
type Cell struct {
	K         *sim.Kernel
	Channel   *radio.Channel
	Backplane *backplane.Net
	Gateway   *Gateway
	BSes      []*Node
	// Vehicle is the first (often only) locally owned vehicle; Vehicles
	// carries the full fleet.
	Vehicle  *Node
	Vehicles []*Node

	// Gateways lists every gateway, one per district (nil for districts
	// owned by another shard); Gateway is the first local one. VehDistrict
	// maps fleet slots to their district (nil when there is only one).
	Gateways    []*Gateway
	VehDistrict []int

	// Ghost bookkeeping (nil while every district is local — see
	// Placement): BSLocal/VehLocal mark which global indexes own a full
	// protocol stack on this shard — the rest are position-only ghosts,
	// and their BSes/Vehicles entries are nil. BSRadioIDs/VehRadioIDs
	// carry the channel NodeID of every node, ghost or not, so fault
	// injection can address radios it does not own a Node for.
	BSLocal     []bool
	VehLocal    []bool
	BSRadioIDs  []radio.NodeID
	VehRadioIDs []radio.NodeID
}

// GatewayFor returns the gateway serving fleet slot i.
func (c *Cell) GatewayFor(i int) *Gateway {
	if c.VehDistrict == nil {
		return c.Gateway
	}
	return c.Gateways[c.VehDistrict[i]]
}

// LocalBS reports whether basestation i has a full protocol stack on
// this cell (always true outside shard cells).
func (c *Cell) LocalBS(i int) bool { return c.BSLocal == nil || c.BSLocal[i] }

// LocalVehicle reports whether fleet slot i has a full protocol stack on
// this cell (always true outside shard cells).
func (c *Cell) LocalVehicle(i int) bool { return c.VehLocal == nil || c.VehLocal[i] }

// StartRadioShards enables halo-band stripe-sharded delivery on the
// cell's channel — the single-kernel sharding mode for un-districted
// cities whose stripes share radio edges, complementing the multi-kernel
// district partition (Placement). Returns the effective lane count (1
// when the channel keeps the serial path). The caller must
// StopRadioShards before dropping the cell.
func (c *Cell) StartRadioShards(lanes int) int { return c.Channel.StartShards(lanes) }

// StopRadioShards tears halo-band sharding down (no-op when inactive).
func (c *Cell) StopRadioShards() { c.Channel.StopShards() }

// RadioLaneCounts reports how many basestations and fleet slots each
// delivery lane currently owns (by live stripe ownership of their
// radios). Zero-length results on an unsharded channel.
func (c *Cell) RadioLaneCounts() (bs, veh []int) {
	lanes := c.Channel.ShardLanes()
	if lanes == 0 {
		return nil, nil
	}
	bs, veh = make([]int, lanes), make([]int, lanes)
	for _, id := range c.BSRadioIDs {
		bs[c.Channel.LaneOf(id)]++
	}
	for _, id := range c.VehRadioIDs {
		veh[c.Channel.LaneOf(id)]++
	}
	return bs, veh
}

// Placement says where the nodes of a deployment live: which district
// (gateway) each one is wired to, and which districts run full protocol
// stacks on this cell. It is the one constructor's only degree of freedom:
// the zero value is one district with everything local (the plain fleet
// cell), districts without a DistrictShard map are the serial districted
// cell, and a map naming foreign shards makes this cell one of the
// independent district kernels of a sharded run.
type Placement struct {
	Districts   int   // district count; 0 reads as 1
	BSDistrict  []int // district per basestation; nil = all in district 0
	VehDistrict []int // district per fleet slot; nil = all in district 0
	// DistrictShard maps each district to its owning shard and Shard names
	// this cell's; nil = every district is local.
	DistrictShard []int
	Shard         int
}

// district reads a node's district from one of the per-node maps.
func district(of []int, i int) int {
	if of == nil {
		return 0
	}
	return of[i]
}

// local reports whether district d runs full protocol stacks on this cell.
func (p Placement) local(d int) bool {
	return p.DistrictShard == nil || p.DistrictShard[d] == p.Shard
}

// newCell is the one cell constructor. Attachment order — and therefore
// every channel NodeID and RNG stream label — is the same under any
// placement: one gateway per district (addresses GatewayAddr+d), then
// basestations in global index order (addresses 0..len(bsMovers)-1), then
// vehicles in global index order, each wired to its own district's
// gateway. The channel is sized for the total up front, so link rows
// never re-grow and city-scale fleets start on the spatially indexed path
// from the first attach.
//
// A node whose district belongs to another shard attaches as a
// position-only ghost — same name, same mover, nil receiver — so channel
// NodeIDs, stream labels and spatial-grid state are byte-identical to the
// all-local cell at any shard count. Ghosts never transmit, never receive
// and hold no protocol state; with districts separated by more than the
// radio conflict reach they exchange no radio interaction with local
// nodes either, which is what makes the partition exact. Foreign
// backplane addresses (gateways and basestation ports) are registered as
// foreign on this cell's Net, so a send that would leave the district —
// none can: a basestation talks to its own gateway and to basestations
// its vehicle hears — panics naming both ends instead of being dropped
// as unknown and letting the run diverge from serial.
func newCell(k *sim.Kernel, opts CellOptions, bsMovers, vehMovers []mobility.Mover, vehName func(int) string, p Placement) *Cell {
	if len(bsMovers) == 0 {
		panic("core: a cell needs at least one basestation")
	}
	if len(vehMovers) == 0 {
		panic("core: a fleet cell needs at least one vehicle")
	}
	if n := len(bsMovers) + len(vehMovers); n > int(GatewayAddr) {
		panic(fmt.Sprintf("core: %d radios overflow the 16-bit address space below the gateway (%d)", n, GatewayAddr))
	}
	ch := radio.NewChannelSized(k, opts.Radio, opts.LinkFactory, len(bsMovers)+len(vehMovers))
	bp := backplane.New(k, opts.Backplane)
	c := &Cell{K: k, Channel: ch, Backplane: bp}
	macCfg := mac.Config{BeaconInterval: opts.Protocol.BeaconInterval}
	if p.VehDistrict != nil {
		c.VehDistrict = append([]int(nil), p.VehDistrict...)
	}
	for d := 0; d < max(p.Districts, 1); d++ {
		var gw *Gateway
		if p.local(d) {
			gw = NewGatewayAt(k, bp, GatewayAddr+uint16(d), opts.Events)
			if c.Gateway == nil {
				c.Gateway = gw
			}
		} else {
			bp.AttachForeign(GatewayAddr + uint16(d))
			if c.BSLocal == nil {
				c.BSLocal = make([]bool, len(bsMovers))
				c.VehLocal = make([]bool, len(vehMovers))
			}
		}
		c.Gateways = append(c.Gateways, gw)
	}
	// attach wires one radio: a full stack (nodeBP is nil for vehicles,
	// which have no wired port) or, off-shard, a ghost.
	attach := func(name string, mv mobility.Mover, d int, nodeBP *backplane.Net) (*Node, radio.NodeID) {
		if !p.local(d) {
			id := ch.Attach(name, mv, nil)
			if nodeBP != nil {
				bp.AttachForeign(uint16(id))
			}
			return nil, id
		}
		m := mac.NewWithConfig(k, ch, name, mv, macCfg)
		return newNode(k, opts.Protocol, m, nodeBP, c.Gateways[d].Addr(), nodeBP == nil, opts.Events), m.ID()
	}
	for i, mv := range bsMovers {
		n, id := attach(fmt.Sprintf("bs%d", i), mv, district(p.BSDistrict, i), bp)
		c.BSes, c.BSRadioIDs = append(c.BSes, n), append(c.BSRadioIDs, id)
		if c.BSLocal != nil {
			c.BSLocal[i] = n != nil
		}
	}
	for i, mv := range vehMovers {
		n, id := attach(vehName(i), mv, district(p.VehDistrict, i), nil)
		c.Vehicles, c.VehRadioIDs = append(c.Vehicles, n), append(c.VehRadioIDs, id)
		if c.VehLocal != nil {
			c.VehLocal[i] = n != nil
		}
		if c.Vehicle == nil {
			c.Vehicle = n
		}
	}
	return c
}

// NewCell builds and starts a single-vehicle deployment. Basestations are
// attached first (addresses 0..len(bsMovers)-1), the vehicle last. All
// nodes begin beaconing immediately; anchor selection settles after
// roughly one probability window. The vehicle keeps its historical stream
// labels ("mac","veh"), so fleet support cannot disturb existing seeded
// experiments.
func NewCell(k *sim.Kernel, opts CellOptions, bsMovers []mobility.Mover, vehMover mobility.Mover) *Cell {
	return newCell(k, opts, bsMovers, []mobility.Mover{vehMover}, func(int) string { return "veh" }, Placement{})
}

// NewFleetCell builds a deployment with a fleet of vehicles ("veh0",
// "veh1", …) sharing one channel, placed by p (see newCell; Placement{}
// is the plain one-gateway fleet). Every protocol structure is
// per-vehicle already (basestations track designations and salvage state
// per vehicle address, the gateway maps each vehicle to its anchor), so
// the fleet contends for the medium like any dense 802.11 deployment while
// each vehicle runs its own anchor/auxiliary protocol.
func NewFleetCell(k *sim.Kernel, opts CellOptions, bsMovers, vehMovers []mobility.Mover, p Placement) *Cell {
	return newCell(k, opts, bsMovers, vehMovers, func(i int) string { return fmt.Sprintf("veh%d", i) }, p)
}

// HookVehicle installs per-vehicle application delivery callbacks for
// fleet slot i: down fires for payloads delivered at the vehicle, up
// fires at the gateway for deduplicated upstream payloads originating at
// this vehicle. Application drivers (internal/workload) use this to
// multiplex one session per vehicle over the shared channel/backplane.
func (c *Cell) HookVehicle(i int, down, up DeliverFunc) {
	v := c.Vehicles[i]
	v.SetDeliver(down)
	c.GatewayFor(i).SetVehicleDeliver(v.Addr(), up)
}

// NewVanLANCell builds a cell over the VanLAN campus: its eleven
// basestations and the shuttle loop.
func NewVanLANCell(k *sim.Kernel, opts CellOptions) *Cell {
	v := mobility.NewVanLAN()
	movers := make([]mobility.Mover, len(v.BSes))
	for i, p := range v.BSes {
		movers[i] = mobility.Fixed(p)
	}
	return NewCell(k, opts, movers, &mobility.RouteMover{Route: v.Route})
}
