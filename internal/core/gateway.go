package core

import (
	"maps"
	"time"

	"github.com/vanlan/vifi/internal/backplane"
	"github.com/vanlan/vifi/internal/frame"
	"github.com/vanlan/vifi/internal/sim"
)

// GatewayAddr is the well-known backplane address of the Internet gateway.
const GatewayAddr uint16 = 0xFF00

// Gateway models the Internet side of the deployment: the wired host that
// exchanges traffic with the vehicle through whichever basestation is
// currently the anchor. Anchors register themselves via TypeRegister
// frames (the reduced Mobile-IP-style indirection the paper defers to
// "existing solutions" for, §4).
type Gateway struct {
	K        *sim.Kernel
	bp       *backplane.Net
	dec      frame.Decoder // receive storage; upcalls borrow from it
	addr     uint16
	anchorOf map[uint16]uint16 // vehicle → current anchor
	// vehDeliver is the upstream dispatch table, dense by vehicle address:
	// one callback per hooked vehicle (SetVehicleDeliver). Lookup is a
	// slice index, so dispatch never allocates.
	vehDeliver []DeliverFunc
	events     EventFunc

	dedup          map[frame.PacketID]time.Duration // upstream packet → last seen
	horizon, swept time.Duration                    // dedupHorizon; the last sweep

	// Send's scratch: the backplane copies what it admits, so one frame
	// and one buffer serve every downstream packet.
	txFrame frame.Frame
	txBuf   []byte

	// Counters.
	SentDown       int
	NoAnchorDrops  int
	DeliveredUp    int
	Registrations  int
	AnchorSwitches int
}

// NewGatewayAt attaches a gateway at an explicit backplane address for
// anchors running cfg. Districted deployments run one gateway per district
// at GatewayAddr+d, so each district's wired side is self-contained and no
// backplane message ever needs to reach another district.
func NewGatewayAt(k *sim.Kernel, bp *backplane.Net, addr uint16, cfg Config, events EventFunc) *Gateway {
	g := &Gateway{
		K:        k,
		bp:       bp,
		addr:     addr,
		anchorOf: map[uint16]uint16{},
		events:   events,
		dedup:    map[frame.PacketID]time.Duration{},
		horizon:  cfg.dedupHorizon(),
	}
	bp.Attach(g.addr, g.handleBackplane)
	return g
}

// Addr returns the gateway's backplane address.
func (g *Gateway) Addr() uint16 { return g.addr }

// SetVehicleDeliver installs the upstream delivery callback for packets
// originating at one vehicle; an unhooked vehicle's payloads are counted
// and dropped. Application drivers (internal/workload) multiplex over the
// shared backplane through this table (Cell.HookVehicle).
func (g *Gateway) SetVehicleDeliver(veh uint16, d DeliverFunc) {
	for len(g.vehDeliver) <= int(veh) {
		g.vehDeliver = append(g.vehDeliver, nil)
	}
	g.vehDeliver[veh] = d
}

// dispatchUp routes one deduplicated upstream payload to the vehicle's
// hook. Hot path: must not allocate.
func (g *Gateway) dispatchUp(id frame.PacketID, payload []byte, veh uint16) {
	if int(veh) < len(g.vehDeliver) {
		if d := g.vehDeliver[veh]; d != nil {
			d(id, payload, veh)
		}
	}
}

// AnchorOf reports the registered anchor for a vehicle (frame.None when
// unknown).
func (g *Gateway) AnchorOf(veh uint16) uint16 {
	if a, ok := g.anchorOf[veh]; ok {
		return a
	}
	return frame.None
}

// Send forwards an Internet-originated payload toward the vehicle via its
// current anchor. It reports false when no anchor is registered (the
// packet is dropped, as it would be in a real deployment without
// connectivity).
func (g *Gateway) Send(veh uint16, payload []byte) bool {
	anchor, ok := g.anchorOf[veh]
	if !ok {
		g.NoAnchorDrops++
		return false
	}
	f := &g.txFrame
	*f = frame.Frame{Type: frame.TypeRelay, Src: g.addr, Dst: anchor,
		Orig: veh, Payload: payload}
	buf, err := f.AppendTo(g.txBuf[:0])
	if err != nil {
		return false
	}
	g.txBuf = buf
	g.SentDown++
	return g.bp.Send(g.addr, anchor, buf)
}

// handleBackplane consumes registrations and upstream forwards.
func (g *Gateway) handleBackplane(from uint16, payload []byte) {
	f, err := g.dec.Decode(payload)
	if err != nil {
		return
	}
	switch f.Type {
	case frame.TypeRegister:
		g.Registrations++
		if prev, ok := g.anchorOf[f.Target]; ok && prev != from {
			g.AnchorSwitches++
		}
		g.anchorOf[f.Target] = from
	case frame.TypeRelay:
		// Upstream application packet forwarded by an anchor. Orig is the
		// vehicle; Seq identifies the packet for deduplication across
		// anchor changes.
		id := frame.PacketID{Src: f.Orig, Seq: f.Seq}
		now := g.K.Now()
		_, dup := g.dedup[id]
		g.dedup[id] = now
		if dup {
			return
		}
		if now-g.swept >= g.horizon {
			g.swept = now
			maps.DeleteFunc(g.dedup, func(_ frame.PacketID, seen time.Duration) bool { return now-seen > g.horizon })
		}
		g.DeliveredUp++
		if g.events != nil {
			g.events(Event{Kind: EvDeliver, Dir: Up, ID: id, Attempt: f.Attempt,
				Node: g.addr, Peer: from, Medium: MediumBackplane, At: g.K.Now()})
		}
		g.dispatchUp(id, f.Payload, f.Orig)
	}
}
