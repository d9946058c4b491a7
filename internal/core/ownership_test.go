package core

import (
	"testing"
	"time"
	"unsafe"

	"github.com/vanlan/vifi/internal/frame"
	"github.com/vanlan/vifi/internal/mobility"
	"github.com/vanlan/vifi/internal/sim"
)

// TestPooledPayloadOwnership audits the two places that keep a packet past
// its upcall on pooled buffers — the auxiliary's pending list and the
// anchor's salvage cache — together with the senders' in-flight records.
// A vehicle drives past a row of basestations with traffic both ways, so
// every release point runs: relay decisions, ack suppressions, salvage
// hand-overs and TTL trims. Afterwards every payload still owned must be
// its own buffer, and none may be in the channel's pool: draining the
// pool's classes must turn up neither an owned buffer (a Put that kept
// its entry) nor one buffer twice (a double Put). A record is in its
// table only while its packet is live, so every outPkt in outstanding and
// every downPkt in a salvage cache holds a payload, and no downPkt has
// expired for longer than the window sweep's period. Once
// traffic stops and the cache TTL has passed, every basestation the
// vehicle left holds an empty salvage cache with no backing array.
func TestPooledPayloadOwnership(t *testing.T) {
	k := sim.NewKernel(11)
	var counts [NumEventKinds]int
	const end = 55 * time.Second
	cell := driveBy(k, func(e Event) { counts[e.Kind]++ }, end)
	veh := cell.Vehicle.Addr()
	k.RunUntil(end + 13*time.Millisecond) // stop mid-traffic: entries are in flight

	for _, ev := range []struct {
		kind EventKind
		what string
	}{{EvAuxRelayed, "relays"}, {EvAuxSuppressed, "suppressions"}, {EvSalvageReq, "salvage requests"}} {
		if counts[ev.kind] == 0 {
			t.Errorf("no %s: the run does not exercise that release point", ev.what)
		}
	}
	trimmed := false
	for _, n := range cell.BSes {
		if vs := n.vehs[veh]; vs != nil && len(vs.salvage) < int(n.nextSeq) {
			trimmed = true
		}
	}
	if !trimmed {
		t.Error("no salvage cache dropped an expired entry")
	}

	for _, n := range append([]*Node{cell.Vehicle}, cell.BSes...) {
		for _, p := range n.outstanding {
			if p.payload == nil {
				t.Errorf("node %d: packet %d is in outstanding without a payload", n.addr, p.seq)
			}
		}
		for _, vs := range n.vehs {
			for _, d := range vs.salvage {
				if d.payload == nil {
					t.Errorf("node %d: salvage entry %d is in the cache without a payload", n.addr, d.seq)
				}
				if age := k.Now() - d.fromNetAt; age > salvageCacheTTL+probWindow {
					t.Errorf("node %d: salvage entry %d is %v old, past the TTL and a window sweep", n.addr, d.seq, age)
				}
			}
		}
	}

	owned := map[*byte]string{}
	classes := map[int]bool{}
	ownedPayloads(append([]*Node{cell.Vehicle}, cell.BSes...), func(b []byte, what string) {
		p := unsafe.SliceData(b)
		if prev, dup := owned[p]; dup {
			t.Errorf("%s and %s share one buffer", prev, what)
		}
		owned[p] = what
		classes[cap(b)] = true
	})
	if len(owned) == 0 {
		t.Fatal("no payload is owned at the end of the run")
	}
	t.Logf("%d owned payloads in %d size classes; %d relays, %d suppressions, %d salvage requests",
		len(owned), len(classes), counts[EvAuxRelayed], counts[EvAuxSuppressed], counts[EvSalvageReq])

	pool := cell.Channel.Buffers()
	for c := range classes {
		got := map[*byte]bool{}
		for range 300 {
			p := unsafe.SliceData(pool.Get(c))
			if what, ok := owned[p]; ok {
				t.Fatalf("the pool hands out a buffer still owned by %s", what)
			}
			if got[p] {
				t.Fatalf("the pool hands out one %d-byte buffer twice", c)
			}
			got[p] = true
		}
	}

	// Traffic has stopped: the caches the vehicle left empty out.
	k.RunUntil(k.Now() + salvageCacheTTL + 2*probWindow)
	for _, n := range cell.BSes {
		if vs := n.vehs[veh]; vs != nil && n.addr != cell.Vehicle.Anchor() && vs.salvage != nil {
			t.Errorf("basestation %d: the vehicle left, yet its salvage cache holds %d entries in a %d-slot array",
				n.addr, len(vs.salvage), cap(vs.salvage))
		}
	}
}

// driveBy builds a vehicle driving past a row of five basestations at
// 36 km/h, with a 200-byte upstream and a 300-byte downstream packet every
// 40 ms from 1 s until end. At 25 downstream packets a second a salvage
// cache holds at most a few hundred entries, far below salvageCacheCap,
// so every entry a trim drops has expired.
func driveBy(k *sim.Kernel, events EventFunc, end time.Duration) *Cell {
	opts := DefaultCellOptions()
	opts.Events = events
	bs := []mobility.Mover{
		mobility.Fixed{X: 0}, mobility.Fixed{X: 150, Y: 20}, mobility.Fixed{X: 300},
		mobility.Fixed{X: 450, Y: 20}, mobility.Fixed{X: 600},
	}
	route := mobility.NewRoute([]mobility.Point{{X: -50, Y: 10}, {X: 650, Y: 10}}, mobility.KmhToMps(36), false)
	cell := NewCell(k, opts, bs, &mobility.RouteMover{Route: route})
	veh := cell.Vehicle.Addr()
	up, down := make([]byte, 200), make([]byte, 300)
	k.Every(time.Second, 40*time.Millisecond, int((end-time.Second)/(40*time.Millisecond)), func(int) {
		cell.Vehicle.SendData(up)
		cell.Gateway.Send(veh, down)
	})
	return cell
}

// TestSettledPacketsLeaveTheirTables: a record is in a protocol table only
// while its packet is live. Mid-traffic, no anchor's salvage cache holds a
// packet whose ack it has received. Once traffic stops and every sender
// has had (MaxRetx+1)·retxMax to settle its last packet and every
// auxiliary pendTTL to decide its last overheard one, every node's
// outstanding and pending are empty.
//
// The dedup tables keep a packet for a horizon past its last use. Each
// node receives at most driveBy's 25 packets a second, so during the drive
// no node's acked table holds more than the packets sent in a horizon, a
// window sweep and a sender's retry span, however long it has been
// driving (at a fixed 2 048-entry cap it grows with the drive). The
// gateway sweeps once a horizon, so whenever it delivers a packet it holds
// none last seen two horizons ago. A horizon and a window sweep after
// every packet settled, every acked table is empty.
func TestSettledPacketsLeaveTheirTables(t *testing.T) {
	k := sim.NewKernel(13)
	var relayed [2]int
	ackedAt := map[frame.PacketID]bool{} // downstream packets whose source got the ack
	const end = 30 * time.Second
	cell := driveBy(k, func(e Event) {
		switch e.Kind {
		case EvAuxRelayed:
			relayed[e.Dir]++
		case EvAckRecv:
			if e.Dir == Down {
				ackedAt[e.ID] = true
			}
		}
	}, end)
	nodes := append([]*Node{cell.Vehicle}, cell.BSes...)
	horizon := DefaultConfig().dedupHorizon()
	gw, upDelivered := cell.Gateway, 0
	gw.SetVehicleDeliver(cell.Vehicle.Addr(), func(id frame.PacketID, _ []byte, _ uint16) {
		upDelivered++
		for old, seen := range gw.dedup {
			if age := k.Now() - seen; age > 2*horizon {
				t.Fatalf("at %v the gateway still holds packet %v, last seen %v ago", k.Now(), old, age)
			}
		}
	})

	// A packet is last used at most (MaxRetx+1)·retxMax + pendTTL after
	// it is sent, and its entry goes at the first sweep a horizon later.
	retrying := time.Duration(DefaultConfig().MaxRetx+1)*retxMax + pendTTL
	most := int(25 * (horizon + probWindow + retrying).Seconds())
	biggest := 0
	for at := 2 * time.Second; at < end; at += 10 * time.Millisecond {
		k.RunUntil(at)
		for _, n := range nodes {
			if len(n.acked) > most {
				t.Fatalf("at %v node %d holds %d acked packets, more than 25/s × (horizon %v + probWindow + %v)",
					at, n.addr, len(n.acked), horizon, retrying)
			}
			biggest = max(biggest, len(n.acked))
		}
	}
	t.Logf("at most %d acked entries on a node (bound %d); %d upstream deliveries", biggest, most, upDelivered)

	k.RunUntil(end - 7*time.Millisecond)
	if relayed[Up] == 0 || relayed[Down] == 0 {
		t.Fatalf("relays up %d, down %d: the run must relay both ways", relayed[Up], relayed[Down])
	}
	cached := 0
	for _, n := range cell.BSes {
		for _, vs := range n.vehs {
			for _, d := range vs.salvage {
				cached++
				if ackedAt[frame.PacketID{Src: n.addr, Seq: d.seq}] {
					t.Errorf("basestation %d: salvage entry %d stays cached after its ack", n.addr, d.seq)
				}
			}
		}
	}
	if cached == 0 || len(ackedAt) == 0 {
		t.Fatalf("%d salvage entries, %d downstream acks: the run exercises neither", cached, len(ackedAt))
	}

	settled := end + time.Duration(DefaultConfig().MaxRetx+1)*retxMax + pendTTL
	k.RunUntil(settled)
	for _, n := range nodes {
		if len(n.outstanding) != 0 || len(n.pending) != 0 {
			t.Errorf("node %d: %d records in outstanding and %d in pending after every packet settled",
				n.addr, len(n.outstanding), len(n.pending))
		}
	}

	k.RunUntil(settled + horizon + probWindow)
	for _, n := range nodes {
		if len(n.acked) != 0 {
			t.Errorf("node %d: %d acked packets remembered a horizon and a window sweep after every packet settled",
				n.addr, len(n.acked))
		}
	}
}

// ownedPayloads calls own with every pooled payload the nodes hold past a
// call: the auxiliaries' pending entries, the anchors' salvage caches and
// the senders' in-flight records.
func ownedPayloads(nodes []*Node, own func(b []byte, what string)) {
	for _, n := range nodes {
		for _, e := range n.pending {
			if cap(e.pkt.payload) > 0 {
				own(e.pkt.payload, "a pending entry")
			}
		}
		for _, vs := range n.vehs {
			for _, d := range vs.salvage {
				if cap(d.payload) > 0 {
					own(d.payload, "a salvage entry")
				}
			}
		}
		for _, p := range n.outstanding {
			if cap(p.payload) > 0 {
				own(p.payload, "an outstanding packet")
			}
		}
	}
}

// TestOwnedBuffersFollowTraffic: the pooled buffers a deployment owns
// follow its traffic, not its age. Two vehicles drive down a long row of
// basestations with steady traffic both ways, meeting new basestations
// all along: what is owned at 120 s is what is owned at 60 s, give or
// take the packets in flight — a cache left behind, or a settled packet
// still holding its payload, would make it grow with the distance driven.
func TestOwnedBuffersFollowTraffic(t *testing.T) {
	k := sim.NewKernel(12)
	var bs []mobility.Mover
	for i := range 18 {
		bs = append(bs, mobility.Fixed{X: float64(i) * 150, Y: float64(i%2) * 20})
	}
	var vehs []mobility.Mover
	for _, start := range []float64{-50, 100} {
		route := mobility.NewRoute([]mobility.Point{{X: start, Y: 10}, {X: 2700, Y: 10}}, mobility.KmhToMps(36), false)
		vehs = append(vehs, &mobility.RouteMover{Route: route})
	}
	cell := NewFleetCell(k, DefaultCellOptions(), bs, vehs, Placement{})
	nodes := append(append([]*Node{}, cell.Vehicles...), cell.BSes...)
	up, down := make([]byte, 200), make([]byte, 300)
	k.Every(time.Second, 40*time.Millisecond, int(119*time.Second/(40*time.Millisecond)), func(int) {
		for _, v := range cell.Vehicles {
			v.SendData(up)
			cell.Gateway.Send(v.Addr(), down)
		}
	})
	owned := func(at time.Duration) (n int) {
		k.RunUntil(at)
		ownedPayloads(nodes, func([]byte, string) { n++ })
		return n
	}
	at60, at120 := owned(60*time.Second), owned(120*time.Second)
	t.Logf("owned pooled payloads: %d at 60 s, %d at 120 s", at60, at120)
	if at60 == 0 {
		t.Fatal("nothing owned at 60 s: the run has no traffic in flight")
	}
	if slack := at60/2 + 32; at120 > at60+slack {
		t.Errorf("owned pooled payloads grew from %d at 60 s to %d at 120 s (slack %d): buffers outlive their packets",
			at60, at120, slack)
	}
}
