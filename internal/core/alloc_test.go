package core

import (
	"runtime"
	"slices"
	"testing"
	"time"
	"unsafe"

	"github.com/vanlan/vifi/internal/frame"
	"github.com/vanlan/vifi/internal/mobility"
	"github.com/vanlan/vifi/internal/sim"
)

// TestObserveLocalAllocFree is the hot-path guard for the probability
// table: once a pair's slot exists, folding observations (and reading
// them back) must not allocate.
func TestObserveLocalAllocFree(t *testing.T) {
	pt := NewProbTable(0.5, 3*time.Second)
	for from := uint16(0); from < 12; from++ {
		for to := uint16(0); to < 12; to++ {
			pt.ObserveLocal(from, to, 0.5, time.Second)
		}
	}
	now := 2 * time.Second
	allocs := testing.AllocsPerRun(1000, func() {
		pt.ObserveLocal(3, 7, 0.8, now)
		pt.ObserveGossip(7, 3, 0.6, now)
		if pt.Get(3, 7, now) == 0 {
			t.Fatal("lost observation")
		}
		pt.FreshLocalPeers(7, now)
	})
	if allocs != 0 {
		t.Errorf("warm ProbTable operations allocate %.1f objects, want 0", allocs)
	}
}

// TestProbTableFootprintFollowsPairs pins the storage layout's one
// promise: a table costs what the pairs it holds cost, wherever their
// addresses sit. One observation between two high addresses on a fresh
// table must allocate one bucket array — not row headers or a row sized
// by the address.
func TestProbTableFootprintFollowsPairs(t *testing.T) {
	pt := NewProbTable(0.5, 3*time.Second)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	pt.ObserveGossip(1900, 1901, 0.5, time.Second)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 8<<10 {
		t.Errorf("one observed pair allocated %d bytes, want < 8 KB", got)
	}
	if pt.Get(1900, 1901, time.Second) != 0.5 {
		t.Error("lost observation")
	}
}

// TestRelayDecisionAllocFree guards the auxiliary relay decision (§4.4):
// with warm tables and scratch, assembling the relay context and computing
// the ViFi relay probability must not allocate.
func TestRelayDecisionAllocFree(t *testing.T) {
	k := sim.NewKernel(5)
	opts := DefaultCellOptions()
	movers := []mobility.Mover{
		mobility.Fixed{X: 0}, mobility.Fixed{X: 60}, mobility.Fixed{X: 120},
	}
	cell := NewCell(k, opts, movers, mobility.Fixed{X: 30})
	k.RunUntil(3 * time.Second) // beacons flow; tables and vehicle state warm

	bs := cell.BSes[1]
	veh := cell.Vehicle.Addr()
	vs := bs.ensureVeh(veh)
	vs.lastBeacon = k.Now()
	if !contains(vs.aux, bs.Addr()) {
		vs.aux = append(vs.aux, bs.Addr())
	}
	p := &pendPkt{src: veh, dst: cell.BSes[0].Addr(), fromVehicle: true,
		payload: make([]byte, 64), heardAt: k.Now(), veh: veh}

	// Warm the context scratch.
	if _, ok := bs.buildRelayContext(p); !ok {
		t.Fatal("relay context unexpectedly unavailable")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		ctx, ok := bs.buildRelayContext(p)
		if !ok {
			t.Fatal("relay context lost")
		}
		prob := RelayProb(bs.cfg.Coordinator, ctx)
		bs.rng.Bool(prob)
	})
	if allocs != 0 {
		t.Errorf("relay decision allocates %.1f objects, want 0", allocs)
	}
}

// TestSendPathSteadyStateAllocs exercises the full vehicle send path —
// sequence allocation, pooled payload copy, MAC marshal, broadcast,
// retransmission timer — together with every reception it causes (data,
// acks, the window's beacons, the other basestation's pooled copy as an
// auxiliary) and requires it to allocate nothing per packet.
func TestSendPathSteadyStateAllocs(t *testing.T) {
	k := sim.NewKernel(8)
	cell := NewCell(k, DefaultCellOptions(),
		[]mobility.Mover{mobility.Fixed{X: 0}, mobility.Fixed{X: 50}},
		mobility.Fixed{X: 10})
	k.RunUntil(3 * time.Second)
	if cell.Vehicle.Anchor() == frame.None {
		t.Fatal("vehicle has no anchor after warmup")
	}
	payload := make([]byte, 200)
	// Warm pools: send and settle a few packets.
	for i := 0; i < 32; i++ {
		cell.Vehicle.SendData(payload)
		k.RunUntil(k.Now() + 50*time.Millisecond)
	}
	allocs := testing.AllocsPerRun(200, func() {
		cell.Vehicle.SendData(payload)
		k.RunUntil(k.Now() + 50*time.Millisecond)
	})
	if allocs != 0 {
		t.Errorf("steady-state send path allocates %.1f objects per packet, want 0", allocs)
	}
}

// TestDownstreamPathSteadyStateAllocs is the downstream twin: a packet
// from the gateway to the anchor over the backplane, into the anchor's
// salvage cache and over the air to the vehicle, with the acks and
// overheard copies it causes. Warmed past salvageCacheTTL, so the cache
// trims as much as it takes in, it must allocate nothing per packet.
func TestDownstreamPathSteadyStateAllocs(t *testing.T) {
	k := sim.NewKernel(8)
	cell := NewCell(k, DefaultCellOptions(),
		[]mobility.Mover{mobility.Fixed{X: 0}, mobility.Fixed{X: 50}},
		mobility.Fixed{X: 10})
	k.RunUntil(3 * time.Second)
	veh := cell.Vehicle.Addr()
	if cell.Gateway.AnchorOf(veh) == frame.None {
		t.Fatal("gateway knows no anchor after warmup")
	}
	delivered := 0
	cell.Vehicle.SetDeliver(func(frame.PacketID, []byte, uint16) { delivered++ })
	payload := make([]byte, 200)
	step := func() {
		cell.Gateway.Send(veh, payload)
		k.RunUntil(k.Now() + 50*time.Millisecond)
	}
	for end := k.Now() + salvageCacheTTL + time.Second; k.Now() < end; {
		step()
	}
	allocs := testing.AllocsPerRun(200, step)
	if allocs != 0 {
		t.Errorf("steady-state downstream path allocates %.1f objects per packet, want 0", allocs)
	}
	if delivered < 200 {
		t.Errorf("vehicle received %d packets, want at least the 200 sent while measuring", delivered)
	}
}

// TestVehicleDeliverDispatchAllocFree guards the fleet application
// dispatch path: routing a deduplicated upstream payload through the
// gateway's per-vehicle hook table must not allocate, for hooked and
// unhooked vehicles alike. Workload drivers ride this path once per
// delivered packet across the whole fleet.
func TestVehicleDeliverDispatchAllocFree(t *testing.T) {
	k := sim.NewKernel(3)
	cell := NewFleetCell(k, DefaultCellOptions(),
		[]mobility.Mover{mobility.Fixed{X: 0}, mobility.Fixed{X: 60}},
		[]mobility.Mover{mobility.Fixed{X: 10}, mobility.Fixed{X: 50}}, Placement{})
	hits := 0
	cell.HookVehicle(0, func(frame.PacketID, []byte, uint16) {},
		func(id frame.PacketID, p []byte, from uint16) { hits++ })
	payload := make([]byte, 64)
	hooked, unhooked := cell.Vehicles[0].Addr(), cell.Vehicles[1].Addr()
	allocs := testing.AllocsPerRun(1000, func() {
		cell.Gateway.dispatchUp(frame.PacketID{Src: hooked, Seq: 1}, payload, hooked)
		cell.Gateway.dispatchUp(frame.PacketID{Src: unhooked, Seq: 1}, payload, unhooked)
	})
	if allocs != 0 {
		t.Errorf("per-vehicle delivery dispatch allocates %.1f objects, want 0", allocs)
	}
	if hits != 1001 {
		t.Errorf("hooked vehicle's callback ran %d times, want 1001 (one per dispatch, none for the unhooked one)", hits)
	}
}

// TestTrimSalvageOverflow pins the salvage-cache truncation: when more
// than salvageCacheCap unexpired packets survive a sweep, the newest ones
// are kept, in order.
func TestTrimSalvageOverflow(t *testing.T) {
	k := sim.NewKernel(1)
	cell := NewCell(k, DefaultCellOptions(), []mobility.Mover{mobility.Fixed{X: 0}}, mobility.Fixed{X: 10})
	n := cell.BSes[0]
	vs := n.ensureVeh(3)
	for i := 0; i < 600; i++ {
		vs.salvage = append(vs.salvage, downPkt{seq: uint32(i + 1), payload: make([]byte, 64), fromNetAt: k.Now()})
	}
	n.trimSalvage(vs)
	got := n.vehs[3].salvage
	if len(got) != 512 {
		t.Fatalf("kept %d entries, want 512", len(got))
	}
	for i, d := range got {
		if want := uint32(600 - 512 + 1 + i); d.seq != want {
			t.Fatalf("kept entry %d is seq %d, want %d: truncation keeps the newest entries in order", i, d.seq, want)
		}
	}
}

// TestSenderStateAllocatedInOnePiece: a sender's state comes in blocks.
// Filling a fresh delay window (§4.7) is one allocation — its ring and
// its sorted copy together — and a fresh sender's first pktBlock packet
// records are one block.
func TestSenderStateAllocatedInOnePiece(t *testing.T) {
	fill := testing.AllocsPerRun(20, func() {
		d := newDelaySampler(512)
		for i := range 2000 {
			d.add(time.Duration(i % 37))
		}
	})
	if fill != 1 {
		t.Errorf("filling a fresh delay window allocates %.1f objects, want 1", fill)
	}

	k := sim.NewKernel(1)
	cell := NewCell(k, DefaultCellOptions(), []mobility.Mover{mobility.Fixed{X: 0}}, mobility.Fixed{X: 10})
	n := cell.Vehicle
	recs := testing.AllocsPerRun(20, func() {
		n.pktFree, n.pktSlab = nil, nil
		for range pktBlock {
			n.allocPkt()
		}
	})
	if recs != 1 {
		t.Errorf("a fresh sender's first %d packet records allocate %.1f objects, want 1 block", pktBlock, recs)
	}
}

// TestProbTableDiscoveryAllocs pins what discovering a neighborhood costs
// a cold table: 12 senders, each reporting its 12 local estimates and 12
// gossiped ones (one about a link into self, so 23 pairs fold), then a
// window flush and the node's own report. As in a node, the first report
// is built before any beacon is heard. The 156 pairs start in the table's
// room and grow out of it twice, and self's fresh sets and report are
// sized once from the space kept for senders rather than doubling from
// empty: 15 allocations with the table itself, where separate first
// backings took 24 and a slot slice beside an index map, with sets that
// doubled, took 58.
func TestProbTableDiscoveryAllocs(t *testing.T) {
	const self = 0
	var reports [12][]frame.ProbEntry
	for i := range reports {
		s := uint16(100 + i)
		for j := uint16(0); j < 12; j++ {
			x := uint16(100 + j)
			if x == s {
				x = self
			}
			reports[i] = append(reports[i],
				frame.ProbEntry{From: x, To: s, Prob: 0.5}, frame.ProbEntry{From: s, To: x, Prob: 0.25})
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		pt := NewProbTable(0.5, 3*time.Second)
		now := time.Second
		pt.Report(self, now)
		for i, rep := range reports {
			pt.observeBeacon(uint16(100+i), self, false, rep, now)
		}
		pt.flush(self, 10, now)
		if rep := pt.Report(self, now); len(rep) != 24 {
			t.Fatalf("report has %d entries, want 24", len(rep))
		}
	})
	if raceBuild {
		t.Skipf("race build: %.0f allocations, not a normal build's count", allocs)
	}
	if allocs > 15 {
		t.Errorf("discovering a 12-sender neighborhood allocates %.0f objects, want ≤ 15", allocs)
	}
}

// TestProbTableRoom pins the table's room (probRoom): every part of a
// table starts in it, so a standalone table whose neighborhood fits — 8
// senders, 48 pairs, a 16-entry report — allocates exactly one object
// however many parts it uses; and a cell's nodes carve their rooms from
// one slab, so the 12 tables of a VanLAN cell took theirs in one
// allocation by the time each has beaconed.
func TestProbTableRoom(t *testing.T) {
	const self = 0
	// Sender s reports self→s, which self's gossip set takes, and x→s for
	// four others: 8 + 32 gossiped pairs, then 8 local ones at the flush.
	var reports [roomPeers][]frame.ProbEntry
	for i := range reports {
		s := uint16(100 + i)
		reports[i] = append(reports[i], frame.ProbEntry{From: self, To: s, Prob: 0.5})
		for j := 1; j <= 4; j++ {
			x := uint16(100 + (i+j)%roomPeers)
			reports[i] = append(reports[i], frame.ProbEntry{From: x, To: s, Prob: 0.25})
		}
	}
	tables := make([]ProbTable, 101)
	allocs := testing.AllocsPerRun(len(tables)-1, func() {
		pt := &tables[0]
		tables = tables[1:]
		pt.init(0.5, 3*time.Second)
		now := time.Second
		pt.Report(self, now)
		for i, rep := range reports {
			pt.observeBeacon(uint16(100+i), self, false, rep, now)
		}
		pt.flush(self, 10, now)
		if rep := pt.Report(self, now); len(rep) != 2*roomPeers {
			t.Fatalf("report has %d entries, want %d", len(rep), 2*roomPeers)
		}
		if pt.nLive != 48 {
			t.Fatalf("%d pairs folded, want 48", pt.nLive)
		}
	})
	// A race build's allocation counts are not a normal build's.
	if allocs != 1 && !raceBuild {
		t.Errorf("a table whose neighborhood fits its room allocates %.0f objects, want 1 (the room)", allocs)
	}

	k := sim.NewKernel(7)
	v := mobility.NewVanLAN()
	movers := make([]mobility.Mover, len(v.BSes))
	for i, bs := range v.BSes {
		movers[i] = mobility.Fixed(bs)
	}
	cell := NewCell(k, DefaultCellOptions(), movers, &mobility.RouteMover{Route: v.Route})
	k.RunUntil(time.Second)
	nodes := append(append([]*Node(nil), cell.BSes...), cell.Vehicle)
	var rooms []uintptr
	for _, n := range nodes {
		if n.probs.room == nil {
			t.Fatalf("node %d has no room after a second of beacons", n.addr)
		}
		rooms = append(rooms, uintptr(unsafe.Pointer(n.probs.room)))
	}
	slices.Sort(rooms)
	for i := 1; i < len(rooms); i++ {
		if d := rooms[i] - rooms[i-1]; d != unsafe.Sizeof(probRoom{}) {
			t.Fatalf("rooms %d and %d are %d bytes apart, want adjacent (%d)", i-1, i, d, unsafe.Sizeof(probRoom{}))
		}
	}
	if len(cell.rooms.free) != 0 || cell.rooms.left != 0 {
		t.Errorf("the slab has %d rooms unused and %d tables without one, want none", len(cell.rooms.free), cell.rooms.left)
	}
}

// raceBuild is set in -race builds (race_test.go).
var raceBuild bool
