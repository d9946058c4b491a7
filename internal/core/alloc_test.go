package core

import (
	"runtime"
	"testing"
	"time"

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
// table must allocate a slot and an index entry — not row headers or a
// row sized by the address.
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
// acks, the window's beacons) and requires it to settle near zero
// allocations per packet.
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
	// Sending marshals into pooled buffers and receiving decodes into
	// receiver-owned storage; what is left is the other basestation's copy
	// of the payload it overhears as an auxiliary (considerPending keeps
	// it past the upcall) and map growth.
	if allocs > 2 {
		t.Errorf("steady-state send path allocates %.1f objects per packet", allocs)
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
// than 512 unexpired packets survive a sweep, the newest 512 are kept and
// none of the kept entries may be nil (a regression here panics the next
// salvage request).
func TestTrimSalvageOverflow(t *testing.T) {
	k := sim.NewKernel(1)
	n := &Node{K: k, vehs: map[uint16]*vehState{}}
	vs := n.ensureVeh(3)
	for i := 0; i < 600; i++ {
		vs.salvage = append(vs.salvage, &downPkt{fromNetAt: k.Now(), acked: i%2 == 0})
	}
	marker := vs.salvage[599]
	n.trimSalvage(3)
	got := n.vehs[3].salvage
	if len(got) != 512 {
		t.Fatalf("kept %d entries, want 512", len(got))
	}
	for i, d := range got {
		if d == nil {
			t.Fatalf("kept entry %d is nil", i)
		}
	}
	if got[511] != marker {
		t.Error("truncation did not keep the newest entries")
	}
}
