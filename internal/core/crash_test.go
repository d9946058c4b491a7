package core

import (
	"testing"
	"time"

	"github.com/vanlan/vifi/internal/frame"
	"github.com/vanlan/vifi/internal/radio"
)

// These tests exercise basestation crash/restart faults — the radio muted
// via Channel.SetDown, the backplane partitioned, protocol state cold on
// restart — and pin the graceful-degradation contracts the fault
// injector relies on: salvage requests to a dead previous anchor expire
// without wedging or double-delivering, the gateway tolerates its
// registered anchor dying mid-packet, and refused Registers retry.

// crashBS takes a basestation fully down (radio + backplane), the way
// the fault injector does.
func crashBS(cell *Cell, i int) {
	cell.Channel.SetDown(radio.NodeID(i))
	cell.Backplane.SetDown(cell.BSes[i].Addr(), true)
}

// restartBS restores a crashed basestation with cold protocol state.
func restartBS(cell *Cell, i int) {
	cell.BSes[i].ColdRestart()
	cell.Backplane.SetDown(cell.BSes[i].Addr(), false)
	cell.Channel.SetUp(radio.NodeID(i))
}

func TestSalvageReqToDeadAnchorTimesOut(t *testing.T) {
	// Vehicle anchored to BS0; BS0 crashes mid-stream. The vehicle must
	// re-anchor to BS1, whose SalvageReq to the dead BS0 is refused by the
	// backplane — no wedge, no salvage — and after BS0 restarts cold no
	// stale salvage cache can double-deliver anything.
	m := uniformMatrix(3, 0.9)
	m[0][2], m[2][0] = 0.95, 0.95 // BS0 preferred initially
	m[1][2], m[2][1] = 0.75, 0.75
	type salvageEv struct {
		kind EventKind
		node uint16
		peer uint16
		at   time.Duration
	}
	var salvageEvs []salvageEv
	k, cell := testCell(t, 31, DefaultConfig(), m, func(e Event) {
		if e.Kind == EvSalvageReq || e.Kind == EvSalvaged {
			salvageEvs = append(salvageEvs, salvageEv{e.Kind, e.Node, e.Peer, e.At})
		}
	})
	veh := cell.Vehicle.Addr()
	counts := map[frame.PacketID]int{}
	var times []time.Duration
	cell.Vehicle.SetDeliver(func(id frame.PacketID, p []byte, from uint16) {
		counts[id]++
		times = append(times, k.Now())
	})

	k.RunUntil(3 * time.Second)
	if got := cell.Vehicle.Anchor(); got != cell.BSes[0].Addr() {
		t.Fatalf("anchor = %v, want BS0 %v", got, cell.BSes[0].Addr())
	}

	const n = 440
	for i := 0; i < n; i++ {
		k.At(3*time.Second+time.Duration(i)*50*time.Millisecond, func() {
			cell.Gateway.Send(veh, make([]byte, 100))
		})
	}
	k.At(5*time.Second, func() { crashBS(cell, 0) })
	k.At(16*time.Second, func() { restartBS(cell, 0) })
	k.RunUntil(26 * time.Second)

	if cell.Vehicle.Anchor() == cell.BSes[0].Addr() {
		// BS0 restarted cold; nothing forces a switch back, but the vehicle
		// must have left it during the outage.
		var during, after int
		for _, at := range times {
			if at > 6*time.Second && at < 16*time.Second {
				during++
			}
		}
		_ = after
		if during == 0 {
			t.Error("vehicle never re-anchored away from the crashed BS0")
		}
	}
	var before, resumed int
	for _, at := range times {
		switch {
		case at < 5*time.Second:
			before++
		case at > 14*time.Second:
			resumed++
		}
	}
	if before == 0 {
		t.Fatal("no deliveries before the crash; scenario not exercised")
	}
	if resumed == 0 {
		t.Error("delivery never resumed after the crash (wedged)")
	}
	for id, c := range counts {
		if c > 1 {
			t.Errorf("packet %v delivered %d times across the crash/restart", id, c)
		}
	}
	// Salvage traffic around live anchor changes is legitimate; during the
	// outage nothing may be requested from — or handed over by — the dead
	// BS0. EvSalvageReq is emitted only when the backplane admits the
	// request, so any entry targeting BS0 here means the partition leaked.
	bs0 := cell.BSes[0].Addr()
	for _, ev := range salvageEvs {
		if ev.at <= 5*time.Second || ev.at >= 16*time.Second {
			continue
		}
		if ev.kind == EvSalvageReq && ev.peer == bs0 {
			t.Errorf("salvage request admitted toward the dead BS0 at %v", ev.at)
		}
		if ev.kind == EvSalvaged && ev.node == bs0 {
			t.Errorf("dead BS0 handed over a salvaged packet at %v", ev.at)
		}
	}
}

func TestGatewayToleratesAnchorDyingMidPacket(t *testing.T) {
	// The gateway keeps forwarding to its registered anchor until a new
	// Register arrives; every Send into the dead anchor must drop cleanly
	// (admission refused, no wedge) and forwarding must recover once the
	// vehicle re-anchors.
	m := uniformMatrix(3, 0.9)
	m[0][2], m[2][0] = 0.95, 0.95
	m[1][2], m[2][1] = 0.75, 0.75
	k, cell := testCell(t, 32, DefaultConfig(), m, nil)
	veh := cell.Vehicle.Addr()
	delivered := 0
	cell.Vehicle.SetDeliver(func(frame.PacketID, []byte, uint16) { delivered++ })

	k.RunUntil(3 * time.Second)
	crashBS(cell, 0) // anchor dies with registration still pointing at it

	refused := 0
	for i := 0; i < 200; i++ {
		k.At(3*time.Second+time.Duration(i)*50*time.Millisecond, func() {
			if !cell.Gateway.Send(veh, make([]byte, 100)) {
				refused++
			}
		})
	}
	k.RunUntil(20 * time.Second)

	if refused == 0 {
		t.Error("no Send was refused while the registered anchor was dead")
	}
	if delivered == 0 {
		t.Error("forwarding never recovered after the anchor died (wedged)")
	}
	if got := cell.Gateway.AnchorOf(veh); got != cell.BSes[1].Addr() {
		t.Errorf("gateway anchor = %v, want re-registered BS1 %v", got, cell.BSes[1].Addr())
	}
}

func TestRegisterRetriesAfterPartition(t *testing.T) {
	// The anchor's Register is refused while its backplane is down; it
	// must retry on a later beacon instead of leaving the gateway without
	// a registration until the next anchor change.
	k, cell := testCell(t, 33, DefaultConfig(), uniformMatrix(2, 0.95), nil)
	veh := cell.Vehicle.Addr()
	bs := cell.BSes[0].Addr()
	cell.Backplane.SetDown(bs, true) // partitioned from the start

	k.RunUntil(4 * time.Second)
	if cell.Vehicle.Anchor() != bs {
		t.Fatal("vehicle did not anchor over the air")
	}
	if got := cell.Gateway.AnchorOf(veh); got != frame.None {
		t.Fatalf("gateway learned an anchor through a partition: %v", got)
	}

	cell.Backplane.SetDown(bs, false)
	k.RunUntil(8 * time.Second)
	if got := cell.Gateway.AnchorOf(veh); got != bs {
		t.Errorf("Register never retried after the partition healed: anchor = %v, want %v", got, bs)
	}
	if !cell.Gateway.Send(veh, []byte("hi")) {
		t.Error("downstream send refused after retrying registration")
	}
}

func TestColdRestartClearsProtocolState(t *testing.T) {
	k, cell := testCell(t, 34, DefaultConfig(), uniformMatrix(2, 0.95), nil)
	veh := cell.Vehicle.Addr()
	k.RunUntil(3 * time.Second)
	for i := 0; i < 20; i++ {
		k.At(3*time.Second+time.Duration(i)*20*time.Millisecond, func() {
			cell.Gateway.Send(veh, make([]byte, 64))
			cell.Vehicle.SendData(make([]byte, 64))
		})
	}
	k.RunUntil(4 * time.Second)

	bs := cell.BSes[0]
	seqBefore := bs.nextSeq
	if bs.vehs[veh] == nil || !bs.vehs[veh].amAnchor {
		t.Fatal("BS0 is not the anchor; scenario not exercised")
	}
	if len(bs.probs.FreshLocalPeers(bs.addr, k.Now())) == 0 {
		t.Fatal("BS0 heard no beacons; scenario not exercised")
	}

	restartAt := k.Now()
	room := bs.probs.room
	bs.ColdRestart()
	if vs := bs.vehs[veh]; vs != nil {
		t.Error("per-vehicle state survived ColdRestart")
	}
	if got := len(bs.probs.FreshLocalPeers(bs.addr, k.Now())); got != 0 {
		t.Errorf("%d fresh peers survived ColdRestart", got)
	}
	if len(bs.outstanding) != 0 || len(bs.acked) != 0 || len(bs.pending) != 0 {
		t.Errorf("in-flight state survived: outstanding=%d acked=%d pending=%d",
			len(bs.outstanding), len(bs.acked), len(bs.pending))
	}
	if bs.nextSeq != seqBefore {
		t.Errorf("nextSeq reset from %d to %d; sequence numbers must survive restart", seqBefore, bs.nextSeq)
	}

	// The table keeps its room, and the beacons heard next fill it afresh:
	// no pair learned before the restart comes back with it.
	k.RunUntil(restartAt + 500*time.Millisecond)
	if bs.probs.room != room {
		t.Error("the table took a second room at its restart")
	}
	if len(bs.probs.slots) == 0 {
		t.Fatal("BS0 stored no pair after its restart; scenario not exercised")
	}
	for _, s := range bs.probs.slots {
		if s.flags&live != 0 && max(s.local, s.gossipT) < restartAt {
			t.Errorf("pair %d→%d, last observed at %v, survived the restart at %v",
				s.key>>16, uint16(s.key), max(s.local, s.gossipT), restartAt)
		}
	}

	// The fresh state must re-learn: beacons keep flowing, so the BS
	// re-acquires the vehicle and traffic resumes.
	delivered := 0
	cell.Vehicle.SetDeliver(func(frame.PacketID, []byte, uint16) { delivered++ })
	for i := 0; i < 40; i++ {
		k.At(5*time.Second+time.Duration(i)*50*time.Millisecond, func() {
			cell.Gateway.Send(veh, make([]byte, 64))
		})
	}
	k.RunUntil(12 * time.Second)
	if vs := bs.vehs[veh]; vs == nil || !vs.amAnchor {
		t.Error("BS did not re-learn its anchor role after ColdRestart")
	}
	if delivered == 0 {
		t.Error("no deliveries after ColdRestart")
	}
}
