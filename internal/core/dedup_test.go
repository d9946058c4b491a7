package core

import (
	"testing"
	"time"

	"github.com/vanlan/vifi/internal/frame"
	"github.com/vanlan/vifi/internal/radio"
	"github.com/vanlan/vifi/internal/sim"
)

// TestDedupHorizonCoversTheLatestCopy: a receiver still knows a packet
// when its last copy, or a §4.8 bitmap bit naming it, comes as late as
// the sender's schedule allows: a source names a packet for up to
// (MaxRetx+1)·retxMax, and a copy may spend as long again in MAC queues
// and on the backplane — 4 s at the paper's settings. The copy here comes
// retxMax/2 short of that after the first. The vehicle's table is swept
// once per probWindow, so the first copy lands 300 ms after a sweep,
// found by watching a planted stale entry vanish: the sweep 4 s later
// sees an entry 3.7 s old, and the late copy comes 50 ms after it, so a
// horizon one retxMax short (3.5 s) has forgotten the packet by then. The
// gateway sweeps when a new packet finds a horizon gone since its last
// sweep, so there the new packet that triggers the sweep comes just
// before the late copy. Each copy must be delivered once and the bitmap
// must be re-acked.
func TestDedupHorizonCoversTheLatestCopy(t *testing.T) {
	cfg := DefaultConfig()
	late := 2*time.Duration(cfg.MaxRetx+1)*retxMax - retxMax/2
	horizon := cfg.dedupHorizon()

	// firstCopyAt runs the cell to 300 ms after one of the vehicle's
	// window sweeps and returns that instant.
	firstCopyAt := func(k *sim.Kernel, veh *Node) time.Duration {
		stale := frame.PacketID{Src: 0xBEEF, Seq: 1}
		if veh.acked == nil { // made on first write
			veh.acked = map[frame.PacketID]ackedInfo{}
		}
		veh.acked[stale] = ackedInfo{lastAck: -2 * horizon}
		for k.RunUntil(k.Now() + time.Millisecond); veh.acked[stale] != (ackedInfo{}); k.RunUntil(k.Now() + time.Millisecond) {
			if k.Now() > 2*probWindow {
				t.Fatal("no window sweep removed a stale entry within two windows")
			}
		}
		at := k.Now() + 300*time.Millisecond
		k.RunUntil(at)
		return at
	}
	// air hands the vehicle a downstream data frame from bs0.
	air := func(veh *Node, seq uint32, attempt, bitmap uint8) {
		veh.handleFrame(&frame.Frame{Type: frame.TypeData, Src: 0, Dst: veh.addr,
			Seq: seq, Attempt: attempt, AckBitmap: bitmap, Payload: []byte("x")}, radio.RxInfo{From: 0})
	}

	t.Run("last copy", func(t *testing.T) {
		k, cell := testCell(t, 21, cfg, uniformMatrix(2, 1), nil)
		veh := cell.Vehicle
		delivered := 0
		veh.SetDeliver(func(frame.PacketID, []byte, uint16) { delivered++ })
		at := firstCopyAt(k, veh)
		air(veh, 100, 0, 0)
		k.RunUntil(at + late)
		air(veh, 100, uint8(cfg.MaxRetx), 0)
		if delivered != 1 {
			t.Errorf("a copy %v after the first was delivered %d times, want once", late, delivered)
		}
	})

	t.Run("bitmap", func(t *testing.T) {
		k, cell := testCell(t, 22, cfg, uniformMatrix(2, 1), nil)
		veh := cell.Vehicle
		acks := func() int { return veh.MAC().Stats().SentByType[frame.TypeAck] }
		at := firstCopyAt(k, veh)
		air(veh, 100, 0, 0)
		k.RunUntil(at + late)
		before := acks()
		air(veh, 101, 0, 1) // bit 0 names seq 100
		k.RunUntil(at + late + 50*time.Millisecond)
		if got := acks() - before; got != 2 {
			t.Errorf("a bitmap naming a packet %v after its ack drew %d acks, want 2 (the new packet and the re-ack)", late, got)
		}
	})

	t.Run("gateway", func(t *testing.T) {
		k, cell := testCell(t, 23, cfg, uniformMatrix(2, 1), nil)
		gw, veh := cell.Gateway, cell.Vehicle.Addr()
		delivered := map[uint32]int{}
		gw.SetVehicleDeliver(veh, func(id frame.PacketID, _ []byte, _ uint16) { delivered[id.Seq]++ })
		up := func(from uint16, seq uint32) {
			f := frame.Frame{Type: frame.TypeRelay, Src: from, Dst: gw.Addr(), Seq: seq, Orig: veh, Payload: []byte("x")}
			buf, err := f.AppendTo(nil)
			if err != nil {
				t.Fatal(err)
			}
			gw.handleBackplane(from, buf)
		}
		first := probWindow
		k.RunUntil(first)
		up(0, 100)
		k.RunUntil(first + late)
		up(0, 101) // a horizon since the gateway started: this one sweeps
		up(1, 100) // the last copy, forwarded by another anchor
		if delivered[100] != 1 || delivered[101] != 1 {
			t.Errorf("deliveries %v, want each packet once", delivered)
		}
	})
}
