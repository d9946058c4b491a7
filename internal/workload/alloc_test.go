package workload

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"

	"github.com/vanlan/vifi/internal/frame"
)

// TestCBRDeliverAllocFree guards the fleet dispatch hot path end to end
// on the workload side: feeding delivered payloads into a warm CBR
// driver — the decode, bounds check and slot mark — must not allocate.
// Together with core's TestVehicleDeliverDispatchAllocFree this pins the
// whole per-packet route from the gateway's hook table into the driver.
func TestCBRDeliverAllocFree(t *testing.T) {
	k, cell := testCell(t, 9, 1)
	d := NewCBR(k, CellPort(cell, 0), 0, 0, 10*time.Second, 200*time.Millisecond, 500)
	p := make([]byte, 500)
	binary.BigEndian.PutUint16(p, 0)
	binary.BigEndian.PutUint32(p[2:], 7)
	allocs := testing.AllocsPerRun(1000, func() {
		d.DeliverUp(p)
		d.DeliverDown(p)
	})
	if allocs != 0 {
		t.Errorf("CBR delivery path allocates %.1f objects, want 0", allocs)
	}
	m := d.Stop()
	if !m.Up[7] || !m.Down[7] {
		t.Error("deliveries not recorded")
	}
}

// TestVoIPDeliverAllocFree guards the VoIP record path: scoring a
// received packet — the receipt mark and the window count — must not
// allocate.
func TestVoIPDeliverAllocFree(t *testing.T) {
	k, cell := testCell(t, 10, 1)
	d := NewVoIP(k, CellPort(cell, 0), 0, 0, 60*time.Second)
	d.sent = len(d.up)
	p := make([]byte, 20)
	seq := 0
	allocs := testing.AllocsPerRun(1000, func() {
		binary.BigEndian.PutUint32(p, uint32(seq))
		seq++
		d.DeliverDown(p)
		d.DeliverUp(p)
		d.DeliverUp(p) // a duplicate receipt
	})
	if allocs != 0 {
		t.Errorf("VoIP delivery path allocates %.1f objects per packet", allocs)
	}
	if d.recvN != 2*seq {
		t.Errorf("scored %d receipts of %d packet pairs", d.recvN, seq)
	}
}

// TestPortCopiesPayload pins the no-retain contract the CBR and VoIP
// drivers build on: whatever a driver does to its buffer once SendUp or
// SendDown has returned — here, scribbling over it before the kernel runs
// another event — no byte delivered at the gateway or at the vehicle
// changes, though every packet is still on the air or the backplane then.
func TestPortCopiesPayload(t *testing.T) {
	k, cell := testCell(t, 12, 1)
	k.RunUntil(3 * time.Second) // anchors settle
	port := CellPort(cell, 0)
	got := map[string][][]byte{}
	keep := func(dir string) func(frame.PacketID, []byte, uint16) {
		return func(_ frame.PacketID, p []byte, _ uint16) { got[dir] = append(got[dir], append([]byte(nil), p...)) }
	}
	cell.HookVehicle(0, keep("down"), keep("up"))
	const packets = 40
	buf := make([]byte, 64)
	for i := 0; i < packets; i++ {
		for j := range buf {
			buf[j] = byte(i)
		}
		port.SendUp(buf)
		port.SendDown(buf)
		for j := range buf {
			buf[j] = 0xFF
		}
		k.RunUntil(k.Now() + 20*time.Millisecond)
	}
	k.RunUntil(k.Now() + 2*time.Second)
	for _, dir := range []string{"up", "down"} {
		if len(got[dir]) < packets/2 {
			t.Fatalf("%s: %d of %d packets delivered", dir, len(got[dir]), packets)
		}
		for _, p := range got[dir] {
			if len(p) != len(buf) || p[0] == 0xFF || !bytes.Equal(p, bytes.Repeat(p[:1], len(p))) {
				t.Fatalf("%s: delivered %x — the sender's later scribble leaked in", dir, p)
			}
		}
	}
}
